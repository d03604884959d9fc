//! Property-based coverage of the spec layer: randomly generated
//! [`ScenarioSpec`]s (including controller overrides and sweeps) must
//! never panic in `validate()`, and every spec that validates must
//! round-trip bit-identically through its JSON form. Registry scenarios
//! with one part replaced by a generated value carry the same checks to
//! clusters, fleets, rosters, graphs and fault timelines.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use scenarios::spec::{
    AdmissionSpec, BreakerSpec, ControllerSpec, CurveSpec, EdgeSpec, FaultEvent, FaultSpec,
    FleetProductionSpec, HedgeSpec, ResilienceSpec, RestartSpec, RetrySpec, ScaleSpec,
    ScenarioSpec, ServiceGraphSpec, ServiceLoadSpec, SpecError, StageSpec, SweepAxis, SweepSpec,
    TargetSpec, TelemetrySpec, TenantLimitSpec, WorkloadSpec,
};
use scenarios::Policy;
use workloads::BullyIntensity;

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Standalone),
        Just(Policy::NoIsolation),
        Just(Policy::FullPerfIso),
        Just(Policy::FullPerfIso),
        Just(Policy::Blind { buffer_cores: 8 }),
        Just(Policy::Blind { buffer_cores: 8 }),
        // Includes out-of-range parameters on purpose: validation must
        // reject them with an error, never a panic.
        (0u32..64).prop_map(|b| Policy::Blind { buffer_cores: b }),
        (0u32..64).prop_map(Policy::StaticCores),
        (-0.5f64..1.5).prop_map(Policy::CycleCap),
    ]
}

fn secondary_strategy() -> impl Strategy<Value = indexserve::SecondaryKind> {
    let mix = (
        proptest::option::of(prop_oneof![
            Just(BullyIntensity::Mid),
            Just(BullyIntensity::High),
            (1u32..64).prop_map(BullyIntensity::Custom),
        ]),
        proptest::option::of((1u32..8).prop_map(|depth| workloads::DiskBully {
            depth,
            ..workloads::DiskBully::default()
        })),
        any::<bool>(),
    )
        .prop_map(|(cpu_bully, disk_bully, hdfs)| indexserve::SecondaryKind {
            cpu_bully,
            disk_bully,
            hdfs,
        });
    // No secondary at all, which `Policy::Standalone` requires.
    prop_oneof![Just(indexserve::SecondaryKind::none()), mix]
}

fn target_strategy() -> impl Strategy<Value = TargetSpec> {
    // Roster entries straddle validity: zero qps, empty/duplicate names
    // (name collisions arise naturally from the tiny name pool), working
    // sets big enough that two of them overflow the box, and ones whose
    // sum overflows `u64`.
    let service = (
        prop_oneof![
            Just(String::new()),
            Just("web".to_string()),
            Just("ads".to_string()),
        ],
        prop_oneof![Just(0.0f64), 100.0f64..3_000.0],
        prop_oneof![Just(0u64), 1_024u64..70_000, Just(u64::MAX)],
    )
        .prop_map(|(name, qps, working_set_mb)| ServiceLoadSpec {
            name,
            qps,
            working_set_mb,
        });
    // Fleet targets straddle validity the same way: zero minutes/samples/
    // slices, zero trainer workers, zero-QPS flat curves, and zero-stride
    // production extensions must all be rejected, never panic.
    let fleet = (
        (0u32..20, 0u32..4, prop_oneof![Just(0u64), 50u64..300]),
        prop_oneof![
            Just(CurveSpec::PaperHour),
            Just(CurveSpec::ProductionDay),
            prop_oneof![Just(0.0f64), 500.0f64..3_000.0].prop_map(|qps| CurveSpec::Flat { qps }),
        ],
        prop_oneof![Just(0u32), 1u32..32],
        proptest::option::of((0u32..20, any::<bool>(), any::<bool>()).prop_map(
            |(minute_stride, heterogeneous_shapes, tenant_churn)| FleetProductionSpec {
                minute_stride,
                heterogeneous_shapes,
                tenant_churn,
            },
        )),
    )
        .prop_map(
            |((minutes, sampled_machines, slice_ms), curve, workers, production)| {
                TargetSpec::Fleet {
                    fleet_machines: 650,
                    sampled_machines,
                    minutes,
                    slice_ms,
                    curve,
                    trainer: workloads::MlTrainer {
                        workers,
                        minibatch: simcore::SimDuration::from_millis(2),
                        steps_per_sync: 20,
                        sync_pause: simcore::SimDuration::from_millis(8),
                    },
                    production,
                }
            },
        );
    prop_oneof![
        prop_oneof![Just(0.0f64), 100.0f64..5_000.0].prop_map(|qps| TargetSpec::SingleBox { qps }),
        proptest::collection::vec(service, 0..6)
            .prop_map(|services| TargetSpec::MultiBox { services }),
        (0u32..4, 0u32..3, 0u32..3, (100.0f64..2_000.0)).prop_map(
            |(columns, rows, tlas, qps_total)| TargetSpec::Cluster {
                columns,
                rows,
                tlas,
                qps_total,
            }
        ),
        fleet,
    ]
}

/// Service graphs straddle validity exactly like the other strategies:
/// empty graphs, zero fan-outs, dangling edge names, self-loops,
/// footprints and durations past `u64` bytes or the clock, and —
/// because edges are drawn from a tiny stage-name pool in both
/// directions — cycles, all alongside genuinely well-formed DAGs.
fn graph_strategy() -> impl Strategy<Value = ServiceGraphSpec> {
    let stage_name = || {
        prop_oneof![
            Just("".to_string()),
            Just("a".to_string()),
            Just("b".to_string()),
            Just("c".to_string()),
            Just("d".to_string()),
        ]
    };
    let stage = (
        stage_name(),
        prop_oneof![Just(0u32), 1u32..16],
        prop_oneof![Just(0.0f64), 50.0f64..500.0],
        0.0f64..0.6,
        prop_oneof![Just(0u64), 64u64..4_096, 64u64..4_096, Just(u64::MAX)],
    )
        .prop_map(|(name, fan_out, compute_us, sigma, memory_mb)| StageSpec {
            name,
            fan_out,
            compute_us,
            sigma,
            memory_mb,
        });
    let edge_name = || {
        prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("c".to_string()),
            Just("d".to_string()),
            Just("dangling".to_string()),
        ]
    };
    let latency_us = prop_oneof![0u64..200, 0u64..200, Just(u64::MAX)];
    let edge = (edge_name(), edge_name(), 1u64..65_536, latency_us).prop_map(
        |(from, to, bytes, latency_us)| EdgeSpec {
            from,
            to,
            bytes,
            latency_us,
        },
    );
    (
        proptest::collection::vec(stage, 0..5),
        proptest::collection::vec(edge, 0..6),
        prop_oneof![Just(0u64), 1u64..100, 1u64..100, Just(u64::MAX)],
    )
        .prop_map(|(stages, edges, timeout_ms)| ServiceGraphSpec {
            stages,
            edges,
            timeout_ms,
        })
}

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        Just(WorkloadSpec::IndexServe),
        Just(WorkloadSpec::IndexServe),
        graph_strategy().prop_map(WorkloadSpec::ServiceGraph),
    ]
}

/// Knob values deliberately straddle the valid range (`Just(0)`, an
/// interval past the clock, watermark 1.5 are invalid) so both branches of
/// validation are hit.
fn controller_strategy() -> impl Strategy<Value = ControllerSpec> {
    // Four valid arms to two invalid keeps the generator mostly in range,
    // so the round-trip branch gets real coverage too.
    let us = || {
        proptest::option::of(prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            100u64..100_000,
            100u64..100_000,
            100u64..100_000,
            100u64..100_000,
        ])
    };
    let tenant = (
        prop_oneof![
            Just(String::new()),
            Just("hdfs-client".to_string()),
            Just("hdfs-replication".to_string()),
            Just("disk-bully".to_string()),
        ],
        proptest::option::of(1u64..500),
        proptest::option::of(10u64..5_000),
    )
        .prop_map(|(service, mbps, iops)| TenantLimitSpec {
            service,
            mbps,
            iops,
        });
    (
        (proptest::option::of(0u32..64), us(), us(), us()),
        (
            proptest::option::of(prop_oneof![
                Just(0u64),
                64u64..16_384,
                64u64..16_384,
                Just(u64::MAX),
            ]),
            proptest::option::of(prop_oneof![
                Just(0.0f64),
                0.05f64..1.0,
                Just(1.0f64),
                Just(1.5f64),
            ]),
            proptest::collection::vec(tenant, 0..3),
        ),
    )
        .prop_map(
            |(
                (buffer_cores, cpu_poll_interval_us, io_poll_interval_us, memory_poll_interval_us),
                (secondary_memory_limit_mb, memory_kill_watermark, tenant_limits),
            )| ControllerSpec {
                buffer_cores,
                cpu_poll_interval_us,
                io_poll_interval_us,
                memory_poll_interval_us,
                secondary_memory_limit_mb,
                memory_kill_watermark,
                tenant_limits,
            },
        )
}

/// Controller overrides with every knob in range and at most one limit
/// per tenant, which `validate` accepts on any policy with a controller.
fn valid_controller_strategy() -> impl Strategy<Value = ControllerSpec> {
    let us = || proptest::option::of(100u64..100_000);
    (
        (proptest::option::of(1u32..16), us(), us(), us()),
        (
            proptest::option::of(64u64..16_384),
            proptest::option::of(0.05f64..1.0),
            proptest::option::of((1u64..500, 10u64..5_000)),
        ),
    )
        .prop_map(
            |(
                (buffer_cores, cpu_poll_interval_us, io_poll_interval_us, memory_poll_interval_us),
                (secondary_memory_limit_mb, memory_kill_watermark, hdfs_client),
            )| ControllerSpec {
                buffer_cores,
                cpu_poll_interval_us,
                io_poll_interval_us,
                memory_poll_interval_us,
                secondary_memory_limit_mb,
                memory_kill_watermark,
                tenant_limits: hdfs_client
                    .map(|(mbps, iops)| TenantLimitSpec {
                        service: "hdfs-client".into(),
                        mbps: Some(mbps),
                        iops: Some(iops),
                    })
                    .into_iter()
                    .collect(),
            },
        )
}

fn sweep_strategy() -> impl Strategy<Value = Option<SweepSpec>> {
    let axis = prop_oneof![
        proptest::collection::vec(prop_oneof![Just(0u32), 1u32..16], 0..3)
            .prop_map(SweepAxis::BufferCores),
        proptest::collection::vec(prop_oneof![Just(0u64), 500u64..50_000], 0..3)
            .prop_map(SweepAxis::CpuPollIntervalUs),
        proptest::collection::vec(0.05f64..1.2, 0..3).prop_map(SweepAxis::MemoryKillWatermark),
        proptest::collection::vec(1u64..200, 0..3).prop_map(|mbps| SweepAxis::TenantIoMbps {
            service: "hdfs-client".into(),
            mbps,
        }),
        proptest::collection::vec(prop_oneof![Just(0.0f64), 100.0f64..5_000.0], 0..3)
            .prop_map(SweepAxis::Qps),
        proptest::collection::vec(policy_strategy(), 0..3).prop_map(SweepAxis::Policy),
        proptest::collection::vec(secondary_strategy(), 0..3).prop_map(SweepAxis::Secondary),
    ];
    proptest::option::of(proptest::collection::vec(axis, 0..3).prop_map(|axes| SweepSpec { axes }))
}

/// Fault timelines straddle the valid range like the controller knobs:
/// zero backoff/multiplier/max-failures, empty rollout keys,
/// out-of-range stage percentages, and milliseconds or backoffs past the
/// simulated clock must all be *rejected*, never panic.
fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    let at = || prop_oneof![0u64..1_000, 0u64..1_000, Just(u64::MAX)];
    let span = || prop_oneof![0u64..500, 0u64..500, Just(u64::MAX)];
    let event = prop_oneof![
        (at(), 0u32..300).prop_map(|(at_ms, downtime_polls)| FaultEvent::ControllerCrash {
            at_ms,
            downtime_polls,
        }),
        (at(), span())
            .prop_map(|(at_ms, downtime_ms)| FaultEvent::SecondaryRestart { at_ms, downtime_ms }),
        (at(), span())
            .prop_map(|(at_ms, downtime_ms)| FaultEvent::BoxRestart { at_ms, downtime_ms }),
        (at(), 0u32..4, span(), span()).prop_map(|(at_ms, cycles, period_ms, downtime_ms)| {
            FaultEvent::ChurnStorm {
                at_ms,
                cycles,
                period_ms,
                downtime_ms,
            }
        }),
        (at(), span(), 0u32..2_000).prop_map(|(at_ms, duration_ms, extra_qps)| {
            FaultEvent::ConnectionFlood {
                at_ms,
                duration_ms,
                extra_qps,
            }
        }),
        (
            at(),
            prop_oneof![Just(String::new()), Just("doc".to_string())],
            0u8..=150,
            proptest::option::of(prop_oneof![Just(0u64), 1u64..100, Just(u64::MAX)]),
        )
            .prop_map(|(at_ms, key, staged_pct, rollback_p99_ms)| {
                FaultEvent::ConfigRollout {
                    at_ms,
                    key,
                    doc: ControllerSpec::default(),
                    staged_pct,
                    rollback_p99_ms,
                }
            }),
    ];
    (
        proptest::collection::vec(event, 0..3),
        (
            prop_oneof![0u64..2_000, 0u64..2_000, Just(u64::MAX)],
            prop_oneof![0u32..4, 0u32..4, Just(u32::MAX)],
            prop_oneof![0u32..6, 0u32..6, Just(u32::MAX)],
        ),
    )
        .prop_map(
            |(events, (base_backoff_ms, multiplier, max_failures))| FaultSpec {
                events,
                restart: RestartSpec {
                    base_backoff_ms,
                    multiplier,
                    max_failures,
                },
            },
        )
}

/// Resilience policies straddling validity: zero admission caps, zero
/// backoff, over-budget retries, and hedge percentiles at and outside
/// the open (0, 1) interval must all be rejected with an error, never a
/// panic; the valid combinations must round-trip.
fn resilience_strategy() -> impl Strategy<Value = ResilienceSpec> {
    (
        proptest::option::of(
            (0u64..64, 0u64..16).prop_map(|(max_in_flight, queue_depth)| AdmissionSpec {
                max_in_flight,
                queue_depth,
            }),
        ),
        proptest::option::of((0u64..10, 0u32..4, 0u32..24, 0u64..4).prop_map(
            |(base_backoff_ms, multiplier, budget, jitter_ms)| RetrySpec {
                base_backoff_ms,
                multiplier,
                budget,
                jitter_ms,
            },
        )),
        proptest::option::of(
            prop_oneof![Just(0.0f64), Just(0.5), Just(0.99), Just(1.0)]
                .prop_map(|percentile| HedgeSpec { percentile }),
        ),
        proptest::option::of((0u32..8, 0u64..200).prop_map(|(threshold, cooldown_ms)| {
            BreakerSpec {
                threshold,
                cooldown_ms,
            }
        })),
        any::<bool>(),
    )
        .prop_map(
            |(admission, retry, hedge, breaker, propagate_deadlines)| ResilienceSpec {
                admission,
                retry,
                hedge,
                breaker,
                propagate_deadlines,
            },
        )
}

/// Run lengths other than `Quick`: the bench window, and explicit windows
/// some of which overflow the simulated clock and must be rejected.
fn scale_strategy() -> impl Strategy<Value = ScaleSpec> {
    prop_oneof![
        // Only validated and rescaled here, never run, so the 6.5 s bench
        // window costs nothing.
        Just(ScaleSpec::Bench),
        (
            prop_oneof![0u64..300, 0u64..300, Just(u64::MAX)],
            prop_oneof![0u64..500, 0u64..500, Just(u64::MAX)],
        )
            .prop_map(|(warmup_ms, measure_ms)| ScaleSpec::Custom {
                warmup_ms,
                measure_ms,
            }),
    ]
}

/// One part of a registry scenario, replaced by a generated value.
#[derive(Clone, Debug)]
enum Graft {
    Controller(ControllerSpec),
    Fault(FaultSpec),
    Resilience(ResilienceSpec),
    Scale(ScaleSpec),
}

/// A registry scenario with one of its controller overrides, fault
/// timeline, resilience policy or run length replaced, the rest as
/// registered. Every target class, graph workload and chaos timeline the
/// registry holds is reached this way, where `spec_strategy` builds
/// mostly plain single boxes.
fn grafted_strategy() -> impl Strategy<Value = ScenarioSpec> {
    let graft = prop_oneof![
        mostly(valid_controller_strategy(), controller_strategy()).prop_map(Graft::Controller),
        fault_strategy().prop_map(Graft::Fault),
        resilience_strategy().prop_map(Graft::Resilience),
        mostly(Just(ScaleSpec::Quick), scale_strategy()).prop_map(Graft::Scale),
    ];
    (0usize..1024, graft).prop_map(|(pick, graft)| {
        let mut registry = scenarios::spec::registry();
        let mut spec = registry.swap_remove(pick % registry.len());
        match graft {
            Graft::Controller(c) => spec.controller = c,
            Graft::Fault(f) => spec.fault = f,
            Graft::Resilience(r) => spec.resilience = r,
            Graft::Scale(s) => spec.scale = s,
        }
        spec
    })
}

/// Builds what a run of `spec` builds first for its target: the box
/// simulator (single and multi-box), or the cluster or fleet
/// configuration.
fn build_target(spec: &ScenarioSpec) -> Result<(), SpecError> {
    match spec.target {
        TargetSpec::SingleBox { .. } | TargetSpec::MultiBox { .. } => {
            spec.box_sim(spec.seed).map(drop)
        }
        TargetSpec::Cluster { .. } => spec.cluster_config(spec.seed, 1).map(drop),
        TargetSpec::Fleet { .. } => spec.fleet_config(spec.seed, 1).map(drop),
    }
}

/// Draws `valid` three times in four and `hostile` otherwise. A spec is
/// assembled from a dozen parts, each of which `validate` must accept, so
/// without this weighting almost no generated spec validates and the
/// properties' accepting branches never run; every hostile value still
/// reaches `validate` in about a quarter of the cases.
fn mostly<T>(
    valid: impl Strategy<Value = T>,
    hostile: impl Strategy<Value = T>,
) -> impl Strategy<Value = T> {
    (0u32..4, valid, hostile)
        .prop_map(|(pick, valid, hostile)| if pick == 0 { hostile } else { valid })
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        (
            mostly(
                prop_oneof![Just("prop-spec".to_string()), Just("p".to_string())],
                prop_oneof![Just(String::new()), Just("has space".to_string())],
            ),
            mostly(
                (100.0f64..5_000.0).prop_map(|qps| TargetSpec::SingleBox { qps }),
                target_strategy(),
            ),
            mostly(Just(WorkloadSpec::IndexServe), workload_strategy()),
            secondary_strategy(),
        ),
        (
            policy_strategy(),
            mostly(Just(ControllerSpec::default()), controller_strategy()),
            mostly(
                prop_oneof![
                    Just(None),
                    Just(Some(SweepSpec {
                        axes: vec![SweepAxis::Policy(vec![
                            Policy::FullPerfIso,
                            Policy::Blind { buffer_cores: 8 },
                        ])],
                    })),
                ],
                sweep_strategy(),
            ),
        ),
        (
            mostly(Just(ScaleSpec::Quick), scale_strategy()),
            any::<u64>(),
            mostly(1u32..4, 0u32..4),
            mostly(Just(FaultSpec::default()), fault_strategy()),
            prop_oneof![Just(TelemetrySpec::Exact), Just(TelemetrySpec::Sketch)],
        ),
        mostly(Just(ResilienceSpec::default()), resilience_strategy()),
    )
        .prop_map(
            |(
                (name, target, workload, secondary),
                (policy, controller, sweep),
                (scale, seed, seeds, fault, telemetry),
                resilience,
            )| {
                ScenarioSpec {
                    name,
                    description: "generated by proptest".into(),
                    target,
                    workload,
                    secondary,
                    policy,
                    controller,
                    sweep,
                    scale,
                    seed,
                    seeds,
                    fault,
                    telemetry,
                    resilience,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `validate()` must classify every generated spec — valid or broken
    /// — with `Ok`/`Err`, never a panic; everything it accepts must
    /// resolve its window and controller without overflowing the clock
    /// and survive a JSON round trip unchanged.
    #[test]
    fn prop_validate_never_panics_and_valid_specs_round_trip(spec in spec_strategy()) {
        match spec.validate() {
            Ok(()) => {
                let scale = spec.run_scale();
                prop_assert!(scale.warmup + scale.measure > scale.warmup);
                let _ = spec.effective_perfiso();
                let text = spec.to_json();
                let back = ScenarioSpec::from_json(&text)
                    .expect("a valid spec's JSON must load back");
                prop_assert_eq!(back, spec);
            }
            Err(e) => {
                // Errors must render (no panicking Display impls).
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Fault timelines grafted onto a valid chaos scenario: `validate()`
    /// classifies each without panicking, and every timeline it accepts
    /// compiles into a box configuration without overflowing the clock.
    #[test]
    fn prop_accepted_fault_timelines_compile(fault in fault_strategy()) {
        let mut spec = scenarios::spec::named("chaos-controller-crash").expect("registered");
        spec.fault = fault;
        match spec.validate() {
            Ok(()) => {
                let cfg = spec.box_config(spec.seed).expect("a validated spec builds a box");
                prop_assert_eq!(cfg.fault.is_some(), !spec.fault.is_empty());
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// `check_shape()` must classify every generated graph — including
    /// empty graphs, cycles, and dangling edges — with `Ok`/`Err`, never
    /// a panic; accepted graphs must convert to an executable workload
    /// and round-trip through JSON bit-identically.
    #[test]
    fn prop_graph_check_shape_never_panics_and_valid_graphs_round_trip(
        graph in graph_strategy()
    ) {
        match graph.check_shape() {
            Ok(()) => {
                let wl = graph.to_workload().expect("accepted graph converts");
                prop_assert_eq!(wl.stages.len(), graph.stages.len());
                let text = serde_json::to_string(&graph).expect("serializes");
                let back: ServiceGraphSpec =
                    serde_json::from_str(&text).expect("parses back");
                prop_assert_eq!(&back, &graph);
                // Bit-identical: re-serializing reproduces the same bytes.
                prop_assert_eq!(
                    serde_json::to_string(&back).expect("serializes"),
                    text
                );
            }
            Err(e) => prop_assert!(!e.is_empty(), "error must describe the defect"),
        }
    }

    /// `scaled()` classifies every generated spec and multiplier — any
    /// `f64`, the non-finite, non-positive and clock-overflowing ones
    /// included — with `Ok`/`Err`, never a panic; every spec it returns
    /// validates and has an explicit run length.
    #[test]
    fn prop_scaled_never_panics_and_scaled_specs_validate(
        spec in spec_strategy(),
        factor in prop_oneof![
            any::<f64>(),
            0.001f64..8.0,
            Just(0.0),
            Just(-1.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(1e12),
        ],
    ) {
        match spec.scaled(factor) {
            Ok(scaled) => {
                prop_assert!(scaled.validate().is_ok());
                prop_assert!(scaled.scale != ScaleSpec::Bench);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Registry scenarios with one part grafted on: `validate()` classifies
    /// each without panicking, and every spec it accepts round-trips
    /// through JSON unchanged, builds its target, and expands its sweep
    /// (if any) into valid cells.
    #[test]
    fn prop_grafted_registry_scenarios_round_trip_and_build(spec in grafted_strategy()) {
        match spec.validate() {
            Ok(()) => {
                let back = ScenarioSpec::from_json(&spec.to_json())
                    .expect("a valid spec's JSON must load back");
                prop_assert_eq!(&back, &spec);
                if let Err(e) = build_target(&spec) {
                    panic!("{} validated but does not build: {e}", spec.name);
                }
                if spec.sweep.is_some() {
                    for cell in spec.expand_sweep().expect("validated sweep expands") {
                        prop_assert!(cell.spec.validate().is_ok());
                    }
                }
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Sweep expansion of accepted specs yields only valid, sweep-free
    /// cells, exactly `cell_count()` of them.
    #[test]
    fn prop_accepted_sweeps_expand_to_valid_cells(spec in spec_strategy()) {
        if spec.validate().is_ok() && spec.sweep.is_some() {
            let cells = spec.expand_sweep().expect("validated sweep expands");
            prop_assert_eq!(cells.len(), spec.sweep.as_ref().unwrap().cell_count());
            for cell in cells {
                prop_assert!(cell.spec.sweep.is_none());
                prop_assert!(cell.spec.validate().is_ok());
            }
        }
    }
}

/// The properties above check the window, controller and JSON round
/// trip only on the specs `validate` accepts, and expand only accepted
/// sweeps. Over the same 256 cases, at least 1 in 8 specs must validate
/// and at least one of them must carry a sweep, or those checks never run.
#[test]
fn spec_strategy_reaches_the_accepting_branches() {
    let strategy = spec_strategy();
    let specs: Vec<ScenarioSpec> = (0..256)
        .map(|case| strategy.sample(&mut TestRng::for_case(case)))
        .collect();
    let valid: Vec<&ScenarioSpec> = specs.iter().filter(|s| s.validate().is_ok()).collect();
    assert!(
        valid.len() * 8 >= specs.len(),
        "{} of {} generated specs validate",
        valid.len(),
        specs.len()
    );
    assert!(
        valid.iter().any(|s| s.sweep.is_some()),
        "none of the {} accepted specs carries a sweep",
        valid.len()
    );
}

/// Over the grafted property's 256 cases, the specs `validate` accepts
/// cover every target class, a service-graph workload and a non-empty
/// fault timeline, so its round trip and builds reach each of them.
#[test]
fn grafted_strategy_reaches_every_target_class() {
    let strategy = grafted_strategy();
    let accepted: Vec<ScenarioSpec> = (0..256)
        .map(|case| strategy.sample(&mut TestRng::for_case(case)))
        .filter(|s| s.validate().is_ok())
        .collect();
    for kind in ["single-box", "multi-box", "cluster", "fleet"] {
        let n = accepted.iter().filter(|s| s.target.kind() == kind).count();
        assert!(n > 0, "no accepted {kind} spec among {}", accepted.len());
    }
    assert!(
        accepted
            .iter()
            .any(|s| matches!(s.workload, WorkloadSpec::ServiceGraph(_))),
        "no accepted graph workload"
    );
    assert!(
        accepted.iter().any(|s| !s.fault.is_empty()),
        "no accepted fault timeline"
    );
}

/// The issue's named bad inputs must be `Err` — never a panic and never
/// silently accepted.
#[test]
fn named_bad_inputs_are_rejected_without_panicking() {
    let base = || {
        let mut s = ScenarioSpec::builder("bad")
            .cpu_bully(BullyIntensity::Mid)
            .policy(Policy::Blind { buffer_cores: 8 })
            .build()
            .unwrap();
        s.controller = ControllerSpec::default();
        s
    };
    // Zero poll interval.
    let mut s = base();
    s.controller.cpu_poll_interval_us = Some(0);
    assert!(matches!(s.validate(), Err(SpecError::InvalidController(_))));
    // Watermark outside (0, 1].
    for w in [0.0, -0.2, 1.01, f64::NAN] {
        let mut s = base();
        s.controller.memory_kill_watermark = Some(w);
        assert!(
            matches!(s.validate(), Err(SpecError::InvalidController(_))),
            "watermark {w} accepted"
        );
    }
    // Buffer cores >= the machine's 48 logical cores.
    for b in [48, 64, u32::MAX] {
        let mut s = base();
        s.controller.buffer_cores = Some(b);
        assert!(
            matches!(s.validate(), Err(SpecError::InvalidController(_))),
            "buffer_cores {b} accepted"
        );
    }
    // Two roster working sets of 2^63 MB: their sum overflows `u64`.
    let mut s = scenarios::spec::named("dual-primary-arbitration").expect("registered");
    let TargetSpec::MultiBox { services } = &mut s.target else {
        panic!("dual-primary-arbitration is a multi-box roster");
    };
    for service in services.iter_mut() {
        service.working_set_mb = 1 << 63;
    }
    let err = s.validate().expect_err("overflowing roster accepted");
    assert!(
        matches!(&err, SpecError::InvalidWorkload(m) if m.contains("roster working sets")),
        "{err}"
    );
}

/// The canonical malformed graphs must be `Err` with a telling message —
/// never a panic, a hang (the cycle check is iterative), or acceptance.
#[test]
fn named_bad_graphs_are_rejected_without_panicking() {
    let stage = |name: &str| StageSpec {
        name: name.to_string(),
        fan_out: 2,
        compute_us: 100.0,
        sigma: 0.2,
        memory_mb: 128,
    };
    let edge = |from: &str, to: &str| EdgeSpec {
        from: from.to_string(),
        to: to.to_string(),
        bytes: 1_024,
        latency_us: 10,
    };
    // Empty graph.
    let empty = ServiceGraphSpec {
        stages: Vec::new(),
        edges: Vec::new(),
        timeout_ms: 10,
    };
    assert!(empty.check_shape().unwrap_err().contains("no stages"));
    // Two-stage cycle.
    let cycle = ServiceGraphSpec {
        stages: vec![stage("a"), stage("b")],
        edges: vec![edge("a", "b"), edge("b", "a")],
        timeout_ms: 10,
    };
    assert!(cycle.check_shape().unwrap_err().contains("cycle"));
    // Self-loop.
    let lasso = ServiceGraphSpec {
        stages: vec![stage("a")],
        edges: vec![edge("a", "a")],
        timeout_ms: 10,
    };
    assert!(lasso.check_shape().unwrap_err().contains("self-loop"));
    // Longer cycle threaded through a valid prefix.
    let ring = ServiceGraphSpec {
        stages: vec![stage("a"), stage("b"), stage("c"), stage("d")],
        edges: vec![
            edge("a", "b"),
            edge("b", "c"),
            edge("c", "d"),
            edge("d", "b"),
        ],
        timeout_ms: 10,
    };
    assert!(ring.check_shape().unwrap_err().contains("cycle"));
    // The registered chain with a deadline, a hop or a footprint past the
    // clock or `u64` bytes.
    let chain = || {
        let spec = scenarios::spec::named("graph-chain").expect("registered");
        let graph = spec.workload.as_graph().expect("graph workload").clone();
        (spec, graph)
    };
    let (mut s, mut g) = chain();
    g.timeout_ms = u64::MAX;
    s.workload = WorkloadSpec::ServiceGraph(g);
    let err = s.validate().expect_err("unbounded deadline accepted");
    assert!(
        matches!(&err, SpecError::InvalidWorkload(m) if m.contains("timeout_ms")),
        "{err}"
    );
    let (mut s, mut g) = chain();
    g.edges[0].latency_us = u64::MAX;
    s.workload = WorkloadSpec::ServiceGraph(g);
    let err = s.validate().expect_err("unbounded hop latency accepted");
    assert!(
        matches!(&err, SpecError::InvalidWorkload(m) if m.contains("latency_us")),
        "{err}"
    );
    let (mut s, mut g) = chain();
    for stage in &mut g.stages[..2] {
        stage.memory_mb = 1 << 63;
    }
    s.workload = WorkloadSpec::ServiceGraph(g);
    let err = s.validate().expect_err("overflowing working set accepted");
    assert!(
        matches!(&err, SpecError::InvalidWorkload(m) if m.contains("memory_mb")),
        "{err}"
    );
    // A valid spec embedding an invalid graph is rejected as a whole.
    let mut s = ScenarioSpec::builder("bad-graph").build().unwrap();
    s.workload = WorkloadSpec::ServiceGraph(cycle);
    assert!(matches!(s.validate(), Err(SpecError::InvalidWorkload(_))));
    // Graph workloads only run on single-box targets.
    let ok_graph = ServiceGraphSpec {
        stages: vec![stage("a"), stage("b")],
        edges: vec![edge("a", "b")],
        timeout_ms: 10,
    };
    assert!(ok_graph.check_shape().is_ok());
    let mut s = ScenarioSpec::builder("graph-on-cluster").build().unwrap();
    s.workload = WorkloadSpec::ServiceGraph(ok_graph);
    s.target = TargetSpec::Cluster {
        columns: 2,
        rows: 1,
        tlas: 1,
        qps_total: 500.0,
    };
    assert!(matches!(s.validate(), Err(SpecError::InvalidWorkload(_))));
    // Multi-box rosters must fit the machine's memory.
    let mut s = ScenarioSpec::builder("oversize").build().unwrap();
    s.target = TargetSpec::MultiBox {
        services: vec![
            ServiceLoadSpec {
                name: "web".into(),
                qps: 1_000.0,
                working_set_mb: 90_000,
            },
            ServiceLoadSpec {
                name: "ads".into(),
                qps: 1_000.0,
                working_set_mb: 90_000,
            },
        ],
    };
    assert!(matches!(s.validate(), Err(SpecError::InvalidWorkload(_))));
}

/// Cluster shapes the loop cannot encode — a machine count past `u32` or
/// more columns than a fabric message can address — must fail
/// `validate` with a labelled topology error, never a panic.
#[test]
fn oversized_cluster_topologies_are_rejected_without_panicking() {
    for (columns, rows, tlas) in [
        (u32::MAX, 1, 1),
        (65_537, 1, 1),
        (2, u32::MAX, 1),
        (u32::MAX, u32::MAX, u32::MAX),
    ] {
        let mut s = ScenarioSpec::builder("oversized-cluster").build().unwrap();
        s.target = TargetSpec::Cluster {
            columns,
            rows,
            tlas,
            qps_total: 500.0,
        };
        let err = s.validate().expect_err("oversized topology accepted");
        assert!(
            matches!(err, SpecError::InvalidTopology(_)),
            "{columns}x{rows}+{tlas}: {err}"
        );
        assert!(err.to_string().starts_with("invalid topology: "));
    }
}
