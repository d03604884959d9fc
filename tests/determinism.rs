//! Reproducibility: every simulation in the workspace is deterministic in
//! its seed, distinct seeds genuinely decorrelate runs, and parallel
//! execution — the fleet slice sweep and the spec runner's multi-seed
//! fan-out — is bit-identical to serial execution.

use cluster::fleet::FleetReport;
use indexserve::BoxReport;
use proptest::prelude::*;
use scenarios::spec::{self, run_spec, RunOptions, ScenarioSpec};
use scenarios::Policy;
use simcore::SimDuration;
use telemetry::Sketch;
use workloads::BullyIntensity;

/// Runs one 2 000 QPS single-box cell on a 200 + 600 ms window; any policy
/// but standalone faces the 48-thread CPU bully.
fn tiny(policy: Policy, seed: u64) -> BoxReport {
    let mut b = ScenarioSpec::builder("det-box")
        .single_box(2_000.0)
        .policy(policy)
        .custom_scale(200, 600)
        .seed(seed);
    if policy != Policy::Standalone {
        b = b.cpu_bully(BullyIntensity::High);
    }
    let report = run_spec(&b.build().expect("valid spec"), &RunOptions::serial()).expect("runs");
    report.box_reports()[0].clone()
}

#[test]
fn identical_seeds_identical_reports() {
    let a = tiny(Policy::Standalone, 1234);
    let b = tiny(Policy::Standalone, 1234);
    assert_eq!(a.latency.p50, b.latency.p50);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert_eq!(a.latency.count, b.latency.count);
    assert_eq!(a.breakdown.primary, b.breakdown.primary);
    assert_eq!(a.breakdown.idle, b.breakdown.idle);
    assert_eq!(a.machine.dispatches, b.machine.dispatches);
}

#[test]
fn identical_seeds_identical_controller_decisions() {
    let a = tiny(Policy::Blind { buffer_cores: 8 }, 77);
    let b = tiny(Policy::Blind { buffer_cores: 8 }, 77);
    let (sa, sb) = (a.controller.expect("ran"), b.controller.expect("ran"));
    assert_eq!(sa.cpu_polls, sb.cpu_polls);
    assert_eq!(sa.affinity_updates, sb.affinity_updates);
    assert_eq!(a.secondary_cpu, b.secondary_cpu);
}

#[test]
fn different_seeds_decorrelate() {
    let a = tiny(Policy::Standalone, 1);
    let b = tiny(Policy::Standalone, 2);
    // Same bands, different samples.
    assert_ne!(
        (a.latency.p50, a.latency.p99, a.breakdown.primary),
        (b.latency.p50, b.latency.p99, b.breakdown.primary),
        "distinct seeds must not produce identical runs"
    );
}

fn assert_fleet_reports_identical(serial: &FleetReport, parallel: &FleetReport) {
    assert!(
        serial.bits_eq(parallel),
        "parallel fleet report diverged from serial"
    );
}

/// The parallel fleet sweep must be bit-identical to the serial one: the
/// report numbers may not differ in a single ULP across thread counts.
/// Both runs go through the spec API; a single-seed run hands the thread
/// knob down to the fleet driver's slice sweep.
#[test]
fn fleet_parallel_equals_serial() {
    let spec = ScenarioSpec::builder("det-fleet")
        .fleet(5, 2, 200)
        .policy(Policy::Blind { buffer_cores: 8 })
        .seed(99)
        .build()
        .expect("valid spec");
    let serial = run_spec(&spec, &RunOptions::serial()).expect("runnable");
    let parallel = run_spec(&spec, &RunOptions::parallel(None)).expect("runnable");
    assert_fleet_reports_identical(
        serial.runs[0].as_fleet().expect("fleet"),
        parallel.runs[0].as_fleet().expect("fleet"),
    );
}

/// The spec runner's multi-seed fan-out must also be bit-identical to its
/// serial reduction, per seed and in the cross-seed statistics.
#[test]
fn multi_seed_sweep_parallel_equals_serial() {
    let spec = ScenarioSpec::builder("det-seeds")
        .single_box(1_500.0)
        .cpu_bully(BullyIntensity::High)
        .policy(Policy::Blind { buffer_cores: 8 })
        .custom_scale(200, 500)
        .seed(31)
        .seeds(6)
        .build()
        .expect("valid spec");
    let serial = run_spec(&spec, &RunOptions::serial()).expect("runnable");
    let parallel = run_spec(
        &spec,
        &RunOptions {
            seeds: None,
            threads: 4,
        },
    )
    .expect("runnable");
    assert_eq!(serial.seeds, parallel.seeds);
    for (i, (a, b)) in serial.runs.iter().zip(parallel.runs.iter()).enumerate() {
        let (a, b) = (
            a.as_single_box().expect("single box"),
            b.as_single_box().expect("single box"),
        );
        assert_eq!(a.latency.p50, b.latency.p50, "seed {i} p50");
        assert_eq!(a.latency.p99, b.latency.p99, "seed {i} p99");
        assert_eq!(a.latency.count, b.latency.count, "seed {i} count");
        assert_eq!(a.machine, b.machine, "seed {i} scheduler counters");
        assert_eq!(a.controller, b.controller, "seed {i} controller counters");
        assert_eq!(
            a.secondary_cpu, b.secondary_cpu,
            "seed {i} secondary progress"
        );
    }
    for (a, b) in serial
        .summary
        .p99_ms
        .values()
        .iter()
        .zip(parallel.summary.p99_ms.values())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "summary stats diverged");
    }
}

/// Fault injection must not cost determinism: a chaos scenario's full
/// report — fault timeline included — is bit-identical between the
/// serial runner and the multi-seed thread pool, and stable on rerun.
/// Fault firing is pure simulation time (no wall clock, no extra RNG
/// draws), so the JSON reports must match byte for byte.
#[test]
fn chaos_parallel_equals_serial() {
    let mut spec = spec::named("chaos-controller-crash").expect("registered scenario");
    spec.seeds = 4; // fan out so the parallel runner actually engages
    let serial = run_spec(&spec, &RunOptions::serial()).expect("runnable");
    let parallel = run_spec(
        &spec,
        &RunOptions {
            seeds: None,
            threads: 8,
        },
    )
    .expect("runnable");
    let rerun = run_spec(&spec, &RunOptions::serial()).expect("runnable");

    for run in &serial.runs {
        let r = run.as_single_box().expect("single box");
        assert!(!r.faults.is_empty(), "every seed executes the fault plan");
    }
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "chaos report diverged across thread counts"
    );
    assert_eq!(
        serial.to_json(),
        rerun.to_json(),
        "chaos report unstable across reruns"
    );
}

/// The overload chaos storms — churn storm, connection flood, quota
/// exhaustion — layer resilience machinery (admission control, retry
/// backoff, breaker timers) on top of fault injection, and none of it
/// may cost determinism: each scenario's full JSON report, resilience
/// counters included, is byte-identical between the serial runner, an
/// 8-thread seed fan-out, and a fresh rerun.
#[test]
fn chaos_storms_parallel_equal_serial_and_rerun() {
    for name in [
        "chaos-churn-storm",
        "chaos-connection-flood",
        "chaos-quota-exhaustion",
    ] {
        let mut spec = spec::named(name).expect("registered scenario");
        spec.seeds = 4; // fan out so the parallel runner actually engages
        let serial = run_spec(&spec, &RunOptions::serial()).expect("runnable");
        let parallel = run_spec(
            &spec,
            &RunOptions {
                seeds: None,
                threads: 8,
            },
        )
        .expect("runnable");
        let rerun = run_spec(&spec, &RunOptions::serial()).expect("runnable");

        for run in &serial.runs {
            let r = run.as_single_box().expect("single box");
            assert!(!r.faults.is_empty(), "{name}: fault plan executed");
        }
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "{name}: report diverged across thread counts"
        );
        assert_eq!(
            serial.to_json(),
            rerun.to_json(),
            "{name}: report unstable across reruns"
        );
    }
}

/// Multi-service boxes must be as deterministic as classic ones: for the
/// service-graph scenarios and the dual-primary roster, the full JSON
/// report — per-service breakdowns included — is byte-identical between
/// the serial runner, an 8-thread seed fan-out, and a fresh rerun.
#[test]
fn multi_service_parallel_equals_serial_and_rerun() {
    for name in ["graph-chain", "graph-fanout", "dual-primary-arbitration"] {
        let mut spec = spec::named(name).expect("registered scenario");
        spec.scale = spec::ScaleSpec::Custom {
            warmup_ms: 150,
            measure_ms: 400,
        };
        spec.seeds = 4; // fan out so the parallel runner actually engages
        let serial = run_spec(&spec, &RunOptions::serial()).expect("runnable");
        let parallel = run_spec(
            &spec,
            &RunOptions {
                seeds: None,
                threads: 8,
            },
        )
        .expect("runnable");
        let rerun = run_spec(&spec, &RunOptions::serial()).expect("runnable");

        for run in &serial.runs {
            let r = run.as_single_box().expect("single box");
            assert!(
                !r.services.is_empty(),
                "{name}: multi-service runs report per-service rows"
            );
            for svc in &r.services {
                assert!(svc.latency.count > 0, "{name}/{}: no completions", svc.name);
            }
        }
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "{name}: report diverged across thread counts"
        );
        assert_eq!(
            serial.to_json(),
            rerun.to_json(),
            "{name}: report unstable across reruns"
        );
    }
}

/// The production fleet scenario — diurnal stride, heterogeneous box
/// shapes, tenant churn, and sketch telemetry all at once — must keep the
/// bit-identity guarantee: the full JSON report (merged sketch summary
/// included) is byte-identical between the serial slice sweep, an
/// 8-thread sweep, and a fresh rerun. Shrunk dimensions keep this CI-fast
/// while still exercising every production code path.
#[test]
fn fleet_production_parallel_equals_serial_and_rerun() {
    let mut spec = spec::named("fleet-production").expect("registered scenario");
    if let spec::TargetSpec::Fleet {
        sampled_machines,
        minutes,
        slice_ms,
        ..
    } = &mut spec.target
    {
        *sampled_machines = 3;
        *minutes = 8;
        *slice_ms = 120;
    }
    spec.validate().expect("shrunk spec stays valid");
    let serial = run_spec(&spec, &RunOptions::serial()).expect("runnable");
    let parallel = run_spec(
        &spec,
        &RunOptions {
            seeds: None,
            threads: 8,
        },
    )
    .expect("runnable");
    let rerun = run_spec(&spec, &RunOptions::serial()).expect("runnable");

    let report = serial.runs[0].as_fleet().expect("fleet");
    let sketch = report
        .latency_sketch
        .as_ref()
        .expect("sketch telemetry produces a merged summary");
    assert!(sketch.count > 0, "merged sketch saw traffic");
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "fleet-production report diverged across thread counts"
    );
    assert_eq!(
        serial.to_json(),
        rerun.to_json(),
        "fleet-production report unstable across reruns"
    );
}

/// The cluster's lookahead loop is deterministic in its seed: two runs of
/// the same spec serialize to the same bytes. No golden fixture covers a
/// chaos cluster, so the second spec keeps every box busy with a CPU
/// bully and fires a chaos timeline (controller crash, then a box
/// restart) inside the measured window.
#[test]
fn cluster_rerun_is_identical() {
    use cluster::Topology;
    use scenarios::spec::FaultEvent;

    let plain = ScenarioSpec::builder("det-cluster")
        .cluster(Topology::small(), 400.0)
        .policy(Policy::FullPerfIso)
        .custom_scale(150, 450)
        .seed(21)
        .build()
        .expect("valid spec");
    let chaos = ScenarioSpec::builder("det-cluster-chaos")
        .cluster(Topology::small(), 400.0)
        .policy(Policy::FullPerfIso)
        .cpu_bully(BullyIntensity::Mid)
        .fault_event(FaultEvent::ControllerCrash {
            at_ms: 250,
            downtime_polls: 4,
        })
        .fault_event(FaultEvent::BoxRestart {
            at_ms: 350,
            downtime_ms: 30,
        })
        .custom_scale(150, 450)
        .seed(33)
        .build()
        .expect("valid spec");

    for spec in [plain, chaos] {
        let first = spec.cluster_sim(spec.seed).expect("cluster").run();
        let rerun = spec.cluster_sim(spec.seed).expect("cluster").run();

        assert_eq!(
            first.faults.is_empty(),
            spec.fault.is_empty(),
            "{}: the fault timeline must fire exactly when one is set",
            spec.name
        );
        assert_eq!(
            serde_json::to_string(&first).expect("serializes"),
            serde_json::to_string(&rerun).expect("serializes"),
            "{}: cluster report unstable across reruns",
            spec.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tree-merging per-part sketches equals recording every sample into
    /// one sketch — the reduction `run_fleet` applies to its slices'
    /// sketches, checked here at the workspace level over arbitrary splits.
    #[test]
    fn prop_sketch_merge_equals_single(
        vals in proptest::collection::vec(1u64..50_000_000_000u64, 1..300),
        pieces in 1usize..6,
        drops in 0u64..5,
    ) {
        let mut whole = Sketch::new();
        let mut parts: Vec<Sketch> = (0..pieces).map(|_| Sketch::new()).collect();
        for (i, &v) in vals.iter().enumerate() {
            whole.record(SimDuration::from_nanos(v));
            parts[i % pieces].record(SimDuration::from_nanos(v));
        }
        for d in 0..drops {
            whole.record_dropped();
            parts[d as usize % pieces].record_dropped();
        }
        let merged = Sketch::merge_tree(parts).expect("at least one part");
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.dropped(), whole.dropped());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(merged.percentile(q), whole.percentile(q));
        }
    }
}
