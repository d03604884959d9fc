//! The named paper scenarios.
//!
//! Every figure of the evaluation (and the repo's guided-tour scenarios)
//! is registered here as a ready-to-run [`ScenarioSpec`]; `perfiso-run
//! list` prints this table and `perfiso-run run <name>` executes one
//! entry. A figure's spec is its *headline* cell, and its sweep is the
//! figure's grid of loads, policies or secondary mixes:
//! `perfiso-run run fig05 --sweep` runs every cell of Fig 5, and `--out`
//! keeps each cell's full report.

use cluster::Topology;
use indexserve::SecondaryKind;
use workloads::{BullyIntensity, DiskBully};

use super::{
    AdmissionSpec, BreakerSpec, ControllerSpec, CurveSpec, EdgeSpec, FaultEvent,
    FleetProductionSpec, HedgeSpec, RestartSpec, RetrySpec, ScaleSpec, ScenarioSpec,
    ServiceGraphSpec, StageSpec, SweepAxis, TelemetrySpec,
};
use crate::Policy;

/// Stage-literal shorthand for the registry graphs.
fn stage(name: &str, fan_out: u32, compute_us: f64, sigma: f64, memory_mb: u64) -> StageSpec {
    StageSpec {
        name: name.to_string(),
        fan_out,
        compute_us,
        sigma,
        memory_mb,
    }
}

/// Edge-literal shorthand for the registry graphs.
fn edge(from: &str, to: &str, bytes: u64, latency_us: u64) -> EdgeSpec {
    EdgeSpec {
        from: from.to_string(),
        to: to.to_string(),
        bytes,
        latency_us,
    }
}

/// The four-stage microservice chain `graph-chain` serves: an
/// IndexServe-shaped pipeline expressed as explicit services connected
/// by fabric hops.
fn chain_graph() -> ServiceGraphSpec {
    ServiceGraphSpec {
        stages: vec![
            stage("gateway", 1, 150.0, 0.3, 2_048),
            stage("match", 8, 250.0, 0.4, 65_536),
            stage("rank", 4, 200.0, 0.35, 32_768),
            stage("respond", 1, 120.0, 0.25, 2_048),
        ],
        edges: vec![
            edge("gateway", "match", 16_384, 50),
            edge("match", "rank", 65_536, 80),
            edge("rank", "respond", 8_192, 40),
        ],
        timeout_ms: 25,
    }
}

/// The scatter-gather DAG `graph-fanout` serves: one root scattering to
/// four parallel shards, gathered by a merge stage.
fn fanout_graph() -> ServiceGraphSpec {
    let shards = ["shard-0", "shard-1", "shard-2", "shard-3"];
    let mut stages = vec![stage("root", 1, 120.0, 0.25, 1_024)];
    let mut edges = Vec::new();
    for s in shards {
        stages.push(stage(s, 4, 300.0, 0.4, 16_384));
        edges.push(edge("root", s, 8_192, 40));
        edges.push(edge(s, "merge", 32_768, 60));
    }
    stages.push(stage("merge", 1, 150.0, 0.3, 2_048));
    ServiceGraphSpec {
        stages,
        edges,
        timeout_ms: 25,
    }
}

/// The paper's two single-box loads (§6.1): average and peak QPS.
fn paper_loads() -> SweepAxis {
    SweepAxis::Qps(vec![2_000.0, 4_000.0])
}

/// All named scenarios, in presentation order.
pub fn registry() -> Vec<ScenarioSpec> {
    let b = |name: &str| ScenarioSpec::builder(name).seed(42);
    let hdfs_with = |s: SecondaryKind| SecondaryKind { hdfs: true, ..s };
    vec![
        b("quickstart")
            .describe("high CPU bully under blind isolation (the guided tour)")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .custom_scale(500, 4_000)
            .build()
            .expect("registry spec"),
        b("standalone")
            .describe("IndexServe alone at average load (the §6.1.1 baseline)")
            .single_box(2_000.0)
            .policy(Policy::Standalone)
            .sweep_axis(paper_loads())
            .scale(ScaleSpec::Bench)
            .build()
            .expect("registry spec"),
        b("fig04")
            .describe("no isolation vs a high (48-thread) CPU bully: the tail collapses")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::NoIsolation)
            .sweep_axis(SweepAxis::Secondary(vec![
                SecondaryKind::cpu(BullyIntensity::Mid),
                SecondaryKind::cpu(BullyIntensity::High),
            ]))
            .sweep_axis(paper_loads())
            .scale(ScaleSpec::Bench)
            .build()
            .expect("registry spec"),
        b("fig05")
            .describe("CPU blind isolation, 8 buffer cores: p99 within 1 ms of standalone")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .sweep_axis(SweepAxis::BufferCores(vec![2, 4, 8, 12, 16]))
            .sweep_axis(paper_loads())
            .scale(ScaleSpec::Bench)
            .build()
            .expect("registry spec"),
        b("fig06")
            .describe("static 8-core restriction: safe at peak but strands CPU")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::StaticCores(8))
            .sweep_axis(SweepAxis::Policy(vec![
                Policy::StaticCores(24),
                Policy::StaticCores(16),
                Policy::StaticCores(8),
            ]))
            .sweep_axis(paper_loads())
            .scale(ScaleSpec::Bench)
            .build()
            .expect("registry spec"),
        b("fig07")
            .describe("45% CPU-cycle cap: duty-cycle throttling fails to protect the tail")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::CycleCap(0.45))
            .sweep_axis(SweepAxis::Policy(vec![
                Policy::CycleCap(0.45),
                Policy::CycleCap(0.25),
                Policy::CycleCap(0.05),
            ]))
            .sweep_axis(paper_loads())
            .scale(ScaleSpec::Bench)
            .build()
            .expect("registry spec"),
        b("fig08")
            .describe("the comparison's peak-load cell: blind isolation at 4000 QPS")
            .single_box(4_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .sweep_axis(SweepAxis::Policy(vec![
                Policy::NoIsolation,
                Policy::Blind { buffer_cores: 8 },
                Policy::StaticCores(8),
                Policy::CycleCap(0.05),
            ]))
            .sweep_axis(paper_loads())
            .scale(ScaleSpec::Bench)
            .build()
            .expect("registry spec"),
        b("fig09")
            .describe("75-machine cluster, CPU bully + HDFS on every index machine")
            .cluster(Topology::paper_cluster(), 8_000.0)
            .cpu_bully(BullyIntensity::High)
            .hdfs()
            .policy(Policy::FullPerfIso)
            .sweep_axis(SweepAxis::Secondary(vec![
                hdfs_with(SecondaryKind::none()),
                hdfs_with(SecondaryKind::cpu(BullyIntensity::High)),
                hdfs_with(SecondaryKind::disk(DiskBully::default())),
            ]))
            .custom_scale(400, 1_200)
            .seeds(2)
            .build()
            .expect("registry spec"),
        b("fig10")
            .describe("650-machine fleet, one diurnal hour colocated with ML training")
            .fleet(60, 3, 700)
            .policy(Policy::Blind { buffer_cores: 8 })
            .build()
            .expect("registry spec"),
        b("io-throttle")
            .describe("disk bully + HDFS on the shared HDD under the full controller")
            .single_box(2_000.0)
            .disk_bully(DiskBully {
                depth: 8,
                ..DiskBully::default()
            })
            .hdfs()
            .policy(Policy::FullPerfIso)
            .custom_scale(500, 3_000)
            .build()
            .expect("registry spec"),
        b("cluster-small")
            .describe("the scaled-down cluster the integration tests exercise")
            .cluster(Topology::small(), 600.0)
            .cpu_bully(BullyIntensity::High)
            .hdfs()
            .policy(Policy::FullPerfIso)
            .custom_scale(200, 800)
            .build()
            .expect("registry spec"),
        b("fleet-smoke")
            .describe("seconds-scale fleet sweep (the CI smoke configuration)")
            .fleet(8, 2, 200)
            .policy(Policy::Blind { buffer_cores: 8 })
            .build()
            .expect("registry spec"),
        b("fleet-flat")
            .describe("fleet control run on a flat load curve")
            .fleet(10, 1, 300)
            .curve(CurveSpec::Flat { qps: 2_200.0 })
            .policy(Policy::Blind { buffer_cores: 8 })
            .build()
            .expect("registry spec"),
        b("fleet-production")
            .describe("10k-machine production day: diurnal 24h curve, mixed hardware, tenant churn, sketch telemetry")
            .fleet(96, 12, 300)
            .fleet_machines(10_000)
            .curve(CurveSpec::ProductionDay)
            .production(FleetProductionSpec {
                minute_stride: 15,
                heterogeneous_shapes: true,
                tenant_churn: true,
            })
            .telemetry(TelemetrySpec::Sketch)
            .policy(Policy::Blind { buffer_cores: 8 })
            .scale(ScaleSpec::Bench)
            .build()
            .expect("registry spec"),
        b("poll-sensitivity")
            .describe("reaction-time grid: CPU poll interval x buffer cores under a high bully")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .sweep_axis(SweepAxis::CpuPollIntervalUs(vec![
                1_000, 5_000, 20_000, 100_000,
            ]))
            .sweep_axis(SweepAxis::BufferCores(vec![1, 2, 4]))
            .custom_scale(300, 1_200)
            .build()
            .expect("registry spec"),
        b("mem-kill")
            .describe("memory watchdog grid: kill watermark x watchdog period around the box's ~92% footprint")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::Mid)
            .policy(Policy::Blind { buffer_cores: 8 })
            .sweep_axis(SweepAxis::MemoryKillWatermark(vec![0.85, 0.95]))
            .sweep_axis(SweepAxis::MemoryPollIntervalUs(vec![250_000, 1_000_000]))
            .custom_scale(300, 1_500)
            .build()
            .expect("registry spec"),
        b("tenant-io-limits")
            .describe("per-tenant HDFS I/O caps under the full controller, disk bully on the shared HDD")
            .single_box(2_000.0)
            .disk_bully(DiskBully::default())
            .hdfs()
            .policy(Policy::FullPerfIso)
            .sweep_axis(SweepAxis::TenantIoMbps {
                service: "hdfs-client".into(),
                mbps: vec![10, 60, 240],
            })
            .sweep_axis(SweepAxis::TenantIoMbps {
                service: "hdfs-replication".into(),
                mbps: vec![5, 20],
            })
            .custom_scale(300, 1_500)
            .build()
            .expect("registry spec"),
        b("chaos-controller-crash")
            .describe("§4.2 recovery: kill the controller mid-run, Autopilot restarts it from checkpoint")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::FullPerfIso)
            .fault_event(FaultEvent::ControllerCrash {
                at_ms: 500,
                downtime_polls: 150,
            })
            .restart(RestartSpec {
                base_backoff_ms: 50,
                multiplier: 2,
                max_failures: 5,
            })
            .custom_scale(300, 1_500)
            .build()
            .expect("registry spec"),
        b("chaos-crash-loop")
            .describe("crash-looping controller: exponential backoff, then Autopilot gives up")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::FullPerfIso)
            .fault_event(FaultEvent::ControllerCrash {
                at_ms: 400,
                downtime_polls: 50,
            })
            .fault_event(FaultEvent::ControllerCrash {
                at_ms: 550,
                downtime_polls: 50,
            })
            .fault_event(FaultEvent::ControllerCrash {
                at_ms: 800,
                downtime_polls: 50,
            })
            .restart(RestartSpec {
                base_backoff_ms: 100,
                multiplier: 2,
                max_failures: 2,
            })
            .custom_scale(300, 1_200)
            .build()
            .expect("registry spec"),
        b("chaos-config-rollout")
            .describe("staged config rollouts through the versioned store: one accepted, one rolled back by the tail-latency watchdog")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::FullPerfIso)
            .fault_event(FaultEvent::ConfigRollout {
                at_ms: 500,
                key: "perfiso-poll".into(),
                doc: ControllerSpec {
                    cpu_poll_interval_us: Some(2_000),
                    ..Default::default()
                },
                staged_pct: 100,
                rollback_p99_ms: None,
            })
            .fault_event(FaultEvent::ConfigRollout {
                at_ms: 900,
                key: "perfiso-slow".into(),
                doc: ControllerSpec {
                    cpu_poll_interval_us: Some(100_000),
                    ..Default::default()
                },
                staged_pct: 100,
                rollback_p99_ms: Some(10),
            })
            .custom_scale(300, 1_500)
            .build()
            .expect("registry spec"),
        b("chaos-secondary-churn")
            .describe("secondary crash/respawn churn under blind isolation")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .fault_event(FaultEvent::SecondaryRestart {
                at_ms: 500,
                downtime_ms: 150,
            })
            .fault_event(FaultEvent::SecondaryRestart {
                at_ms: 900,
                downtime_ms: 150,
            })
            .restart(RestartSpec {
                base_backoff_ms: 50,
                multiplier: 2,
                max_failures: 5,
            })
            .custom_scale(300, 1_200)
            .build()
            .expect("registry spec"),
        b("chaos-churn-storm")
            .describe("rapid secondary kill/respawn storm: five churn cycles in half a second under blind isolation")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .fault_event(FaultEvent::ChurnStorm {
                at_ms: 400,
                cycles: 5,
                period_ms: 100,
                downtime_ms: 40,
            })
            .restart(RestartSpec {
                base_backoff_ms: 20,
                multiplier: 2,
                max_failures: 8,
            })
            .custom_scale(300, 1_200)
            .build()
            .expect("registry spec"),
        b("chaos-connection-flood")
            .describe("arrival flood (+3000 qps for 300 ms) absorbed by admission control: excess is shed, admitted tail survives")
            .single_box(2_000.0)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .fault_event(FaultEvent::ConnectionFlood {
                at_ms: 400,
                duration_ms: 300,
                extra_qps: 10_000,
            })
            .resilient(|r| {
                r.admission = Some(AdmissionSpec {
                    max_in_flight: 32,
                    queue_depth: 8,
                })
            })
            .custom_scale(300, 1_200)
            .build()
            .expect("registry spec"),
        b("chaos-quota-exhaustion")
            .describe("HDFS client blows its I/O quota (ops x4 for 400 ms); per-tenant caps hold the primary's tail")
            .single_box(2_000.0)
            .disk_bully(DiskBully::default())
            .hdfs()
            .policy(Policy::FullPerfIso)
            .fault_event(FaultEvent::QuotaExhaustion {
                at_ms: 400,
                duration_ms: 400,
                tenant: "hdfs-client".into(),
                multiplier: 4.0,
            })
            .custom_scale(300, 1_500)
            .build()
            .expect("registry spec"),
        b("graph-hedged")
            .describe("scatter-gather graph with the full resilience policy: hedged stragglers, retries, breakers, deadline propagation")
            .single_box(1_000.0)
            .graph(fanout_graph())
            .policy(Policy::Standalone)
            .resilient(|r| {
                r.retry = Some(RetrySpec {
                    base_backoff_ms: 2,
                    multiplier: 2,
                    budget: 2,
                    jitter_ms: 1,
                });
                r.hedge = Some(HedgeSpec { percentile: 0.9 });
                r.breaker = Some(BreakerSpec {
                    threshold: 8,
                    cooldown_ms: 100,
                });
                r.propagate_deadlines = true;
            })
            .custom_scale(400, 1_600)
            .build()
            .expect("registry spec"),
        b("graph-chain")
            .describe("four-stage microservice chain under a high CPU bully, blind isolation")
            .single_box(1_500.0)
            .graph(chain_graph())
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .custom_scale(400, 1_600)
            .build()
            .expect("registry spec"),
        b("graph-fanout")
            .describe("scatter-gather service graph (root, 4 shards, merge) running standalone")
            .single_box(1_000.0)
            .graph(fanout_graph())
            .policy(Policy::Standalone)
            .custom_scale(400, 1_600)
            .build()
            .expect("registry spec"),
        b("dual-primary-arbitration")
            .describe("two latency-sensitive services share one box; PerfIso arbitrates both tails against a high bully")
            .hosted_service("web", 1_800.0, 53_248)
            .hosted_service("ads", 1_200.0, 40_960)
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .custom_scale(400, 1_600)
            .build()
            .expect("registry spec"),
    ]
}

/// All scenario names, in presentation order.
pub fn names() -> Vec<String> {
    registry().into_iter().map(|s| s.name).collect()
}

/// Resolves one named scenario.
///
/// # Errors
///
/// Fails when no scenario has this name.
pub fn named(name: &str) -> Result<ScenarioSpec, super::SpecError> {
    registry()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| super::SpecError::UnknownScenario(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_valid() {
        let all = registry();
        assert!(all.len() >= 8, "need at least 8 named scenarios");
        for spec in &all {
            spec.validate().expect("registry spec validates");
            assert!(
                !spec.description.is_empty(),
                "{} lacks a description",
                spec.name
            );
        }
        let names: std::collections::HashSet<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "names must be unique");
        for figure in [
            "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
        ] {
            assert!(named(figure).is_ok(), "{figure} missing");
        }
        for chaos in [
            "chaos-controller-crash",
            "chaos-crash-loop",
            "chaos-config-rollout",
            "chaos-secondary-churn",
            "chaos-churn-storm",
            "chaos-connection-flood",
            "chaos-quota-exhaustion",
        ] {
            let spec = named(chaos).unwrap_or_else(|_| panic!("{chaos} missing"));
            assert!(!spec.fault.is_empty(), "{chaos} should inject faults");
        }
        let flood = named("chaos-connection-flood").expect("flood missing");
        assert!(
            flood.resilience.admission.is_some(),
            "the flood scenario sheds through admission control"
        );
        let hedged = named("graph-hedged").expect("graph-hedged missing");
        assert!(
            hedged.resilience.hedge.is_some() && hedged.resilience.propagate_deadlines,
            "graph-hedged runs the full resilience policy"
        );
        assert_eq!(hedged.workload.class_label(), "service-graph");
        for sweep in [
            "standalone",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "poll-sensitivity",
            "mem-kill",
            "tenant-io-limits",
        ] {
            let spec = named(sweep).unwrap_or_else(|_| panic!("{sweep} missing"));
            let cells = spec.expand_sweep().expect("sweep expands");
            assert!(cells.len() >= 2, "{sweep} should be a real grid");
        }
        // Fig 5 contrasts 4 with 8 buffer cores at both loads.
        let fig05 = named("fig05").unwrap().expand_sweep().unwrap();
        for b in [4, 8] {
            for qps in [2_000.0, 4_000.0] {
                assert!(
                    fig05
                        .iter()
                        .any(|c| c.spec.controller.buffer_cores == Some(b)
                            && c.spec.target == super::super::TargetSpec::SingleBox { qps }),
                    "fig05 lacks B={b} at {qps} qps"
                );
            }
        }
        for graph in ["graph-chain", "graph-fanout"] {
            let spec = named(graph).unwrap_or_else(|_| panic!("{graph} missing"));
            assert_eq!(spec.workload.class_label(), "service-graph", "{graph}");
            spec.workload
                .as_graph()
                .expect("graph workload")
                .check_shape()
                .expect("registered graph is well-formed");
        }
        let prod = named("fleet-production").expect("fleet-production missing");
        assert_eq!(prod.telemetry, TelemetrySpec::Sketch);
        match &prod.target {
            super::super::TargetSpec::Fleet {
                fleet_machines,
                sampled_machines,
                minutes,
                production,
                ..
            } => {
                let p = production.expect("production extensions on");
                assert!(p.heterogeneous_shapes && p.tenant_churn);
                assert_eq!(minutes * p.minute_stride, 1_440, "covers a full 24h day");
                assert!(
                    minutes * sampled_machines >= 1_000,
                    "production run simulates at least 1000 boxes"
                );
                assert!(*fleet_machines >= 1_000);
            }
            other => panic!("fleet-production should be a fleet, got {}", other.kind()),
        }
        let dual = named("dual-primary-arbitration").expect("dual-primary missing");
        match &dual.target {
            super::super::TargetSpec::MultiBox { services } => {
                assert_eq!(services.len(), 2, "two colocated primaries");
            }
            other => panic!("dual-primary should be multi-box, got {}", other.kind()),
        }
        assert!(matches!(
            named("no-such-scenario"),
            Err(super::super::SpecError::UnknownScenario(_))
        ));
    }
}
