//! Cluster-level integration tests (Fig 3 topology, Fig 9 behaviour) on a
//! scaled-down TLA/MLA/IndexServe cluster, each cell described by a
//! declarative [`scenarios::spec::ScenarioSpec`].

use cluster::{ClusterReport, Topology};
use scenarios::spec::{run_spec, RunOptions, ScenarioBuilder, ScenarioSpec};
use scenarios::Policy;
use simcore::SimDuration;
use workloads::BullyIntensity;

fn small(name: &str, seed: u64) -> ScenarioBuilder {
    ScenarioSpec::builder(name)
        .cluster(Topology::small(), 600.0)
        .policy(Policy::FullPerfIso)
        .custom_scale(200, 800)
        .seed(seed)
}

fn run(builder: ScenarioBuilder) -> ClusterReport {
    let spec = builder.build().expect("valid spec");
    // The default options: one seed runs inline, and the cluster itself
    // always runs on one thread.
    let report = run_spec(&spec, &RunOptions::parallel(None)).expect("runnable spec");
    report.runs[0].as_cluster().expect("cluster target").clone()
}

#[test]
fn layers_aggregate_in_order() {
    // A request is measured at the local IndexServe, the MLA, and the TLA;
    // each layer's latency must dominate the one below (Fig 9's structure).
    let r = run(small("base", 3));
    assert!(r.completed > 300, "completed {}", r.completed);
    assert_eq!(r.degraded, 0);
    assert!(
        r.local.avg <= r.mla.avg,
        "local {} vs mla {}",
        r.local.avg,
        r.mla.avg
    );
    assert!(
        r.mla.avg <= r.tla.avg,
        "mla {} vs tla {}",
        r.mla.avg,
        r.tla.avg
    );
    assert!(r.local.count > 0 && r.mla.count > 0 && r.tla.count > 0);
}

#[test]
fn cpu_bound_secondary_stays_within_band_under_perfiso() {
    // Fig 9b: per-layer p99 deltas vs the baseline stay within ~1 ms.
    let base = run(small("base", 5));
    let colo = run(small("colo", 5).cpu_bully(BullyIntensity::High).hdfs());
    for (name, b, c) in [
        ("local", &base.local, &colo.local),
        ("mla", &base.mla, &colo.mla),
        ("tla", &base.tla, &colo.tla),
    ] {
        let d = c.p99.saturating_sub(b.p99);
        assert!(
            d < SimDuration::from_millis(3),
            "{name} p99 degradation {d} (colo {} base {})",
            c.p99,
            b.p99
        );
    }
    assert!(
        colo.mean_utilization > base.mean_utilization + 0.2,
        "colocation must lift utilization: {} -> {}",
        base.mean_utilization,
        colo.mean_utilization
    );
}

#[test]
fn disk_bound_secondary_stays_within_band_under_perfiso() {
    // Fig 9c: the DiskSPD-style bully on the shared HDD volume.
    let base = run(small("base", 7));
    let colo = run(small("colo", 7)
        .disk_bully(workloads::DiskBully::default())
        .hdfs());
    let d = colo.tla.p99.saturating_sub(base.tla.p99);
    assert!(d < SimDuration::from_millis(3), "tla p99 degradation {d}");
}

#[test]
fn topology_math_checks_out() {
    let t = Topology::paper_cluster();
    assert_eq!(t.columns, 22);
    assert_eq!(t.rows, 2);
    assert_eq!(t.tlas, 31);
    assert_eq!(t.index_machines(), 44);
    assert_eq!(t.total_machines(), 75, "the paper's 75-machine cluster");
    t.validate().expect("paper topology is valid");
    // Round-trips between flat indices and (row, column) positions.
    for row in 0..t.rows {
        for col in 0..t.columns {
            let node = t.index_node(row, col);
            assert_eq!(t.index_position(node), Some((row, col)));
        }
    }
    // TLA nodes are distinct from index nodes.
    for i in 0..t.tlas {
        assert!(t.index_position(t.tla_node(i)).is_none());
    }
}

#[test]
fn unprotected_cluster_degrades() {
    // Without PerfIso the same CPU bully wrecks the end-to-end tail — the
    // cluster inherits the single-box no-isolation behaviour.
    let base = run(small("base", 11));
    let colo = run(small("colo", 11)
        .cpu_bully(BullyIntensity::High)
        .policy(Policy::NoIsolation));
    let d = colo.tla.p99.saturating_sub(base.tla.p99);
    assert!(
        d > SimDuration::from_millis(5),
        "unprotected cluster should degrade clearly, got {d}"
    );
}
