//! End-to-end isolation matrix: the paper's headline behaviours, spanning
//! the scheduler, the disk substrate, the service model, the workloads,
//! and the PerfIso controller.
//!
//! Each test runs one or two complete single-box experiments at reduced
//! scale and checks the *shape* the paper reports, not exact numbers.

use indexserve::BoxReport;
use scenarios::spec::{run_spec, RunOptions, ScaleSpec, ScenarioSpec};
use scenarios::Policy;
use simcore::SimDuration;
use workloads::BullyIntensity;

/// Runs one single-box cell at test scale; `bully` is `None` only for the
/// standalone policy.
fn cell(policy: Policy, bully: Option<BullyIntensity>, qps: f64, seed: u64) -> BoxReport {
    let mut b = ScenarioSpec::builder("matrix")
        .single_box(qps)
        .policy(policy)
        .scale(ScaleSpec::Quick)
        .seed(seed);
    if let Some(intensity) = bully {
        b = b.cpu_bully(intensity);
    }
    let report = run_spec(&b.build().expect("valid spec"), &RunOptions::serial()).expect("runs");
    report.box_reports()[0].clone()
}

fn standalone(qps: f64, seed: u64) -> BoxReport {
    cell(Policy::Standalone, None, qps, seed)
}

/// A cell against the 48-thread CPU bully.
fn high(policy: Policy, qps: f64, seed: u64) -> BoxReport {
    cell(policy, Some(BullyIntensity::High), qps, seed)
}

#[test]
fn standalone_profile_matches_calibration_bands() {
    // §6.1.1: p50 ≈ 4 ms and p99 ≈ 12 ms at both loads; idle ≈ 80 %/60 %.
    for (qps, idle_lo, idle_hi) in [(2_000.0, 0.72, 0.86), (4_000.0, 0.48, 0.66)] {
        let r = standalone(qps, 42);
        let p50 = r.latency.p50.as_millis_f64();
        let p99 = r.latency.p99.as_millis_f64();
        assert!(
            (3.0..=5.5).contains(&p50),
            "{qps} QPS p50 {p50} outside band"
        );
        assert!(
            (8.0..=16.0).contains(&p99),
            "{qps} QPS p99 {p99} outside band"
        );
        assert!(r.drop_ratio() < 0.002, "{qps} QPS drops {}", r.drop_ratio());
        let idle = r.breakdown.idle_fraction();
        assert!(
            (idle_lo..=idle_hi).contains(&idle),
            "{qps} QPS idle {idle} outside [{idle_lo}, {idle_hi}]"
        );
    }
}

#[test]
fn standalone_latency_is_load_invariant() {
    // The paper reports the *same* 4 ms / 12 ms profile at 2 000 and
    // 4 000 QPS: the machine is provisioned so far below saturation that
    // doubling the load leaves the latency distribution unchanged.
    let r2 = standalone(2_000.0, 7);
    let r4 = standalone(4_000.0, 7);
    let dp99 = (r4.latency.p99.as_millis_f64() - r2.latency.p99.as_millis_f64()).abs();
    assert!(dp99 < 1.5, "p99 moved {dp99} ms between loads");
}

#[test]
fn unrestricted_high_bully_destroys_the_tail() {
    // Fig 4: the 48-thread bully with no isolation produces an
    // order-of-magnitude p99 collapse and a substantial timeout rate.
    let base = standalone(2_000.0, 21);
    let colo = high(Policy::NoIsolation, 2_000.0, 21);
    assert!(
        colo.latency.p99 > base.latency.p99.mul_f64(5.0),
        "expected ≫5× degradation: {} vs {}",
        colo.latency.p99,
        base.latency.p99
    );
    assert!(
        colo.drop_ratio() > 0.02,
        "high bully must force timeouts, got {}",
        colo.drop_ratio()
    );
}

#[test]
fn mid_bully_inflates_tail_but_keeps_queries() {
    // Fig 4 mid bars: a 24-thread bully hurts the tail but the system keeps
    // completing queries (the paper reports zero drops for mid).
    let colo = cell(Policy::NoIsolation, Some(BullyIntensity::Mid), 2_000.0, 22);
    assert!(
        colo.drop_ratio() < 0.01,
        "mid bully should not drop, got {}",
        colo.drop_ratio()
    );
    let p99 = colo.latency.p99.as_millis_f64();
    assert!(p99 < 40.0, "mid bully should not collapse: p99 {p99}");
}

#[test]
fn blind_isolation_meets_the_slo_at_both_loads() {
    // Fig 5 with 8 buffer cores: p99 within 1 ms of standalone, no drops,
    // and the machine goes from mostly idle to mostly busy.
    for qps in [2_000.0, 4_000.0] {
        let base = standalone(qps, 33);
        let iso = high(Policy::Blind { buffer_cores: 8 }, qps, 33);
        let slo = telemetry::slo::RelativeSlo::paper_default(base.latency.p99);
        let v = slo.check(iso.latency.p99);
        assert!(
            v.met,
            "{qps} QPS SLO violated: {} vs base {}",
            iso.latency.p99, base.latency.p99
        );
        assert!(iso.drop_ratio() < 0.002);
        assert!(
            iso.breakdown.utilization() > base.breakdown.utilization() + 0.25,
            "colocation must raise utilization ({} -> {})",
            base.breakdown.utilization(),
            iso.breakdown.utilization()
        );
    }
}

#[test]
fn four_buffer_cores_protect_less_than_eight() {
    // Fig 5: 4 buffer cores show visibly more degradation than 8.
    let base = standalone(2_000.0, 44);
    let b4 = high(Policy::Blind { buffer_cores: 4 }, 2_000.0, 44);
    let b8 = high(Policy::Blind { buffer_cores: 8 }, 2_000.0, 44);
    let d4 = b4.latency.p99.saturating_sub(base.latency.p99);
    let d8 = b8.latency.p99.saturating_sub(base.latency.p99);
    assert!(d4 > d8, "B=4 degradation {d4:?} must exceed B=8 {d8:?}");
}

#[test]
fn blind_isolation_beats_static_cores_on_utilization() {
    // Fig 8 takeaway: both protect the tail, but blind isolation leaves
    // less CPU idle and gives the secondary more work than the peak-safe
    // 8-core static restriction.
    let blind = high(Policy::Blind { buffer_cores: 8 }, 2_000.0, 55);
    let stat = high(Policy::StaticCores(8), 2_000.0, 55);
    assert!(
        blind.breakdown.idle_fraction() + 0.05 < stat.breakdown.idle_fraction(),
        "blind idle {} must be well below static idle {}",
        blind.breakdown.idle_fraction(),
        stat.breakdown.idle_fraction()
    );
    assert!(
        blind.secondary_cpu > stat.secondary_cpu,
        "blind secondary progress {} must exceed static {}",
        blind.secondary_cpu,
        stat.secondary_cpu
    );
}

#[test]
fn static_cores_protect_at_peak_only_when_small() {
    // Fig 6: an 8-core secondary is safe at peak load; handing it half the
    // machine is not.
    let base = standalone(4_000.0, 66);
    let small = high(Policy::StaticCores(8), 4_000.0, 66);
    let d = small.latency.p99.saturating_sub(base.latency.p99);
    assert!(
        d < SimDuration::from_millis(2),
        "8-core secondary degradation {d}"
    );
    let large = high(Policy::StaticCores(24), 4_000.0, 66);
    assert!(
        large.latency.p99 > small.latency.p99,
        "24-core secondary must hurt more than 8-core"
    );
}

#[test]
fn cycle_caps_fail_to_protect_the_tail() {
    // Fig 7 / Fig 8: duty-cycle throttling degrades the tail even at a 45 %
    // cap, and well beyond what blind isolation shows.
    let base = standalone(2_000.0, 77);
    let blind = high(Policy::Blind { buffer_cores: 8 }, 2_000.0, 77);
    let cap = high(Policy::CycleCap(0.45), 2_000.0, 77);
    let d_cap = cap.latency.p99.saturating_sub(base.latency.p99);
    let d_blind = blind.latency.p99.saturating_sub(base.latency.p99);
    assert!(
        d_cap > d_blind + SimDuration::from_millis(3),
        "cycle cap degradation {d_cap} must dwarf blind isolation {d_blind}"
    );
    let slo = telemetry::slo::RelativeSlo::paper_default(base.latency.p99);
    assert!(
        !slo.check(cap.latency.p99).met,
        "a 45% cycle cap must violate the SLO"
    );
}

#[test]
fn cycle_cap_starves_the_secondary_anyway() {
    // §6.1.4: on top of failing the SLO, cycle caps give the secondary the
    // least work of all policies.
    let cap = high(Policy::CycleCap(0.05), 2_000.0, 88);
    let blind = high(Policy::Blind { buffer_cores: 8 }, 2_000.0, 88);
    assert!(
        cap.secondary_cpu.as_secs_f64() < blind.secondary_cpu.as_secs_f64() * 0.25,
        "5% cap secondary CPU {} should be a small fraction of blind's {}",
        cap.secondary_cpu,
        blind.secondary_cpu
    );
}
