//! Quickstart: protect a latency-sensitive service from a CPU-hungry batch
//! job with CPU blind isolation.
//!
//! Builds the paper's single production server (48 logical cores, striped
//! SSD + HDD volumes), runs Bing-style IndexServe at average load, throws a
//! 48-thread CPU bully at it, and shows the p99 with and without PerfIso.
//! Every configuration is one declarative `ScenarioSpec`; the blind
//! isolation cell is the registry's `quickstart` scenario
//! (`perfiso-run run quickstart`).
//!
//! Run with: `cargo run --release --example quickstart`

use indexserve::BoxReport;
use scenarios::spec::{run_spec, RunOptions, ScenarioSpec};
use scenarios::Policy;
use workloads::BullyIntensity;

fn main() {
    let qps = 2_000.0;
    let cell = |policy: Policy| -> BoxReport {
        let mut b = ScenarioSpec::builder("quickstart")
            .single_box(qps)
            .policy(policy)
            .custom_scale(500, 4_000)
            .seed(42);
        if policy != Policy::Standalone {
            b = b.cpu_bully(BullyIntensity::High);
        }
        let report =
            run_spec(&b.build().expect("valid spec"), &RunOptions::serial()).expect("spec runs");
        report.box_reports()[0].clone()
    };

    println!("IndexServe standalone at {qps} QPS ...");
    let baseline = cell(Policy::Standalone);
    println!(
        "  p50 {:>7.2} ms   p99 {:>7.2} ms   machine idle {:>4.1}%",
        baseline.latency.p50.as_millis_f64(),
        baseline.latency.p99.as_millis_f64(),
        baseline.breakdown.idle_fraction() * 100.0
    );

    println!("\nColocating a 48-thread CPU bully with NO isolation ...");
    let hurt = cell(Policy::NoIsolation);
    println!(
        "  p50 {:>7.2} ms   p99 {:>7.2} ms   dropped {:>4.1}%   (tail destroyed)",
        hurt.latency.p50.as_millis_f64(),
        hurt.latency.p99.as_millis_f64(),
        hurt.drop_ratio() * 100.0
    );

    println!("\nSame bully under PerfIso CPU blind isolation (8 buffer cores) ...");
    let safe = cell(Policy::Blind { buffer_cores: 8 });
    let degradation = safe.latency.p99.saturating_sub(baseline.latency.p99);
    println!(
        "  p50 {:>7.2} ms   p99 {:>7.2} ms   degradation {:+.2} ms",
        safe.latency.p50.as_millis_f64(),
        safe.latency.p99.as_millis_f64(),
        degradation.as_millis_f64()
    );
    println!(
        "  machine utilization {:>4.1}% (was {:>4.1}%)   bully got {:.1} core-seconds of work",
        safe.breakdown.utilization() * 100.0,
        baseline.breakdown.utilization() * 100.0,
        safe.secondary_cpu.as_secs_f64()
    );
    let slo = telemetry::slo::RelativeSlo::paper_default(baseline.latency.p99);
    println!(
        "\nSLO (p99 within 1 ms of standalone): {}",
        slo.check(safe.latency.p99)
    );
}
