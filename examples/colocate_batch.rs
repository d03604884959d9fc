//! Scenario: choose an isolation policy for a colocated batch job.
//!
//! The workload the paper's introduction motivates: a search index server
//! provisioned for peak but running at average load, plus a backlog of
//! CPU-hungry batch work. This example runs two registry grids at test
//! scale — the `fig08` policy comparison against a 48-thread CPU bully
//! and the `standalone` baseline, both at 2 000 and 4 000 QPS — and
//! prints the decision table an operator would want: tail-latency impact
//! vs batch progress.
//!
//! Run with: `cargo run --release --example colocate_batch`

use scenarios::spec::{self, run_sweep, RunOptions, ScaleSpec, SweepReport, TargetSpec};
use telemetry::table::{ms, pct, Table};

/// Runs a registry scenario's grid at test scale, seed 17.
fn grid(name: &str) -> SweepReport {
    let mut spec = spec::named(name).expect("registered scenario");
    spec.scale = ScaleSpec::Quick;
    spec.seed = 17;
    run_sweep(&spec, &RunOptions::parallel(None)).expect("grid runs")
}

fn main() {
    println!("Sweeping isolation policies (48-thread CPU bully)...\n");
    let policies = grid("fig08");
    for baseline in grid("standalone").cells {
        let target = &baseline.report.spec.target;
        let TargetSpec::SingleBox { qps } = *target else {
            unreachable!("the standalone grid runs single boxes")
        };
        let base = baseline.report.box_reports()[0];
        let mut t = Table::new(&[
            "policy",
            "p99 (ms)",
            "d-p99 (ms)",
            "dropped",
            "batch cpu-s",
            "machine util",
            "verdict",
        ]);
        for cell in policies
            .cells
            .iter()
            .filter(|c| c.report.spec.target == *target)
        {
            let r = cell.report.box_reports()[0];
            let d = r.latency.p99.saturating_sub(base.latency.p99);
            let slo =
                telemetry::slo::RelativeSlo::paper_default(base.latency.p99).check(r.latency.p99);
            t.row_owned(vec![
                cell.report.spec.policy.label(),
                ms(r.latency.p99),
                ms(d),
                pct(r.drop_ratio()),
                format!("{:.1}", r.secondary_cpu.as_secs_f64()),
                pct(r.breakdown.utilization()),
                if slo.met {
                    "SLO met".into()
                } else {
                    "SLO VIOLATED".into()
                },
            ]);
        }
        println!(
            "@ {qps:.0} QPS (standalone p99 = {}):",
            ms(base.latency.p99)
        );
        println!("{}", t.render());
    }
    println!("Blind isolation is the only policy that both meets the SLO and keeps batch throughput high.");
}
