//! Figure 10 — the 650-machine production experiment: IndexServe colocated
//! with an ML-training batch job over one hour of live, diurnally varying
//! load, under blind isolation.
//!
//! Paper result (shape): CPU utilization averages ~70 % over the hour while
//! the TLA-level p99 stays flat as QPS moves.
//!
//! Substitution: the hour is sampled per minute
//! on a few representative machines (steady-state DES slices) and
//! extrapolated to the fleet; the reported p99 here is per-machine. The
//! experiment is the registry's `fig10` scenario.

use perfiso_bench::section;
use scenarios::scale_multiplier;
use scenarios::spec::{self, run_spec, RunOptions, TargetSpec};
use telemetry::table::Table;

fn main() {
    // `PERFISO_SCALE` shrinks the per-minute DES slice (and samples a
    // single machine) so the hour-long series stays affordable on small
    // machines; the diurnal shape is unaffected.
    let scale = scale_multiplier();
    let mut spec = spec::named("fig10").expect("registered scenario");
    if scale < 1.0 {
        if let TargetSpec::Fleet {
            ref mut sampled_machines,
            ref mut slice_ms,
            ..
        } = spec.target
        {
            *slice_ms = (*slice_ms as f64 * scale.max(0.2)) as u64;
            *sampled_machines = 1;
        }
        spec.validate().expect("still a valid spec");
    }
    let (fleet_machines, minutes, sampled) = match spec.target {
        TargetSpec::Fleet {
            fleet_machines,
            minutes,
            sampled_machines,
            ..
        } => (fleet_machines, minutes, sampled_machines),
        _ => unreachable!("fig10 is a fleet scenario"),
    };
    section(&format!(
        "Fig 10: {fleet_machines}-machine fleet over {minutes} minutes ({sampled} sampled machines/minute)"
    ));
    let result = run_spec(&spec, &RunOptions::parallel(None)).expect("runnable scenario");
    let report = result.runs[0].as_fleet().expect("fleet target");

    let mut t = Table::new(&[
        "minute",
        "qps/machine",
        "p99 (ms)",
        "cpu util",
        "trainer mb/min",
    ]);
    for (i, ((qb, pb), (ub, gb))) in report
        .qps
        .iter()
        .zip(report.p99_ms.iter())
        .map(|((_, q), (_, p))| (q, p))
        .zip(
            report
                .utilization_pct
                .iter()
                .zip(report.trainer_progress.iter())
                .map(|((_, u), (_, g))| (u, g)),
        )
        .enumerate()
    {
        // Print every fifth minute to keep the table readable.
        if i % 5 == 0 {
            t.row_owned(vec![
                format!("{i}"),
                format!("{:.0}", qb.mean()),
                format!("{:.2}", pb.mean()),
                format!("{:.0}%", ub.mean()),
                format!("{:.0}", gb.mean()),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "\nmean utilization over the hour: {:.0}%   max per-minute p99: {:.2} ms",
        report.mean_utilization * 100.0,
        report.max_p99.as_millis_f64()
    );
    println!("paper: utilization averages ~70% over 1 hour with flat TLA p99");
}
