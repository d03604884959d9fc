//! Shared helpers for the benchmark harness.
//!
//! Each bench target (`benches/fig*.rs`) regenerates one table or figure
//! from the paper's evaluation and prints it in a layout that can be read
//! side-by-side with the original. The experiment cells are declarative
//! [`scenarios::spec::ScenarioSpec`]s — [`policy_cell`] builds and runs
//! one — so the benches, tests, examples, and the `perfiso-run` CLI all
//! share a single description of every experiment.

use indexserve::BoxReport;
use scenarios::{run_with_policy, Policy, Scale};
use telemetry::table::{ms, pct, Table};
use telemetry::TenantClass;
use workloads::BullyIntensity;

/// Runs one single-box policy × intensity × load cell at the bench scale
/// (honouring `PERFISO_SCALE`), seed 42 — the standard bench cell. A thin
/// seam over [`scenarios::run_with_policy`], which builds and runs the
/// corresponding `ScenarioSpec`.
pub fn policy_cell(policy: Policy, intensity: BullyIntensity, qps: f64) -> BoxReport {
    run_with_policy(policy, intensity, qps, 42, Scale::bench())
}

/// The standalone baseline cell at the bench scale.
pub fn standalone_cell(qps: f64) -> BoxReport {
    policy_cell(Policy::Standalone, BullyIntensity::High, qps)
}

/// Standard latency columns for a single-box report row.
pub fn latency_row(label: &str, qps: f64, r: &BoxReport) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{qps:.0}"),
        ms(r.latency.p50),
        ms(r.latency.p95),
        ms(r.latency.p99),
        pct(r.drop_ratio()),
    ]
}

/// Standard CPU-utilization columns for a single-box report row
/// (primary/secondary/OS/idle, as in the paper's stacked bars).
pub fn cpu_row(label: &str, qps: f64, r: &BoxReport) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{qps:.0}"),
        pct(r.breakdown.fraction(TenantClass::Primary)),
        pct(r.breakdown.fraction(TenantClass::Secondary)),
        pct(r.breakdown.fraction(TenantClass::Os)),
        pct(r.breakdown.idle_fraction()),
    ]
}

/// A fresh latency table.
pub fn latency_table() -> Table {
    Table::new(&["case", "qps", "p50 (ms)", "p95 (ms)", "p99 (ms)", "dropped"])
}

/// A fresh CPU-utilization table.
pub fn cpu_table() -> Table {
    Table::new(&["case", "qps", "primary", "secondary", "os", "idle"])
}

/// Prints a bench section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_columns() {
        let t = latency_table();
        assert!(t.render().contains("p99"));
        let t = cpu_table();
        assert!(t.render().contains("secondary"));
    }
}
