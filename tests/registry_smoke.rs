//! Every named scenario in the registry must actually run end-to-end —
//! not merely validate. Each spec is shrunk to test scale (tiny window,
//! small topology, one seed, serial) and executed; a scenario whose
//! driver wiring breaks now fails here instead of at the next bench run.
//! Every report must also rerun from the spec it embeds, so a report
//! file alone reproduces its run.

use scenarios::spec::{
    self, run_spec, run_sweep, Report, RunOptions, ScaleSpec, ScenarioSpec, TargetSpec,
};

/// Shrinks a registry spec to smoke-test size without changing what it
/// exercises: same secondary mix, policy, controller overrides, and
/// target *kind* — only the measured window, cluster shape, and fleet
/// sweep length are reduced.
fn shrink(mut spec: ScenarioSpec) -> ScenarioSpec {
    // Chaos timelines use absolute fire times, so fault scenarios keep
    // their registered window (a shrunk window would skip the faults).
    if spec.fault.is_empty() {
        spec.scale = ScaleSpec::Custom {
            warmup_ms: 100,
            measure_ms: 300,
        };
    }
    spec.seeds = 1;
    match &mut spec.target {
        TargetSpec::SingleBox { .. } | TargetSpec::MultiBox { .. } => {}
        TargetSpec::Cluster {
            columns,
            rows,
            tlas,
            ..
        } => {
            *columns = (*columns).min(3);
            *rows = (*rows).min(2);
            *tlas = (*tlas).min(2);
        }
        TargetSpec::Fleet {
            sampled_machines,
            minutes,
            slice_ms,
            ..
        } => {
            *sampled_machines = 1;
            *minutes = 2;
            *slice_ms = (*slice_ms).min(100);
        }
    }
    spec.validate().expect("shrunk spec stays valid");
    spec
}

/// Reruns `report` from its embedded spec, round-tripped through JSON as
/// a report file carries it, and requires the same report to the byte.
fn assert_reruns_from_its_spec(report: &Report) {
    let name = &report.spec.name;
    let spec = ScenarioSpec::from_json(&report.spec.to_json())
        .unwrap_or_else(|e| panic!("{name}: echoed spec does not load: {e}"));
    let again =
        run_spec(&spec, &RunOptions::serial()).unwrap_or_else(|e| panic!("{name} rerun: {e}"));
    assert!(
        again.to_json() == report.to_json(),
        "{name}: rerunning the echoed spec wrote a different report"
    );
}

#[test]
fn every_registry_scenario_runs_end_to_end() {
    let opts = RunOptions::serial();
    for full in spec::registry() {
        let spec = shrink(full);
        let report =
            run_spec(&spec, &opts).unwrap_or_else(|e| panic!("{} failed to run: {e}", spec.name));
        assert_eq!(report.runs.len(), 1, "{}: one seed, one run", spec.name);
        assert_eq!(
            report.summary.p99_ms.len(),
            1,
            "{}: summary covers the run",
            spec.name
        );
        let run = &report.runs[0];
        assert!(
            run.p99() > simcore::SimDuration::ZERO,
            "{}: p99 must be measured",
            spec.name
        );
        match run {
            spec::SeedReport::SingleBox(r) => {
                assert!(r.latency.count > 0, "{}: no queries completed", spec.name);
            }
            spec::SeedReport::Cluster(r) => {
                assert!(r.completed > 0, "{}: no requests completed", spec.name);
            }
            spec::SeedReport::Fleet(r) => {
                assert!(r.slices > 0, "{}: no fleet slices", spec.name);
            }
        }
        assert_reruns_from_its_spec(&report);
    }
}

/// A `--seeds` override and a `--scale` rewrite both land in the echoed
/// spec, so those reports rerun from their own spec too.
#[test]
fn overridden_and_scaled_reports_rerun_from_their_spec() {
    let spec = shrink(spec::named("standalone").expect("registered"));
    let opts = RunOptions {
        seeds: Some(2),
        ..RunOptions::serial()
    };
    let report = run_spec(&spec, &opts).expect("runs");
    assert_eq!(report.seeds.len(), 2);
    assert_eq!(report.spec.seeds, 2, "the override is echoed");
    assert_reruns_from_its_spec(&report);

    let scaled = spec::named("standalone")
        .expect("registered")
        .scaled(0.02)
        .expect("standalone has a Bench window");
    let report = run_spec(&scaled, &RunOptions::serial()).expect("runs");
    assert_eq!(
        report.spec.scale,
        ScaleSpec::Custom {
            warmup_ms: 500,
            measure_ms: 600
        }
    );
    assert_reruns_from_its_spec(&report);
}

#[test]
fn every_registry_sweep_runs_one_cell_per_combination() {
    let opts = RunOptions::serial();
    for full in spec::registry() {
        if full.sweep.is_none() {
            continue;
        }
        let spec = shrink(full);
        let expected = spec.sweep.as_ref().unwrap().cell_count();
        let sweep =
            run_sweep(&spec, &opts).unwrap_or_else(|e| panic!("{} sweep failed: {e}", spec.name));
        assert_eq!(sweep.cells.len(), expected, "{}", spec.name);
        assert_eq!(sweep.table.len(), expected, "{}", spec.name);
        for cell in &sweep.cells {
            assert_eq!(
                cell.report.runs.len(),
                1,
                "{} cell [{}]",
                spec.name,
                cell.label
            );
        }
        // Labels are unique — a sweep of identical cells is a spec bug.
        let labels: std::collections::HashSet<&str> =
            sweep.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), sweep.cells.len(), "{}", spec.name);
    }
}
