//! Executes a [`ScenarioSpec`] over its seeds and reduces the results.
//!
//! Repetitions fan out across worker threads through the fleet sweep's
//! [`fan_out`]: every seed is an independent simulation, results come
//! back in seed order, and the reduction runs serially in that order — so
//! the parallel report is **bit-identical** to the serial one regardless
//! of which worker finishes first.

use cluster::fleet::{effective_threads, fan_out, run_fleet, FleetReport};
use cluster::ClusterReport;
use indexserve::boxsim::{run_multi, ServicePlan};
use indexserve::BoxReport;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use telemetry::RunStats;

use super::{ControllerSpec, ScenarioSpec, SpecError, TargetSpec};

/// Execution knobs that are not part of the experiment description.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Overrides the spec's repetition count.
    pub seeds: Option<u32>,
    /// Worker threads for the seed sweep: `0` = all available cores,
    /// `1` = serial. The report is bit-identical across thread counts.
    pub threads: usize,
}

impl RunOptions {
    /// Serial execution (tests, helpers returning a single report).
    pub fn serial() -> Self {
        RunOptions {
            seeds: None,
            threads: 1,
        }
    }

    /// All cores, with the given repetition override.
    pub fn parallel(seeds: Option<u32>) -> Self {
        RunOptions { seeds, threads: 0 }
    }

    /// Worker threads a sweep of `jobs` independent runs fans out over:
    /// the thread knob, capped at one worker per job.
    pub fn workers(&self, jobs: usize) -> usize {
        effective_threads(self.threads).min(jobs.max(1))
    }
}

/// One seed's measurements, tagged by target kind.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum SeedReport {
    /// A single-box run.
    SingleBox(BoxReport),
    /// A cluster run.
    Cluster(ClusterReport),
    /// A fleet sweep.
    Fleet(FleetReport),
}

impl SeedReport {
    /// The headline tail latency: query p99 (single box), end-to-end TLA
    /// p99 (cluster), or worst per-minute p99 (fleet).
    pub fn p99(&self) -> SimDuration {
        match self {
            SeedReport::SingleBox(r) => r.latency.p99,
            SeedReport::Cluster(r) => r.tla.p99,
            SeedReport::Fleet(r) => r.max_p99,
        }
    }

    /// Mean machine utilization over the measured window.
    pub fn utilization(&self) -> f64 {
        match self {
            SeedReport::SingleBox(r) => r.breakdown.utilization(),
            SeedReport::Cluster(r) => r.mean_utilization,
            SeedReport::Fleet(r) => r.mean_utilization,
        }
    }

    /// Dropped-query ratio (degraded-request ratio for clusters; fleets
    /// record no drops).
    pub fn drop_ratio(&self) -> f64 {
        match self {
            SeedReport::SingleBox(r) => r.drop_ratio(),
            SeedReport::Cluster(r) => {
                if r.completed == 0 {
                    0.0
                } else {
                    r.degraded as f64 / r.completed as f64
                }
            }
            SeedReport::Fleet(_) => 0.0,
        }
    }

    /// Secondary progress: batch CPU seconds (single box and cluster) or
    /// trainer minibatches per machine-minute (fleet).
    pub fn secondary_progress(&self) -> f64 {
        match self {
            SeedReport::SingleBox(r) => r.secondary_cpu.as_secs_f64(),
            SeedReport::Cluster(r) => r.breakdown.secondary.as_secs_f64(),
            SeedReport::Fleet(r) => r.trainer_progress.overall_mean(),
        }
    }

    /// The single-box report, if this seed ran one.
    pub fn as_single_box(&self) -> Option<&BoxReport> {
        match self {
            SeedReport::SingleBox(r) => Some(r),
            _ => None,
        }
    }

    /// The cluster report, if this seed ran one.
    pub fn as_cluster(&self) -> Option<&ClusterReport> {
        match self {
            SeedReport::Cluster(r) => Some(r),
            _ => None,
        }
    }

    /// The fleet report, if this seed ran one.
    pub fn as_fleet(&self) -> Option<&FleetReport> {
        match self {
            SeedReport::Fleet(r) => Some(r),
            _ => None,
        }
    }
}

/// Cross-seed statistics (the paper reports mean ± CI over 8 runs).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Headline p99 per seed, in milliseconds.
    pub p99_ms: RunStats,
    /// Machine utilization per seed, in `[0, 1]`.
    pub utilization: RunStats,
    /// Drop (or degraded-request) ratio per seed.
    pub drop_ratio: RunStats,
    /// Secondary progress per seed (see
    /// [`SeedReport::secondary_progress`] for units).
    pub secondary_progress: RunStats,
}

/// The unified result of running one scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// The spec that ran, with the seed count that ran (a
    /// [`RunOptions::seeds`] override included), so a report file
    /// describes itself and reruns from this field alone.
    pub spec: ScenarioSpec,
    /// The seeds, in reduction order; `runs[i]` used `seeds[i]`.
    pub seeds: Vec<u64>,
    /// Per-seed reports, in seed order.
    pub runs: Vec<SeedReport>,
    /// Cross-seed statistics.
    pub summary: Summary,
}

impl Report {
    /// Per-seed single-box reports (empty for other targets).
    pub fn box_reports(&self) -> Vec<&BoxReport> {
        self.runs
            .iter()
            .filter_map(SeedReport::as_single_box)
            .collect()
    }

    /// Per-seed cluster reports (empty for other targets).
    pub fn cluster_reports(&self) -> Vec<&ClusterReport> {
        self.runs
            .iter()
            .filter_map(SeedReport::as_cluster)
            .collect()
    }

    /// Per-seed fleet reports (empty for other targets).
    pub fn fleet_reports(&self) -> Vec<&FleetReport> {
        self.runs.iter().filter_map(SeedReport::as_fleet).collect()
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }
}

/// Reduces per-seed reports into cross-seed statistics, in input order.
fn summarize(runs: &[SeedReport]) -> Summary {
    let mut summary = Summary::default();
    for r in runs {
        summary.p99_ms.add(r.p99().as_millis_f64());
        summary.utilization.add(r.utilization());
        summary.drop_ratio.add(r.drop_ratio());
        summary.secondary_progress.add(r.secondary_progress());
    }
    summary
}

/// Runs one seed of the scenario; `inner_threads` feeds the fleet's
/// slice sweep.
fn run_seed(spec: &ScenarioSpec, seed: u64, inner_threads: usize) -> SeedReport {
    let plans: Vec<ServicePlan> = match &spec.target {
        TargetSpec::SingleBox { qps } => vec![ServicePlan { qps: *qps }],
        TargetSpec::MultiBox { services } => services
            .iter()
            .map(|s| ServicePlan { qps: s.qps })
            .collect(),
        TargetSpec::Cluster { .. } => {
            return SeedReport::Cluster(spec.cluster_sim(seed).expect("validated").run());
        }
        TargetSpec::Fleet { .. } => {
            let cfg = spec.fleet_config(seed, inner_threads).expect("validated");
            return SeedReport::Fleet(run_fleet(&cfg));
        }
    };
    let cfg = spec.box_config(seed).expect("validated");
    let scale = spec.run_scale();
    SeedReport::SingleBox(run_multi(cfg, &plans, scale.warmup, scale.measure))
}

/// The spec a run reports: `spec` with the repetition count that ran, so
/// a `--seeds` override is echoed and the report reruns from its own
/// spec.
fn echoed(spec: &ScenarioSpec, opts: &RunOptions) -> ScenarioSpec {
    ScenarioSpec {
        seeds: opts.seeds.unwrap_or(spec.seeds),
        ..spec.clone()
    }
}

/// Runs the scenario over its seeds, in parallel when `opts.threads`
/// allows, and reduces the per-seed reports in seed order.
///
/// Parallel and serial execution produce bit-identical reports: seeds
/// never observe each other, and the floating-point reduction happens in
/// one fixed order. Only the fleet has inner parallelism (its slice
/// sweep); when the seed sweep itself is parallel, each fleet runs its
/// slices serially (the slice sweep is also bit-identical, so this only
/// affects wall-clock, never results).
///
/// # Errors
///
/// Fails if the spec does not validate.
pub fn run_spec(spec: &ScenarioSpec, opts: &RunOptions) -> Result<Report, SpecError> {
    spec.validate()?;
    if opts.seeds == Some(0) {
        // A `--seeds 0` override is the same mistake as `seeds: 0` in a
        // spec file; reject it rather than silently running one seed.
        return Err(SpecError::ZeroSeeds);
    }
    let spec = echoed(spec, opts);
    let seeds = spec.seed_list();
    let n = seeds.len();
    let workers = opts.workers(n);
    // Avoid oversubscription: parallelize across seeds *or* inside the
    // one fleet, never both.
    let inner_threads = if workers > 1 { 1 } else { opts.threads };
    let runs = fan_out(n, workers, |idx| run_seed(&spec, seeds[idx], inner_threads));
    let summary = summarize(&runs);
    Ok(Report {
        spec,
        seeds,
        runs,
        summary,
    })
}

/// One sweep cell's results: the axis coordinates plus a full [`Report`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepCellReport {
    /// Cell coordinates, `"key=value key=value"`.
    pub label: String,
    /// The axis coordinates as `(key, value)` pairs.
    pub params: Vec<(String, String)>,
    /// The merged controller overrides this cell ran with.
    pub controller: ControllerSpec,
    /// The cell's multi-seed report.
    pub report: Report,
}

/// One row of the cross-cell summary table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepRow {
    /// Cell coordinates.
    pub label: String,
    /// Mean headline p99 across seeds, in milliseconds.
    pub p99_ms_mean: f64,
    /// 95% confidence half-width of the p99, in milliseconds.
    pub p99_ms_ci95: f64,
    /// Mean machine utilization across seeds.
    pub utilization_mean: f64,
    /// Mean drop (or degraded-request) ratio across seeds.
    pub drop_ratio_mean: f64,
    /// Mean secondary progress across seeds (see
    /// [`SeedReport::secondary_progress`] for units).
    pub secondary_mean: f64,
}

/// The result of running a parameter sweep: per-cell reports plus the
/// cross-cell summary table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepReport {
    /// The sweeping spec that ran, with its `sweep` intact and the seed
    /// count that ran, so a report file documents the whole grid and
    /// reruns from this field alone.
    pub spec: ScenarioSpec,
    /// The seeds every cell ran, in reduction order.
    pub seeds: Vec<u64>,
    /// Per-cell reports, in grid (row-major) order.
    pub cells: Vec<SweepCellReport>,
    /// The cross-cell summary table, in grid order.
    pub table: Vec<SweepRow>,
}

impl SweepReport {
    /// Serializes the sweep report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep report is serializable")
    }
}

/// Expands the spec's sweep and runs every `(cell, seed)` pair, fanning
/// the flattened job list across the same worker scheme as [`run_spec`].
///
/// Jobs scatter back by index and both reductions (per-cell seed order,
/// then cell order) are fixed, so the sweep report is **bit-identical**
/// across thread counts, exactly like a single-cell run.
///
/// # Errors
///
/// Fails if the spec does not validate or declares no sweep.
pub fn run_sweep(spec: &ScenarioSpec, opts: &RunOptions) -> Result<SweepReport, SpecError> {
    if opts.seeds == Some(0) {
        return Err(SpecError::ZeroSeeds);
    }
    let spec = echoed(spec, opts);
    let cells = spec.expand_sweep()?;
    let seeds = spec.seed_list();
    let (n_cells, n_seeds) = (cells.len(), seeds.len());
    let n_jobs = n_cells * n_seeds;
    let workers = opts.workers(n_jobs);
    let inner_threads = if workers > 1 { 1 } else { opts.threads };
    let results = fan_out(n_jobs, workers, |idx| {
        let (c, s) = (idx / n_seeds, idx % n_seeds);
        run_seed(&cells[c].spec, seeds[s], inner_threads)
    });

    let mut out = Vec::with_capacity(n_cells);
    let mut results = results.into_iter();
    for cell in cells {
        let runs: Vec<SeedReport> = results.by_ref().take(n_seeds).collect();
        let summary = summarize(&runs);
        out.push(SweepCellReport {
            label: cell.label,
            params: cell.params,
            controller: cell.spec.controller.clone(),
            report: Report {
                spec: cell.spec,
                seeds: seeds.clone(),
                runs,
                summary,
            },
        });
    }
    let table = out
        .iter()
        .map(|c| SweepRow {
            label: c.label.clone(),
            p99_ms_mean: c.report.summary.p99_ms.mean(),
            p99_ms_ci95: c.report.summary.p99_ms.ci95(),
            utilization_mean: c.report.summary.utilization.mean(),
            drop_ratio_mean: c.report.summary.drop_ratio.mean(),
            secondary_mean: c.report.summary.secondary_progress.mean(),
        })
        .collect();
    Ok(SweepReport {
        spec,
        seeds,
        cells: out,
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;
    use workloads::BullyIntensity;

    fn tiny_spec(seeds: u32) -> ScenarioSpec {
        ScenarioSpec::builder("tiny")
            .single_box(1_000.0)
            .cpu_bully(BullyIntensity::Mid)
            .policy(Policy::Blind { buffer_cores: 8 })
            .custom_scale(150, 350)
            .seed(5)
            .seeds(seeds)
            .build()
            .unwrap()
    }

    #[test]
    fn multi_seed_report_has_one_run_per_seed() {
        let report = run_spec(&tiny_spec(3), &RunOptions::serial()).unwrap();
        assert_eq!(report.seeds, vec![5, 6, 7]);
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.summary.p99_ms.len(), 3);
        assert_eq!(report.box_reports().len(), 3);
        assert!(report.cluster_reports().is_empty());
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let spec = tiny_spec(4);
        let serial = run_spec(&spec, &RunOptions::serial()).unwrap();
        let parallel = run_spec(
            &spec,
            &RunOptions {
                seeds: None,
                threads: 4,
            },
        )
        .unwrap();
        assert_eq!(serial.seeds, parallel.seeds);
        for (a, b) in serial.runs.iter().zip(parallel.runs.iter()) {
            let (a, b) = (a.as_single_box().unwrap(), b.as_single_box().unwrap());
            assert_eq!(a.latency.p50, b.latency.p50);
            assert_eq!(a.latency.p99, b.latency.p99);
            assert_eq!(a.latency.count, b.latency.count);
            assert_eq!(a.machine, b.machine);
            assert_eq!(
                a.breakdown.utilization().to_bits(),
                b.breakdown.utilization().to_bits()
            );
        }
        for (a, b) in [
            (&serial.summary.p99_ms, &parallel.summary.p99_ms),
            (&serial.summary.utilization, &parallel.summary.utilization),
        ] {
            assert_eq!(a.values().len(), b.values().len());
            for (x, y) in a.values().iter().zip(b.values().iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn workers_cap_the_thread_knob_at_the_job_count() {
        let opts = |threads| RunOptions {
            seeds: None,
            threads,
        };
        assert_eq!(opts(0).workers(1), 1);
        assert_eq!(opts(4).workers(6), 4);
        assert_eq!(opts(1).workers(6), 1);
    }

    #[test]
    fn seeds_override_wins() {
        let report = run_spec(&tiny_spec(1), &RunOptions::parallel(Some(2))).unwrap();
        assert_eq!(report.runs.len(), 2);
        // The echoed spec carries the count that ran.
        assert_eq!(report.spec.seeds, 2);
        let mut spec = tiny_sweep_spec();
        spec.seeds = 1;
        let sweep = run_sweep(&spec, &RunOptions::parallel(Some(2))).unwrap();
        assert_eq!(sweep.spec.seeds, 2);
        for cell in &sweep.cells {
            assert_eq!(cell.report.spec.seeds, 2, "[{}]", cell.label);
            assert_eq!(cell.report.runs.len(), 2, "[{}]", cell.label);
        }
    }

    fn tiny_sweep_spec() -> ScenarioSpec {
        let mut spec = tiny_spec(2);
        spec.sweep = Some(crate::spec::SweepSpec {
            axes: vec![
                crate::spec::SweepAxis::CpuPollIntervalUs(vec![1_000, 20_000]),
                crate::spec::SweepAxis::BufferCores(vec![2, 8]),
            ],
        });
        spec
    }

    #[test]
    fn sweep_produces_one_report_per_cell() {
        let spec = tiny_sweep_spec();
        let sweep = run_sweep(&spec, &RunOptions::serial()).unwrap();
        assert_eq!(sweep.cells.len(), 4);
        assert_eq!(sweep.table.len(), 4);
        assert_eq!(sweep.seeds, vec![5, 6]);
        for cell in &sweep.cells {
            assert_eq!(cell.report.runs.len(), 2);
            assert_eq!(cell.report.summary.p99_ms.len(), 2);
            assert!(cell.report.spec.sweep.is_none());
        }
        // The knobs really differ across cells.
        assert_eq!(sweep.cells[0].controller.buffer_cores, Some(2));
        assert_eq!(sweep.cells[1].controller.buffer_cores, Some(8));
        assert_eq!(sweep.cells[3].controller.cpu_poll_interval_us, Some(20_000));
        // run_sweep without a sweep is an error.
        assert!(matches!(
            run_sweep(&tiny_spec(1), &RunOptions::serial()),
            Err(SpecError::InvalidSweep(_))
        ));
    }

    #[test]
    fn parallel_sweep_grid_is_bit_identical_to_serial() {
        let spec = tiny_sweep_spec();
        let serial = run_sweep(
            &spec,
            &RunOptions {
                seeds: None,
                threads: 1,
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &spec,
            &RunOptions {
                seeds: None,
                threads: 4,
            },
        )
        .unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(a.label, b.label);
            for (x, y) in a.report.runs.iter().zip(b.report.runs.iter()) {
                let (x, y) = (x.as_single_box().unwrap(), y.as_single_box().unwrap());
                assert_eq!(x.latency.p99, y.latency.p99);
                assert_eq!(x.latency.count, y.latency.count);
                assert_eq!(x.machine, y.machine);
            }
        }
        for (a, b) in serial.table.iter().zip(parallel.table.iter()) {
            assert_eq!(a.p99_ms_mean.to_bits(), b.p99_ms_mean.to_bits());
            assert_eq!(a.utilization_mean.to_bits(), b.utilization_mean.to_bits());
        }
        // The sweep report itself round-trips through JSON.
        let text = serial.to_json();
        let back: SweepReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.cells.len(), serial.cells.len());
        assert_eq!(back.spec, serial.spec);
        assert_eq!(
            back.table[0].p99_ms_mean.to_bits(),
            serial.table[0].p99_ms_mean.to_bits()
        );
    }

    #[test]
    fn sweep_cells_actually_change_behaviour() {
        // One axis that changes the machine: buffer cores 1 vs 16 under a
        // heavy bully shifts how much CPU the secondary gets.
        let mut spec = tiny_spec(1);
        spec.sweep = Some(crate::spec::SweepSpec::one(
            crate::spec::SweepAxis::BufferCores(vec![1, 16]),
        ));
        let sweep = run_sweep(&spec, &RunOptions::serial()).unwrap();
        let few = sweep.cells[0].report.runs[0].secondary_progress();
        let many = sweep.cells[1].report.runs[0].secondary_progress();
        assert!(
            few > many,
            "16 buffer cores should leave the bully less CPU than 1 \
             (got {few} vs {many} cpu-s)"
        );
    }
}
