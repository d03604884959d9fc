//! Fleet-scale production experiment (Fig 10).
//!
//! The paper's Fig 10 shows a 650-machine IndexServe cluster colocated with
//! an ML-training batch job over one hour: live QPS varies, TLA p99 stays
//! flat, CPU utilization averages ~70 %.
//!
//! Simulating 650 machines × 1 hour with full DES is out of budget, so the
//! hour is reproduced by **per-minute steady-state sampling**: for each
//! minute, a handful of representative machines run a short DES slice at
//! that minute's load (from the [`qtrace::DiurnalCurve`]) with the ML
//! trainer colocated under blind isolation; per-minute results extrapolate
//! fleet-wide.
//!
//! # Parallelism
//!
//! Every `(minute, machine)` slice is an independent DES run with its own
//! seed (`splitmix64(cfg.seed) ^ (m << 8) ^ s`), so the sweep fans slices
//! out across [`FleetConfig::threads`] worker threads through [`fan_out`],
//! which the scenario runner's seed sweep shares. The per-slice
//! computations never observe each other, and the report is
//! **bit-identical** to `threads: 1` by two routes:
//!
//! - The four scalars a slice reports (utilization, p99, trainer
//!   progress, event count) come back in slice order and are reduced
//!   serially in that order, so the floating-point sums add in one fixed
//!   order whichever worker finished first.
//! - The latency sketch and the resilience counters fold into one shared
//!   accumulator as each slice finishes, in completion order. Both folds
//!   are integer counter addition (plus min and max for the sketch), so
//!   the accumulator ends the same in any order.
//!
//! # Memory
//!
//! Shared, immutable inputs — the service config, the PerfIso config, and
//! one trace generator with its Zipf table — are built once per run, so a
//! slice allocates no config or Zipf-table state of its own. Each slice
//! stamps its minute's trace from the shared generator when it starts and
//! drops it when it ends, and its sketch is folded and dropped as it
//! finishes, so trace and sketch memory follow the slices in flight, not
//! the length of the simulated day. What grows with the day is the
//! 32-byte scalar result per slice and the report's per-minute series.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use indexserve::{BoxConfig, BoxEvent, BoxSim, SecondaryKind, ServiceConfig};
use perfiso::PerfIsoConfig;
use qtrace::{DiurnalCurve, OpenLoopClient, TraceConfig, TraceGenerator};
use simcore::rng::splitmix64;
use simcore::{SimDuration, SimTime};
use simcpu::MachineConfig;
use telemetry::{
    LatencyRecorder, ResilienceStats, Sketch, SketchSummary, TelemetryMode, TimeSeries,
};
use workloads::{MlTrainer, ResiliencePolicy};

/// Fleet experiment parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Machines actually simulated per minute.
    pub sampled_machines: u32,
    /// Experiment length in minutes.
    pub minutes: u32,
    /// Per-minute DES slice measured per sampled machine.
    pub slice: SimDuration,
    /// The load curve (per-machine QPS).
    pub curve: DiurnalCurve,
    /// The ML trainer colocated on every machine.
    pub trainer: MlTrainer,
    /// PerfIso configuration.
    pub perfiso: PerfIsoConfig,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the slice sweep: `0` = all available cores,
    /// `1` = serial. The report is bit-identical across thread counts.
    pub threads: usize,
    /// Simulated minutes covered by each sampled slice: slice `m` runs at
    /// the load of wall minute `m * minute_stride`, so a 24-hour day fits
    /// in `1440 / minute_stride` slices. `1` (the default) is the classic
    /// per-minute sweep.
    pub minute_stride: u32,
    /// Hardware roster the sampled machines cycle through (weighted
    /// expansion from [`crate::topology::BoxShape::roster`]). The default
    /// single-entry roster is the paper's uniform 48-core server.
    pub shapes: Vec<MachineConfig>,
    /// Tenant churn: when on, each machine-minute deterministically
    /// reschedules its batch tenant — roughly one slice in eight runs
    /// with the trainer evicted, the rest scale its worker count by
    /// 0.5–1.5×, mimicking a production bin-packer reshuffling batch work.
    pub churn: bool,
    /// Latency-recording backend for the slices. `Sketch` bounds memory
    /// at production scale and adds a fleet-wide merged percentile sketch
    /// to the report.
    pub telemetry: TelemetryMode,
    /// Overload-resilience policy stamped onto every sampled box (`None`
    /// = the classic fleet with no box-level admission control).
    pub resilience: Option<Arc<ResiliencePolicy>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sampled_machines: 3,
            minutes: 60,
            slice: SimDuration::from_millis(700),
            curve: DiurnalCurve::paper_hour(),
            trainer: MlTrainer {
                workers: 28,
                minibatch: SimDuration::from_millis(2),
                steps_per_sync: 20,
                sync_pause: SimDuration::from_millis(8),
            },
            perfiso: PerfIsoConfig::default(),
            seed: 99,
            threads: 0,
            minute_stride: 1,
            shapes: vec![MachineConfig::paper_server()],
            churn: false,
            telemetry: TelemetryMode::Exact,
            resilience: None,
        }
    }
}

/// The Fig 10 time series.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    /// Offered QPS per machine, per minute.
    pub qps: TimeSeries,
    /// p99 query latency (ms), per minute (worst sampled machine).
    pub p99_ms: TimeSeries,
    /// Mean CPU utilization (%), per minute.
    pub utilization_pct: TimeSeries,
    /// ML-trainer minibatches completed per machine-minute.
    pub trainer_progress: TimeSeries,
    /// Mean utilization over the whole hour (the paper reports ~70 %).
    pub mean_utilization: f64,
    /// Maximum per-minute p99 (flatness check).
    pub max_p99: SimDuration,
    /// Machine-minute slices simulated.
    pub slices: u64,
    /// Scheduler events processed across all slices (dispatches, context
    /// switches, IPIs, spawns, exits) — the throughput denominator the
    /// fleet bench reports as events/second.
    pub sim_events: u64,
    /// Fleet-wide latency distribution, every slice's sketch folded into
    /// one, with its relative-error bound. Present only when the run
    /// used [`TelemetryMode::Sketch`]; exact runs omit the key so
    /// pre-sketch fleet reports are byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency_sketch: Option<SketchSummary>,
    /// Resilience counters merged across every sampled slice (admission
    /// sheds, retries, hedges, breaker trips). Present only when a
    /// mechanism fired, so pre-resilience fleet reports are byte-stable.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceStats>,
}

impl FleetReport {
    /// True when every simulation-derived field matches bit-for-bit
    /// (wall-clock measurements excluded) — the equality the parallel ==
    /// serial guarantee promises. The determinism tests and this module's
    /// own unit tests all gate on this one walk so a new field cannot be
    /// forgotten by one of them.
    pub fn bits_eq(&self, other: &FleetReport) -> bool {
        fn series_eq(a: &TimeSeries, b: &TimeSeries) -> bool {
            a.len() == b.len()
                && (0..a.len()).all(|i| {
                    let (x, y) = (a.bucket(i).unwrap(), b.bucket(i).unwrap());
                    x.count == y.count
                        && x.sum.to_bits() == y.sum.to_bits()
                        && x.max.to_bits() == y.max.to_bits()
                })
        }
        self.mean_utilization.to_bits() == other.mean_utilization.to_bits()
            && self.max_p99 == other.max_p99
            && self.slices == other.slices
            && self.sim_events == other.sim_events
            && self.resilience == other.resilience
            && match (&self.latency_sketch, &other.latency_sketch) {
                (None, None) => true,
                (Some(a), Some(b)) => a.bits_eq(b),
                _ => false,
            }
            && series_eq(&self.qps, &other.qps)
            && series_eq(&self.p99_ms, &other.p99_ms)
            && series_eq(&self.utilization_pct, &other.utilization_pct)
            && series_eq(&self.trainer_progress, &other.trainer_progress)
    }
}

/// One slice's scalar measurements: what the ordered floating-point
/// reduction reads, kept for every slice until the sweep ends.
struct SliceResult {
    utilization: f64,
    p99: SimDuration,
    minibatches_per_min: f64,
    events: u64,
}

/// The tallies a slice adds to the fleet by integer addition: its latency
/// sketch (when the run uses sketch telemetry) and its resilience
/// counters. One accumulator of this type collects every slice's as the
/// slice finishes.
#[derive(Default)]
struct SliceTallies {
    sketch: Option<Sketch>,
    resilience: ResilienceStats,
}

impl SliceTallies {
    /// Folds one slice's tallies in. [`Sketch::merge`] adds counters over
    /// the union of windows and reconciles min and max, so the folded
    /// sketch is the same whatever order the slices arrive in.
    fn fold(&mut self, slice: SliceTallies) {
        if let Some(sketch) = &slice.sketch {
            self.sketch.get_or_insert_with(Sketch::new).merge(sketch);
        }
        self.resilience.merge(&slice.resilience);
    }
}

/// Immutable inputs shared by every slice (and every worker thread).
struct FleetShared {
    service: Arc<ServiceConfig>,
    perfiso: Arc<PerfIsoConfig>,
    /// Stamps each minute's trace. All of a minute's sampled machines
    /// replay the same trace under independent arrival processes.
    generator: TraceGenerator,
    /// Hardware cycle; sampled machine `s` runs shape `s % len`.
    machines: Vec<MachineConfig>,
    /// The base seed avalanched through [`splitmix64`]; slice streams
    /// derive from this.
    ///
    /// Multi-seed sweeps hand this driver consecutive base seeds (`seed`,
    /// `seed + 1`, …). Deriving per-slice streams by XORing the raw base
    /// with small `(minute, machine)` indices would make adjacent
    /// repetitions share slice seeds exactly (`base ^ 1 == (base + 1) ^ 0`
    /// whenever the low bit is clear), silently collapsing their
    /// "independent" samples. Avalanching the base first makes nearby
    /// seeds differ across all 64 bits.
    mixed_seed: u64,
}

impl FleetShared {
    fn new(cfg: &FleetConfig) -> Self {
        FleetShared {
            service: Arc::new(ServiceConfig::default()),
            perfiso: Arc::new(cfg.perfiso.clone()),
            generator: TraceGenerator::new(TraceConfig {
                queries: 16,
                ..Default::default()
            }),
            machines: if cfg.shapes.is_empty() {
                vec![MachineConfig::paper_server()]
            } else {
                cfg.shapes.clone()
            },
            mixed_seed: splitmix64(cfg.seed),
        }
    }
}

/// Resolves a thread-count knob: `0` means all available cores.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `n` independent jobs across `workers` threads (work-stealing by
/// atomic index) and returns the results in job order. With one worker
/// the jobs run inline; either way `results[i]` is `job(i)`, so callers'
/// reductions are bit-identical across thread counts.
pub fn fan_out<T: Send>(n: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut results: Vec<Option<T>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    if workers <= 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(job(i));
        }
    } else {
        let next = AtomicUsize::new(0);
        let job = &job;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= n {
                                break;
                            }
                            out.push((idx, job(idx)));
                        }
                        out
                    })
                })
                .collect();
            for handle in handles {
                for (idx, r) in handle.join().expect("fan-out worker panicked") {
                    results[idx] = Some(r);
                }
            }
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect()
}

/// Number of queries to pre-generate for one slice at `qps`.
fn slice_queries(qps: f64, total: SimDuration) -> usize {
    (qps * total.as_secs_f64() * 1.05) as usize + 8
}

const WARMUP: SimDuration = SimDuration::from_millis(250);

/// Runs the fleet experiment.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let stride = cfg.minute_stride.max(1);
    let shared = FleetShared::new(cfg);

    let n_slices = (cfg.minutes * cfg.sampled_machines) as usize;
    let tallies = Mutex::new(SliceTallies::default());
    let run_slice = |idx: usize| -> SliceResult {
        let m = (idx as u32) / cfg.sampled_machines;
        let s = (idx as u32) % cfg.sampled_machines;
        let (result, slice) = run_fleet_slice(cfg, &shared, m, s);
        tallies
            .lock()
            .expect("no slice panics while folding")
            .fold(slice);
        result
    };

    let workers = effective_threads(cfg.threads).min(n_slices.max(1));
    let results = fan_out(n_slices, workers, run_slice);
    let tallies = tallies.into_inner().expect("every worker has joined");

    // Serial reduction in slice-index order: identical arithmetic to the
    // fully serial sweep, so parallel output is bit-for-bit the same.
    let minute = SimDuration::from_secs(60 * stride as u64);
    let mut report = FleetReport {
        qps: TimeSeries::new(minute),
        p99_ms: TimeSeries::new(minute),
        utilization_pct: TimeSeries::new(minute),
        trainer_progress: TimeSeries::new(minute),
        mean_utilization: 0.0,
        max_p99: SimDuration::ZERO,
        slices: n_slices as u64,
        sim_events: 0,
        latency_sketch: None,
        resilience: None,
    };
    let mut util_acc = 0.0;
    let mut results = results.into_iter();
    for m in 0..cfg.minutes {
        let qps = cfg.curve.qps_at_minute(m * stride);
        let stamp = SimTime::from_secs(m as u64 * 60 * stride as u64);
        let mut minute_util = 0.0;
        let mut minute_p99 = SimDuration::ZERO;
        let mut minute_prog = 0.0;
        for _ in 0..cfg.sampled_machines {
            let r = results.next().expect("slice result present");
            minute_util += r.utilization / cfg.sampled_machines as f64;
            minute_p99 = minute_p99.max(r.p99);
            minute_prog += r.minibatches_per_min / cfg.sampled_machines as f64;
            report.sim_events += r.events;
        }
        report.qps.record(stamp, qps);
        report.p99_ms.record(stamp, minute_p99.as_millis_f64());
        report.utilization_pct.record(stamp, minute_util * 100.0);
        report.trainer_progress.record(stamp, minute_prog);
        util_acc += minute_util;
        report.max_p99 = report.max_p99.max(minute_p99);
    }
    report.mean_utilization = util_acc / cfg.minutes as f64;
    report.latency_sketch = tallies.sketch.map(|s| s.summary());
    report.resilience = (!tallies.resilience.is_empty()).then_some(tallies.resilience);
    report
}

/// The tenant-churn decision for one machine-minute, derived purely from
/// the slice coordinates so it is identical across thread counts.
fn churned_trainer(cfg: &FleetConfig, shared: &FleetShared, m: u32, s: u32) -> Option<MlTrainer> {
    if !cfg.churn {
        return Some(cfg.trainer.clone());
    }
    let h = splitmix64(shared.mixed_seed ^ 0xC0FFEE ^ ((m as u64) << 20) ^ ((s as u64) << 2));
    if h.is_multiple_of(8) {
        // The bin-packer scheduled the batch job elsewhere this minute.
        return None;
    }
    // Worker count wobbles 0.5–1.5× around the configured trainer.
    let scale = 0.5 + ((h >> 8) % 101) as f64 / 100.0;
    let workers = ((cfg.trainer.workers as f64 * scale).round() as u32).max(1);
    Some(MlTrainer {
        workers,
        ..cfg.trainer.clone()
    })
}

/// Runs one sampled machine-minute: its scalar measurements and the
/// tallies it adds to the fleet.
fn run_fleet_slice(
    cfg: &FleetConfig,
    shared: &FleetShared,
    m: u32,
    s: u32,
) -> (SliceResult, SliceTallies) {
    let seed = shared.mixed_seed ^ ((m as u64) << 8) ^ s as u64;
    let qps = cfg.curve.qps_at_minute(m * cfg.minute_stride.max(1));
    let box_cfg = BoxConfig {
        machine: shared.machines[s as usize % shared.machines.len()],
        service: Arc::clone(&shared.service),
        hosted: Vec::new(),
        // The trainer is spawned via the generic CPU-bully hook: fleet
        // sampling reuses BoxSim by running the trainer as a custom
        // secondary below.
        secondary: SecondaryKind::none(),
        perfiso: Some(Arc::clone(&shared.perfiso)),
        telemetry: cfg.telemetry,
        resilience: cfg.resilience.clone(),
        seed,
        fault: None,
    };
    let trace = shared.generator.generate_n(
        shared.mixed_seed ^ 0xF1EE7 ^ ((m as u64) << 8),
        slice_queries(qps, WARMUP + cfg.slice),
    );
    let mut client = OpenLoopClient::new(trace, qps, seed ^ 0xC1);
    let mut sim = BoxSim::new(box_cfg);
    // Spawn the (possibly churned-away or rescaled) trainer into the
    // secondary job.
    let handle = churned_trainer(cfg, shared, m, s).map(|trainer| {
        let (machine, job) = sim.secondary_spawn_access();
        trainer.spawn(machine, job, SimTime::ZERO)
    });
    if let Some(h) = &handle {
        sim.track_secondary_threads(&h.tids);
    }

    let warmup_end = SimTime::ZERO + WARMUP;
    let end = SimTime::ZERO + WARMUP + cfg.slice;
    let mut recorder = cfg.telemetry.recorder();
    let mut warm_snapshot = None;
    let mut prog_at_warm = 0;
    let mut events: Vec<BoxEvent> = Vec::with_capacity(64);

    let record_events =
        |sim: &mut BoxSim, events: &mut Vec<BoxEvent>, recorder: &mut LatencyRecorder| {
            sim.drain_events_into(events);
            for ev in events.drain(..) {
                if let BoxEvent::QueryDone(out) = ev {
                    if out.arrival >= warmup_end {
                        if out.dropped {
                            recorder.record_dropped();
                        } else {
                            recorder.record(out.latency);
                        }
                    }
                }
            }
        };

    while let Some(at) = client.next_arrival_time() {
        if at > end {
            break;
        }
        if warm_snapshot.is_none() && at >= warmup_end {
            sim.advance_to(warmup_end);
            warm_snapshot = Some(sim.breakdown());
            prog_at_warm = handle.as_ref().map_or(0, |h| h.minibatches());
        }
        let (_, spec) = client.pop().expect("peeked");
        sim.inject_query(at, spec);
        record_events(&mut sim, &mut events, &mut recorder);
    }
    sim.advance_to(end);
    record_events(&mut sim, &mut events, &mut recorder);
    // Snapshot the measurement window before the tail drain so the extra
    // simulated time never leaks into utilization or event counts.
    let warm = warm_snapshot.unwrap_or_else(|| sim.breakdown());
    let window = sim.breakdown().since(&warm);
    let stats = sim.machine_stats();
    let progress = handle.as_ref().map_or(0, |h| h.minibatches()) - prog_at_warm;
    // Stragglers still in flight at the slice end carry deadline events
    // past `end`; without this drain a query that times out there simply
    // vanishes and the sketch undercounts drops. Only drops are recorded
    // from the tail — completions past the slice end stay unrecorded,
    // exactly as before, so drop-free slices are byte-identical.
    let drain_end = end + sim.max_timeout();
    while sim.services_in_flight() > 0 {
        match sim.next_event_time() {
            Some(t) if t <= drain_end => sim.advance_to(t),
            _ => break,
        }
        sim.drain_events_into(&mut events);
        for ev in events.drain(..) {
            if let BoxEvent::QueryDone(out) = ev {
                if out.dropped && out.arrival >= warmup_end {
                    recorder.record_dropped();
                }
            }
        }
    }
    let result = SliceResult {
        utilization: window.utilization(),
        p99: recorder.percentile(0.99),
        minibatches_per_min: progress as f64 / cfg.slice.as_secs_f64() * 60.0,
        events: stats.dispatches + stats.ctx_switches + stats.ipis + stats.spawns + stats.exits,
    };
    let tallies = SliceTallies {
        sketch: recorder.take_sketch(),
        resilience: sim.resilience_report().unwrap_or_default(),
    };
    (result, tallies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_fleet_run_has_high_utilization() {
        let cfg = FleetConfig {
            minutes: 3,
            sampled_machines: 1,
            slice: SimDuration::from_millis(400),
            ..Default::default()
        };
        let r = run_fleet(&cfg);
        assert_eq!(r.qps.len(), 3);
        assert_eq!(r.slices, 3);
        assert!(r.sim_events > 0);
        assert!(
            r.mean_utilization > 0.5,
            "colocated fleet should be busy, got {}",
            r.mean_utilization
        );
        assert!(
            r.max_p99 < SimDuration::from_millis(25),
            "p99 stayed flat: {}",
            r.max_p99
        );
    }

    #[test]
    fn production_features_compose_and_stay_deterministic() {
        let base = FleetConfig {
            minutes: 4,
            sampled_machines: 3,
            slice: SimDuration::from_millis(150),
            minute_stride: 15,
            shapes: crate::topology::BoxShape::roster(
                &crate::topology::BoxShape::production_shapes(),
            ),
            churn: true,
            telemetry: TelemetryMode::Sketch,
            curve: DiurnalCurve::production_day(),
            ..Default::default()
        };
        let serial = run_fleet(&FleetConfig {
            threads: 1,
            ..base.clone()
        });
        let parallel = run_fleet(&FleetConfig {
            threads: 4,
            ..base.clone()
        });
        assert!(
            serial.bits_eq(&parallel),
            "production fleet report diverged between serial and parallel"
        );
        // Strided minutes stamp the series at 15-minute buckets.
        assert_eq!(serial.qps.len(), 4);
        assert_eq!(serial.qps.width(), SimDuration::from_secs(900));
        // The merged sketch covers every completed sample and carries
        // its error bound.
        let sk = serial.latency_sketch.expect("sketch telemetry on");
        assert!(sk.count > 0);
        assert!((sk.relative_error - telemetry::Sketch::RELATIVE_ERROR).abs() < 1e-12);
        assert!(sk.p99 >= sk.p50 && sk.max >= sk.p99);
        // Churn must actually vary the trainer mix: with 12 slices at
        // least one should run trainer-free (probability of none being
        // evicted is (7/8)^12 under the deterministic hash, and this
        // seed does evict some).
        let evicted = (0..12u32)
            .filter(|i| {
                let m = i / 3;
                let s = i % 3;
                let h = splitmix64(
                    splitmix64(base.seed) ^ 0xC0FFEE ^ ((m as u64) << 20) ^ ((s as u64) << 2),
                );
                h.is_multiple_of(8)
            })
            .count();
        assert!(evicted > 0, "seed 99 should evict at least one trainer");
    }

    /// The accumulator that slices fold into as they finish ends where a
    /// tree merge of every slice's own sketch ends, and its resilience
    /// counters equal their ordered sum, on one worker and on three.
    #[test]
    fn folded_tallies_equal_the_merge_tree_of_every_slice() {
        let cfg = FleetConfig {
            minutes: 4,
            sampled_machines: 3,
            slice: SimDuration::from_millis(150),
            minute_stride: 15,
            shapes: crate::topology::BoxShape::roster(
                &crate::topology::BoxShape::production_shapes(),
            ),
            churn: true,
            telemetry: TelemetryMode::Sketch,
            curve: DiurnalCurve::production_day(),
            // A tight admission cap, so every slice's counters are live.
            resilience: Some(Arc::new(ResiliencePolicy {
                admission: Some(workloads::AdmissionPolicy {
                    max_in_flight: 4,
                    queue_depth: 2,
                }),
                ..Default::default()
            })),
            ..Default::default()
        };
        let shared = FleetShared::new(&cfg);
        let mut sketches = Vec::new();
        let mut resilience = ResilienceStats::default();
        for m in 0..cfg.minutes {
            for s in 0..cfg.sampled_machines {
                let (_, slice) = run_fleet_slice(&cfg, &shared, m, s);
                sketches.push(slice.sketch.expect("sketch telemetry on"));
                resilience.merge(&slice.resilience);
            }
        }
        let merged = Sketch::merge_tree(sketches).expect("12 slices").summary();
        assert!(merged.count > 0 && merged.dropped > 0, "{merged:?}");
        assert!(resilience.sheds > 0, "{resilience:?}");
        for threads in [1, 3] {
            let report = run_fleet(&FleetConfig {
                threads,
                ..cfg.clone()
            });
            let folded = report.latency_sketch.expect("sketch telemetry on");
            assert!(
                folded.bits_eq(&merged),
                "threads {threads}: {folded:?} against {merged:?}"
            );
            assert_eq!(report.resilience, Some(resilience), "threads {threads}");
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let base = FleetConfig {
            minutes: 4,
            sampled_machines: 2,
            slice: SimDuration::from_millis(150),
            ..Default::default()
        };
        let serial = run_fleet(&FleetConfig {
            threads: 1,
            ..base.clone()
        });
        let parallel = run_fleet(&FleetConfig { threads: 4, ..base });
        assert!(
            serial.bits_eq(&parallel),
            "parallel fleet report diverged from serial"
        );
    }
}
