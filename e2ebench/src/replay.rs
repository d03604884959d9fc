//! The three workloads, each driven through the layers' public APIs:
//! `qtrace` → `indexserve::BoxSim` / `cluster::ClusterSim` /
//! `cluster::fleet::run_fleet` → `telemetry`.
//!
//! Every replay takes only the workload seed. The simulators receive the
//! spec-resolved configuration and the generated trace, nothing else.

use std::sync::Arc;
use std::time::Instant;

use cluster::fleet::run_fleet;
use cluster::{ClusterSim, FleetConfig, Topology};
use indexserve::{BoxConfig, BoxEvent, BoxReport, BoxSim, SecondaryKind, ServiceConfig};
use qtrace::{OpenLoopClient, TraceConfig, TraceGenerator};
use scenarios::spec::{
    run_spec, CurveSpec, FleetProductionSpec, RunOptions, ScenarioSpec, SeedReport, TelemetrySpec,
};
use scenarios::Policy;
use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use telemetry::{CpuBreakdown, LatencyRecorder, Sketch};
use workloads::BullyIntensity;

use crate::alloc;
use crate::spans::Spans;

/// `box-colocated`: the `fig05` cell at its bench window.
const BOX_QPS: f64 = 2_000.0;
const BOX_WARMUP_MS: u64 = 500;
const BOX_MEASURE_MS: u64 = 6_000;

/// `cluster-fig09`: the paper cluster at the Fig 9 load, shortened window.
const CLUSTER_QPS: f64 = 8_000.0;
const CLUSTER_WARMUP_MS: u64 = 40;
const CLUSTER_MEASURE_MS: u64 = 60;

/// `fleet-day`: the `fleet-production` day over a sixth of its slices.
pub const FLEET_THREADS: usize = 2;
const FLEET_MINUTES: u32 = 48;
const FLEET_SAMPLED: u32 = 4;
const FLEET_SLICE_MS: u64 = 300;
/// Spec resolutions timed per fleet set-up sample: one takes microseconds.
const FLEET_SETUP_BATCH: u32 = 4_096;

/// One repetition of a workload.
pub struct Rep {
    /// Host seconds before the first simulated event.
    pub setup_s: f64,
    /// Host seconds of the simulation after set-up.
    pub wall_s: f64,
    /// Peak live heap above the level at the start of the repetition.
    pub peak_bytes: u64,
    /// The serialized report; repetitions of one seed must match it.
    pub report: String,
    /// Simulated queries resolved (completed or dropped).
    pub resolved: u64,
    /// Simulated primary p99, milliseconds.
    pub sim_p99_ms: f64,
    /// Simulated mean CPU utilisation, percent.
    pub sim_util_pct: f64,
    /// Simulated drops over resolved queries.
    pub sim_drop_frac: f64,
    /// Public layer counters read after the run.
    pub counters: Vec<(&'static str, f64)>,
}

fn ms(d: SimDuration) -> f64 {
    d.as_millis_f64()
}

// ---------------------------------------------------------------- box ---

/// The `box-colocated` spec for one seed.
pub fn box_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder("box-colocated")
        .single_box(BOX_QPS)
        .cpu_bully(BullyIntensity::High)
        .policy(Policy::Blind { buffer_cores: 8 })
        .custom_scale(BOX_WARMUP_MS, BOX_MEASURE_MS)
        .seed(seed)
        .build()
        .expect("box-colocated spec is valid")
}

/// Drains box events into the measured-window recorder and checks that
/// every injected query resolves exactly once.
struct Collector {
    rec: LatencyRecorder,
    warmup_end: SimTime,
    events: Vec<BoxEvent>,
    /// Per query index: its `QueryDone` has been seen.
    done: Vec<bool>,
    /// `QueryDone`s for an unknown or already-resolved query.
    duplicates: u64,
    resolved: u64,
    box_events: u64,
    records: u64,
}

impl Collector {
    fn drain<S: Spans>(&mut self, sim: &mut BoxSim, s: &mut S) {
        s.open("indexserve.drain");
        sim.drain_events_into(&mut self.events);
        s.close();
        s.open("telemetry.record");
        for ev in self.events.drain(..) {
            self.box_events += 1;
            let BoxEvent::QueryDone(out) = ev else {
                continue;
            };
            match self.done.get_mut(out.qidx as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => self.duplicates += 1,
            }
            self.resolved += 1;
            if out.arrival >= self.warmup_end {
                self.records += 1;
                if out.dropped {
                    self.rec.record_dropped();
                } else {
                    self.rec.record(out.latency);
                }
            }
        }
        s.close();
    }
}

/// One `box-colocated` repetition: the same replay as
/// `indexserve::boxsim::run_standalone`, with each layer call in a span and
/// query and CPU conservation checked at the end.
pub fn box_rep<S: Spans>(seed: u64, s: &mut S) -> Result<Rep, String> {
    let base = alloc::reset_peak();
    let t0 = Instant::now();
    s.open("bench.setup");
    let spec = box_spec(seed);
    let plan = spec.run_plan().expect("single-box spec");
    let cfg = spec.box_config(seed).expect("single-box spec");
    let total = plan.warmup + plan.measure;
    let n_queries = (plan.qps * total.as_secs_f64() * 1.05) as usize + 16;
    s.open("qtrace.generate");
    let trace = TraceGenerator::new(TraceConfig {
        queries: n_queries,
        ..plan.trace.clone()
    })
    .generate(seed ^ 0x7ACE);
    let mut client = OpenLoopClient::new(trace, plan.qps, seed ^ 0xC1);
    s.close();
    let cores = u64::from(cfg.machine.cores);
    let mode = cfg.telemetry;
    s.open("indexserve.new");
    let mut sim = BoxSim::new(cfg);
    s.close();
    s.close();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    s.open("bench.run");
    let warmup_end = SimTime::ZERO + plan.warmup;
    let end = SimTime::ZERO + total;
    let mut col = Collector {
        rec: mode.recorder(),
        warmup_end,
        events: Vec::with_capacity(64),
        done: vec![false; n_queries],
        duplicates: 0,
        resolved: 0,
        box_events: 0,
        records: 0,
    };
    let mut warm: Option<(CpuBreakdown, SimDuration, u64)> = None;
    let (mut injected, mut measured, mut misnumbered) = (0u64, 0u64, 0u64);
    let snapshot = |sim: &BoxSim| {
        Some((
            sim.breakdown(),
            sim.secondary_cpu_time(),
            sim.workers_spawned(),
        ))
    };
    while let Some(at) = client.next_arrival_time() {
        if at > end {
            break;
        }
        if warm.is_none() && at >= warmup_end {
            s.open("indexserve.advance");
            sim.advance_to(warmup_end);
            s.close();
            col.drain(&mut sim, s);
            warm = snapshot(&sim);
        }
        let (_, query) = client.pop().expect("peeked arrival");
        s.open("indexserve.advance");
        sim.advance_to(at);
        s.close();
        s.open("indexserve.inject");
        let qidx = sim.inject_query(at, query);
        s.close();
        misnumbered += u64::from(qidx != injected);
        injected += 1;
        col.drain(&mut sim, s);
        if at >= warmup_end {
            measured += 1;
        }
    }
    if warm.is_none() {
        s.open("indexserve.advance");
        sim.advance_to(warmup_end);
        s.close();
        col.drain(&mut sim, s);
        warm = snapshot(&sim);
    }
    // Let the tail drain one timeout beyond the end, as the library does.
    s.open("indexserve.advance");
    sim.advance_to(end + sim.max_timeout());
    s.close();
    col.drain(&mut sim, s);
    let (warm_bd, warm_cpu, warm_workers) = warm.expect("warm-up snapshot taken");
    s.open("telemetry.record");
    let latency = col.rec.summary();
    let latency_sketch = col.rec.sketch_summary();
    s.close();
    let report = BoxReport {
        qps: plan.qps,
        latency,
        latency_sketch,
        breakdown: sim.breakdown().since(&warm_bd),
        secondary_cpu: sim.secondary_cpu_time().saturating_sub(warm_cpu),
        avg_fanout: if measured == 0 {
            0.0
        } else {
            (sim.workers_spawned() - warm_workers) as f64 / measured as f64
        },
        machine: sim.machine_stats(),
        controller: sim.controller_stats(),
        faults: sim.take_fault_records(),
        services: Vec::new(),
        resilience: sim.resilience_report(),
    };
    s.close();
    let wall_s = t1.elapsed().as_secs_f64();
    let peak_bytes = alloc::peak_above(base);

    if misnumbered != 0 || col.duplicates != 0 || col.resolved != injected {
        return Err(format!(
            "query conservation: {injected} injected, {} resolved, {} duplicate or unknown \
             completions, {misnumbered} out-of-order query indices",
            col.resolved, col.duplicates
        ));
    }
    let lat = &report.latency;
    if lat.count + lat.dropped != measured {
        return Err(format!(
            "measured window: {} completed + {} dropped != {measured} injected",
            lat.count, lat.dropped
        ));
    }
    let bd = &report.breakdown;
    let accounted = bd.primary + bd.secondary + bd.os + bd.idle;
    let expected = (sim.now() - warmup_end).as_nanos() * cores;
    if accounted.as_nanos() != expected {
        return Err(format!(
            "CPU accounting: primary+secondary+os+idle = {} ns, window x cores = {expected} ns",
            accounted.as_nanos()
        ));
    }

    let m = report.machine;
    let arena = sim.arena_stats();
    let ctl = report.controller.unwrap_or_default();
    let sched_events = m.dispatches + m.ctx_switches + m.ipis + m.spawns + m.exits;
    let counters = vec![
        ("qtrace.queries", n_queries as f64),
        ("indexserve.new_calls", 1.0),
        ("indexserve.events", col.box_events as f64),
        ("indexserve.workers_spawned", sim.workers_spawned() as f64),
        ("simcpu.dispatches", m.dispatches as f64),
        ("simcpu.ctx_switches", m.ctx_switches as f64),
        ("simcpu.ipis", m.ipis as f64),
        ("simcpu.spawns", m.spawns as f64),
        ("simcpu.exits", m.exits as f64),
        ("simcpu.sched_events", sched_events as f64),
        ("simcpu.arena_reuse_frac", arena.reuse_rate()),
        ("simcpu.arena_slab_steps", arena.slab_steps as f64),
        ("core.cpu_polls", ctl.cpu_polls as f64),
        ("core.affinity_updates", ctl.affinity_updates as f64),
        (
            "core.affinity_update_frac",
            ratio(ctl.affinity_updates as f64, ctl.cpu_polls as f64),
        ),
        ("core.io_rounds", ctl.io_rounds as f64),
        ("core.io_adjustments", ctl.io_adjustments as f64),
        ("core.memory_kills", ctl.memory_kills as f64),
        ("telemetry.records", col.records as f64),
    ];
    Ok(Rep {
        setup_s,
        wall_s,
        peak_bytes,
        report: serde_json::to_string(&report).expect("box report serializes"),
        resolved: col.resolved,
        sim_p99_ms: ms(report.latency.p99),
        sim_util_pct: report.breakdown.utilization() * 100.0,
        sim_drop_frac: report.drop_ratio(),
        counters,
    })
}

// ------------------------------------------------------------ cluster ---

/// The `cluster-fig09` spec for one seed.
pub fn cluster_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder("cluster-fig09")
        .cluster(Topology::paper_cluster(), CLUSTER_QPS)
        .cpu_bully(BullyIntensity::High)
        .hdfs()
        .policy(Policy::FullPerfIso)
        .custom_scale(CLUSTER_WARMUP_MS, CLUSTER_MEASURE_MS)
        .seed(seed)
        .build()
        .expect("cluster-fig09 spec is valid")
}

/// One `cluster-fig09` repetition with `threads` box-advance workers.
pub fn cluster_rep<S: Spans>(seed: u64, threads: usize, s: &mut S) -> Result<Rep, String> {
    let base = alloc::reset_peak();
    let t0 = Instant::now();
    s.open("bench.setup");
    let cfg = cluster_spec(seed)
        .cluster_config(seed, threads)
        .expect("cluster spec");
    s.open("cluster.new");
    let sim = ClusterSim::new(cfg);
    s.close();
    s.close();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    s.open("bench.run");
    s.open("cluster.run");
    let r = sim.run();
    s.close();
    s.close();
    let wall_s = t1.elapsed().as_secs_f64();
    let peak_bytes = alloc::peak_above(base);
    if r.completed == 0 {
        return Err("cluster completed no requests".into());
    }
    Ok(Rep {
        setup_s,
        wall_s,
        peak_bytes,
        report: serde_json::to_string(&r).expect("cluster report serializes"),
        resolved: r.completed,
        sim_p99_ms: ms(r.tla.p99),
        sim_util_pct: r.mean_utilization * 100.0,
        sim_drop_frac: r.degraded as f64 / r.completed as f64,
        counters: vec![
            ("cluster.sim_local_p99_ms", ms(r.local.p99)),
            ("cluster.sim_mla_p99_ms", ms(r.mla.p99)),
            ("cluster.sim_tla_p99_ms", ms(r.tla.p99)),
            ("cluster.degraded", r.degraded as f64),
        ],
    })
}

// -------------------------------------------------------------- fleet ---

/// The `fleet-day` spec for one seed: `fleet-production`'s shape (24-hour
/// production curve, heterogeneous roster, tenant churn, sketch
/// telemetry, ML trainer) over fewer slices.
pub fn fleet_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder("fleet-day")
        .fleet(FLEET_MINUTES, FLEET_SAMPLED, FLEET_SLICE_MS)
        .fleet_machines(10_000)
        .curve(CurveSpec::ProductionDay)
        .production(FleetProductionSpec {
            minute_stride: 1_440 / FLEET_MINUTES,
            heterogeneous_shapes: true,
            tenant_churn: true,
        })
        .telemetry(TelemetrySpec::Sketch)
        .policy(Policy::Blind { buffer_cores: 8 })
        .seed(seed)
        .build()
        .expect("fleet-day spec is valid")
}

/// The fleet configuration, resolved from the spec.
pub fn fleet_config(seed: u64, threads: usize) -> FleetConfig {
    fleet_spec(seed)
        .fleet_config(seed, threads)
        .expect("fleet spec")
}

/// One `fleet-day` repetition on `threads` slice workers. Set-up is only
/// spec → config resolution (per-slice set-up happens inside the run), so
/// it is timed over a batch and reported per resolution.
pub fn fleet_rep<S: Spans>(seed: u64, threads: usize, s: &mut S) -> Result<Rep, String> {
    let base = alloc::reset_peak();
    let t0 = Instant::now();
    s.open("bench.setup");
    let mut cfg = fleet_config(seed, threads);
    for _ in 1..FLEET_SETUP_BATCH {
        cfg = std::hint::black_box(fleet_config(seed, threads));
    }
    s.close();
    let setup_s = t0.elapsed().as_secs_f64() / f64::from(FLEET_SETUP_BATCH);

    let t1 = Instant::now();
    s.open("bench.run");
    s.open("fleet.run");
    let r = run_fleet(&cfg);
    s.close();
    s.close();
    let wall_s = t1.elapsed().as_secs_f64();
    let peak_bytes = alloc::peak_above(base);
    let Some(sk) = r.latency_sketch else {
        return Err("fleet-day runs sketch telemetry but reported no sketch".into());
    };
    if r.slices != u64::from(cfg.minutes * cfg.sampled_machines) {
        return Err(format!("fleet ran {} slices", r.slices));
    }
    let resolved = sk.count + sk.dropped;
    Ok(Rep {
        setup_s,
        wall_s,
        peak_bytes,
        report: serde_json::to_string(&r).expect("fleet report serializes"),
        resolved,
        sim_p99_ms: ms(sk.p99),
        sim_util_pct: r.mean_utilization * 100.0,
        sim_drop_frac: ratio(sk.dropped as f64, resolved as f64),
        counters: vec![
            ("fleet.slices", r.slices as f64),
            ("fleet.sim_events", r.sim_events as f64),
        ],
    })
}

// -------------------------------------------------------- cross-check ---

/// The report `scenarios::spec::run_spec` produces for the workload's spec
/// and seed, serialized like the benchmark's own replays serialize theirs.
pub fn spec_report(workload: &str, seed: u64) -> String {
    let (spec, threads) = match workload {
        "box-colocated" => (box_spec(seed), 1),
        "cluster-fig09" => (cluster_spec(seed), 1),
        _ => (fleet_spec(seed), FLEET_THREADS),
    };
    let report = run_spec(
        &spec,
        &RunOptions {
            seeds: None,
            threads,
        },
    )
    .expect("workload spec runs");
    match &report.runs[0] {
        SeedReport::SingleBox(r) => serde_json::to_string(r),
        SeedReport::Cluster(r) => serde_json::to_string(r),
        SeedReport::Fleet(r) => serde_json::to_string(r),
    }
    .expect("report serializes")
}

// ------------------------------------------------------------- probes ---
//
// Layer timings that the workloads' own calls cannot isolate, measured by
// calling the same public functions on inputs of the same shape outside
// the run.

/// `EventQueue` churn at a steady pending population, in a
/// `simcore.queue` span; returns the ops made (one push or one pop each).
/// Delays mix the simulators' regimes: microsecond thread wakes,
/// millisecond slices and polls, and rare seconds-scale timers.
pub fn queue_ops<S: Spans>(s: &mut S) -> u64 {
    const POPULATION: u64 = 4_096;
    const ROUNDS: u64 = 1_000_000;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(POPULATION as usize);
    let mut rng = SimRng::seed_from_u64(0x077E_E150);
    let delay = |rng: &mut SimRng| {
        let r = rng.next_f64();
        if r < 0.70 {
            SimDuration::from_nanos(rng.range_u64(500, 64_000))
        } else if r < 0.95 {
            SimDuration::from_micros(rng.range_u64(500, 2_000))
        } else {
            SimDuration::from_millis(rng.range_u64(100, 2_000))
        }
    };
    for i in 0..POPULATION {
        let d = delay(&mut rng);
        q.push(SimTime::ZERO + d, i);
    }
    s.open("simcore.queue");
    for i in 0..ROUNDS {
        let (now, token) = q.pop().expect("steady population");
        std::hint::black_box(token);
        let d = delay(&mut rng);
        q.push(now + d, i);
    }
    s.close();
    2 * ROUNDS
}

/// Builds the cluster's index boxes one `indexserve.new` span each;
/// returns how many.
pub fn cluster_box_new<S: Spans>(seed: u64, s: &mut S) -> f64 {
    let cfg = cluster_spec(seed)
        .cluster_config(seed, 1)
        .expect("cluster spec");
    let n = cfg.topology.index_machines();
    let service = Arc::new(cfg.service.clone());
    let perfiso = cfg.perfiso.clone().map(Arc::new);
    for i in 0..n {
        let c = BoxConfig {
            machine: cfg.machine,
            service: Arc::clone(&service),
            hosted: Vec::new(),
            secondary: cfg.secondary.clone(),
            perfiso: perfiso.clone(),
            fault: None,
            telemetry: cfg.telemetry,
            resilience: cfg.resilience.clone(),
            seed: seed ^ u64::from(i),
        };
        s.open("indexserve.new");
        std::hint::black_box(BoxSim::new(c));
        s.close();
    }
    f64::from(n)
}

/// Generates, in a `qtrace.generate` span, the trace the cluster run
/// generates internally; returns its length.
pub fn cluster_trace<S: Spans>(seed: u64, s: &mut S) -> f64 {
    let cfg = cluster_spec(seed)
        .cluster_config(seed, 1)
        .expect("cluster spec");
    let total = cfg.warmup + cfg.measure;
    let n = (cfg.qps_total * total.as_secs_f64() * 1.02) as usize + 8;
    s.open("qtrace.generate");
    let trace = TraceGenerator::new(TraceConfig {
        queries: n,
        ..TraceConfig::default()
    })
    .generate(seed ^ 0x7ACE);
    s.close();
    trace.len() as f64
}

/// Builds one box per slice of a fleet run (its roster shape), one
/// `indexserve.new` span each; returns how many.
pub fn fleet_box_new<S: Spans>(cfg: &FleetConfig, s: &mut S) -> u64 {
    let service = Arc::new(ServiceConfig::default());
    let perfiso = Arc::new(cfg.perfiso.clone());
    let slices = cfg.minutes * cfg.sampled_machines;
    for idx in 0..slices {
        let c = BoxConfig {
            machine: cfg.shapes[(idx % cfg.sampled_machines) as usize % cfg.shapes.len()],
            service: Arc::clone(&service),
            hosted: Vec::new(),
            secondary: SecondaryKind::none(),
            perfiso: Some(Arc::clone(&perfiso)),
            fault: None,
            telemetry: cfg.telemetry,
            resilience: cfg.resilience.clone(),
            seed: cfg.seed ^ u64::from(idx),
        };
        s.open("indexserve.new");
        std::hint::black_box(BoxSim::new(c));
        s.close();
    }
    u64::from(slices)
}

/// Generates one trace template per fleet minute, one `qtrace.generate`
/// span each; returns the queries generated.
pub fn fleet_templates<S: Spans>(cfg: &FleetConfig, s: &mut S) -> u64 {
    let generator = TraceGenerator::new(TraceConfig::default());
    let total = SimDuration::from_millis(250) + cfg.slice;
    let mut queries = 0u64;
    for m in 0..cfg.minutes {
        let qps = cfg.curve.qps_at_minute(m * cfg.minute_stride.max(1));
        let n = (qps * total.as_secs_f64() * 1.05) as usize + 8;
        s.open("qtrace.generate");
        queries += generator.generate_n(cfg.seed ^ u64::from(m), n).len() as u64;
        s.close();
    }
    queries
}

/// Tree-merges one latency sketch per slice (each holding a slice's worth
/// of 1–21 ms samples) in a `telemetry.sketch_merge` span.
pub fn sketch_merge<S: Spans>(slices: u64, seed: u64, s: &mut S) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5EE7C4);
    let parts: Vec<Sketch> = (0..slices)
        .map(|_| {
            let mut sk = Sketch::new();
            for _ in 0..500 {
                sk.record(SimDuration::from_micros(rng.range_u64(1_000, 21_000)));
            }
            sk
        })
        .collect();
    s.open("telemetry.sketch_merge");
    let merged = Sketch::merge_tree(parts).expect("at least one slice");
    s.close();
    assert_eq!(merged.count(), slices * 500, "merge keeps every sample");
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
