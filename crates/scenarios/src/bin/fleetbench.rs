//! Fleet throughput benchmark: the perf gate for the simulation hot path.
//!
//! Runs the Fig 10 fleet sweep serially three times (keeping the
//! median-wall run, so one noisy timing cannot flap the regression check)
//! and once in parallel (`--threads 0`, all cores), asserts the reports
//! are bit-identical, and reports wall-clock, slices/second, scheduler
//! events/second, and the parallel speedup. A `fleet-production` probe
//! runs the 24-hour production-day scenario with sketch telemetry and
//! reports its events/second and peak-memory high-water. A single-box run under a counting allocator reports
//! allocations per simulated second for the inner step loop. Both
//! experiments are described by [`ScenarioSpec`]s and executed through
//! [`scenarios::spec::run_spec`].
//!
//! Results go to stdout as a table and to `BENCH_fleet.json` (override the
//! path with `PERFISO_BENCH_OUT`) so CI can archive the trajectory. When a
//! previous report exists at the output path (the committed baseline), the
//! allocs/sim-second delta against it is printed, with an
//! `ALLOC-REGRESSION WARNING` line past a 10 % regression that CI surfaces
//! as a non-gating annotation. (Throughput numbers are wall-clock-noisy on
//! shared runners, so only the deterministic allocation count is gated.)
//! Pass `--smoke` for a seconds-scale configuration suitable as a CI gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cluster::fleet::FleetReport;
use indexserve::{BoxConfig, BoxSim, SecondaryKind};
use perfiso::PerfIsoConfig;
use qtrace::{OpenLoopClient, TraceConfig, TraceGenerator};
use scenarios::spec::{run_spec, RunOptions, ScenarioSpec, TargetSpec};
use scenarios::Policy;
use serde_json::{json, Value};
use simcore::{EventQueue, SimDuration, SimRng, SimTime};
use telemetry::table::Table;
use workloads::BullyIntensity;

/// Counts every heap allocation made through the global allocator, and
/// tracks live bytes so sections can report their peak-memory high-water
/// (the bounded-telemetry evidence for the production fleet run).
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn track_alloc(size: u64) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        track_alloc(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Resets the peak-live-bytes high-water to the current live level and
/// returns that level; `peak_since(level)` after a section gives the
/// section's own high-water delta.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

fn peak_since(level: u64) -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(level)
}

/// Allocation profile of one complete standalone single-box run — trace
/// generation, sim construction, and the step loop (the step loop
/// dominates at these window lengths): a colocated bully under blind
/// isolation, 2.3 simulated seconds, warmup included in the divisor.
///
/// Always runs at full scale, even under `--smoke` (it costs ~0.1 s wall):
/// a fixed window keeps allocs/sim-second comparable between the smoke CI
/// job and the committed full-mode baseline, because setup allocations
/// amortize over the same denominator.
fn singlebox_alloc_profile() -> Value {
    let measure = 2_000;
    let spec = ScenarioSpec::builder("allocprofile")
        .single_box(2_000.0)
        .cpu_bully(BullyIntensity::High)
        .policy(Policy::Blind { buffer_cores: 8 })
        .custom_scale(300, measure)
        .seed(4242)
        .build()
        .expect("valid spec");
    let sim_secs = (300 + measure) as f64 / 1_000.0;
    let (allocs_before, bytes_before) = alloc_snapshot();
    let wall = Instant::now();
    let report = run_spec(&spec, &RunOptions::serial()).expect("runnable spec");
    let wall = wall.elapsed().as_secs_f64();
    let (allocs_after, bytes_after) = alloc_snapshot();
    let allocs = allocs_after - allocs_before;
    let bytes = bytes_after - bytes_before;
    let queries = report.runs[0]
        .as_single_box()
        .expect("single box")
        .latency
        .count;
    println!(
        "single-box run (incl. setup): {:.0} allocs/sim-second ({:.1} MiB/sim-second), \
         {} queries completed, wall {:.2}s",
        allocs as f64 / sim_secs,
        bytes as f64 / sim_secs / (1 << 20) as f64,
        queries,
        wall,
    );
    json!({
        "sim_seconds": sim_secs,
        "allocations": allocs,
        "allocated_bytes": bytes,
        "allocations_per_sim_second": allocs as f64 / sim_secs,
        "queries_completed": queries,
        "wall_seconds": wall
    })
}

/// Drives one colocated single box directly (same shape as the alloc
/// profile scenario: high CPU bully, blind isolation with 8 buffer cores —
/// `PerfIsoConfig::default()` is exactly the profile's `Policy::Blind {
/// buffer_cores: 8 }` — same seed, same fixed window) and reads the
/// step-arena occupancy counters out of the live machine: slab high-water
/// and the range-reuse rate that makes the spawn path allocation-free.
fn arena_probe() -> Value {
    let measure_ms = 2_000;
    let cfg = BoxConfig::paper_box(
        SecondaryKind::cpu(BullyIntensity::High),
        Some(PerfIsoConfig::default()),
        4242,
    );
    let total = SimDuration::from_millis(300 + measure_ms);
    let qps = 2_000.0;
    let n_queries = (qps * total.as_secs_f64() * 1.05) as usize + 16;
    let trace = TraceGenerator::new(TraceConfig {
        queries: n_queries,
        ..TraceConfig::default()
    })
    .generate(cfg.seed ^ 0x7ACE);
    let mut client = OpenLoopClient::new(trace, qps, cfg.seed ^ 0xC1);
    let mut sim = BoxSim::new(cfg);
    let end = SimTime::ZERO + total;
    while let Some(at) = client.next_arrival_time() {
        if at > end {
            break;
        }
        let (_, spec) = client.pop().expect("peeked");
        sim.inject_query(at, spec);
    }
    sim.advance_to(end);
    let s = sim.arena_stats();
    println!(
        "step arena: {} slab steps high-water ({} KiB), {:.1}% range reuse \
         ({} ranges allocated, {} live at end)",
        s.slab_steps,
        s.slab_bytes / 1024,
        s.reuse_rate() * 100.0,
        s.ranges_allocated,
        s.live_ranges,
    );
    json!({
        "slab_steps_high_water": s.slab_steps,
        "slab_bytes_high_water": s.slab_bytes,
        "peak_live_ranges": s.peak_live_ranges,
        "ranges_allocated": s.ranges_allocated,
        "ranges_reused": s.ranges_reused,
        "range_reuse_rate": s.reuse_rate(),
        "live_ranges_at_end": s.live_ranges
    })
}

/// Micro-probe of the `EventQueue` timer wheel in isolation: a steady
/// population of pending timers is cycled pop-earliest → push-replacement,
/// with replacement delays mixing the simulators' regimes (mostly
/// microsecond thread wakes, some millisecond slices and controller polls,
/// occasional seconds-scale far-future work that parks in the overflow
/// levels and cascades back down). Deterministic by seed; one op is one
/// push or one pop.
fn queue_probe() -> Value {
    const POPULATION: usize = 4096;
    const ROUNDS: u64 = 2_000_000;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(POPULATION);
    let mut rng = SimRng::seed_from_u64(0x077E_E150);
    let delay = |rng: &mut SimRng| -> SimDuration {
        let r = rng.next_f64();
        if r < 0.70 {
            SimDuration::from_nanos(rng.range_u64(500, 64_000))
        } else if r < 0.95 {
            SimDuration::from_micros(rng.range_u64(500, 2_000))
        } else {
            SimDuration::from_millis(rng.range_u64(100, 2_000))
        }
    };
    let mut now = SimTime::ZERO;
    for i in 0..POPULATION as u64 {
        let d = delay(&mut rng);
        q.push(now + d, i);
    }
    let wall = Instant::now();
    let mut checksum = 0u64;
    for i in 0..ROUNDS {
        let (at, token) = q.pop().expect("population is steady");
        debug_assert!(at >= now);
        now = at;
        checksum = checksum.wrapping_add(token).rotate_left(1);
        let d = delay(&mut rng);
        q.push(now + d, i);
    }
    let wall = wall.elapsed().as_secs_f64();
    let ops = 2 * ROUNDS; // one pop + one push per round
    let ops_per_second = ops as f64 / wall;
    println!(
        "queue probe: {:.1}M timer-wheel ops/s ({} pops + {} pushes over {} pending, \
         wall {:.2}s, checksum {:x})",
        ops_per_second / 1e6,
        ROUNDS,
        ROUNDS,
        POPULATION,
        wall,
        checksum,
    );
    json!({
        "population": POPULATION,
        "ops": ops,
        "wall_seconds": wall,
        "ops_per_second": ops_per_second
    })
}

struct FleetRun {
    wall: f64,
    allocs: u64,
    alloc_bytes: u64,
    peak_bytes: u64,
    report: FleetReport,
}

fn timed_fleet(spec: &ScenarioSpec, threads: usize) -> FleetRun {
    let (allocs_before, bytes_before) = alloc_snapshot();
    let live = reset_peak();
    let wall = Instant::now();
    let report = run_spec(
        spec,
        &RunOptions {
            seeds: None,
            threads,
        },
    )
    .expect("runnable spec");
    let wall = wall.elapsed().as_secs_f64();
    let (allocs_after, bytes_after) = alloc_snapshot();
    FleetRun {
        wall,
        allocs: allocs_after - allocs_before,
        alloc_bytes: bytes_after - bytes_before,
        peak_bytes: peak_since(live),
        report: report.runs[0].as_fleet().expect("fleet target").clone(),
    }
}

/// Runs the serial sweep `repeats` times and keeps the median-wall run.
/// Wall-clock throughput on shared runners is noisy; a single slow timing
/// used to flap the `EVENTS-REGRESSION WARNING` against the committed
/// baseline, so the regression check now judges the median of at least
/// three repeats. Every repeat is the same deterministic simulation — the
/// reports are asserted bit-identical along the way.
fn median_serial_fleet(spec: &ScenarioSpec, repeats: usize) -> FleetRun {
    assert!(repeats >= 3, "median needs at least 3 repeats");
    let mut runs: Vec<FleetRun> = (0..repeats).map(|_| timed_fleet(spec, 1)).collect();
    for r in &runs[1..] {
        assert!(
            runs[0].report.bits_eq(&r.report),
            "serial fleet repeats diverged"
        );
    }
    runs.sort_by(|a, b| a.wall.partial_cmp(&b.wall).expect("finite wall times"));
    runs.swap_remove(repeats / 2)
}

fn fleet_run_json(label: &str, threads: usize, run: &FleetRun) -> Value {
    let slices_per_sec = run.report.slices as f64 / run.wall;
    let events_per_sec = run.report.sim_events as f64 / run.wall;
    json!({
        "label": label,
        "threads": threads,
        "wall_seconds": run.wall,
        "slices": run.report.slices,
        "slices_per_second": slices_per_sec,
        "sim_events": run.report.sim_events,
        "events_per_second": events_per_sec,
        "allocations": run.allocs,
        "allocated_bytes": run.alloc_bytes,
        "peak_memory_bytes": run.peak_bytes,
        "allocations_per_slice": run.allocs as f64 / run.report.slices as f64,
        "allocations_per_sim_event": run.allocs as f64 / run.report.sim_events as f64,
        "mean_utilization": run.report.mean_utilization,
        "max_p99_ms": run.report.max_p99.as_millis_f64()
    })
}

/// Loads the previous report from `path` (the committed baseline) and
/// prints the deltas this run will be judged against: allocs/sim-second
/// for the single-box profile and fleet events/second for the serial run.
/// Returns the warning state for the JSON payload.
fn baseline_delta(path: &str, profile: &Value, smoke: bool, serial: &FleetRun) -> Value {
    let Ok(raw) = std::fs::read_to_string(path) else {
        println!("no committed baseline at {path}; skipping delta");
        return json!({ "available": false });
    };
    let Ok(base) = serde_json::from_str::<Value>(&raw) else {
        println!("unparsable baseline at {path}; skipping delta");
        return json!({ "available": false });
    };
    let allocs_per_sim_sec = profile["allocations_per_sim_second"]
        .as_f64()
        .expect("profile emitted");
    let base_allocs = base["singlebox_allocations"]["allocations_per_sim_second"].as_f64();
    let Some(base_allocs) = base_allocs else {
        println!("baseline at {path} lacks an alloc profile; skipping delta");
        return json!({ "available": false });
    };
    let alloc_ratio = allocs_per_sim_sec / base_allocs;
    // Setup allocations amortize over the profiled window, so the ratio is
    // only a regression signal when both runs profiled the same window
    // (always true since the profile window became fixed; guards against
    // comparing with an older variable-window baseline).
    let alloc_comparable =
        base["singlebox_allocations"]["sim_seconds"].as_f64() == profile["sim_seconds"].as_f64();
    let mode_note = if alloc_comparable {
        ""
    } else {
        " (baseline profiled a different window; not comparable, no regression check)"
    };
    println!(
        "vs committed baseline: {:.0} -> {:.0} allocs/sim-second ({:+.1}%){}",
        base_allocs,
        allocs_per_sim_sec,
        (alloc_ratio - 1.0) * 100.0,
        mode_note,
    );
    let alloc_regressed = alloc_comparable && alloc_ratio > 1.10;
    if alloc_regressed {
        println!(
            "ALLOC-REGRESSION WARNING: allocs/sim-second {:.1}% above the \
             committed baseline (threshold 10%)",
            (alloc_ratio - 1.0) * 100.0,
        );
    }

    // Fleet throughput: events/second of the serial run vs the baseline's.
    // This is a wall-clock rate, so it is warn-only like the alloc check,
    // and only compared when the baseline ran the same fleet configuration
    // (the committed baseline is full-mode; a --smoke run reports the delta
    // as informational only).
    let events_per_sec = serial.report.sim_events as f64 / serial.wall;
    let base_events = base["runs"][0]["events_per_second"].as_f64();
    let (events_ratio, events_comparable, events_regressed) = match base_events {
        Some(base_events) if base_events > 0.0 => {
            let ratio = events_per_sec / base_events;
            let comparable = base["smoke"].as_bool() == Some(smoke);
            let mode_note = if comparable {
                ""
            } else {
                " (baseline ran a different fleet configuration; informational only)"
            };
            println!(
                "vs committed baseline: {:.2}M -> {:.2}M fleet events/second ({:+.1}%){}",
                base_events / 1e6,
                events_per_sec / 1e6,
                (ratio - 1.0) * 100.0,
                mode_note,
            );
            let regressed = comparable && ratio < 0.90;
            if regressed {
                println!(
                    "EVENTS-REGRESSION WARNING: fleet events/second {:.1}% below the \
                     committed baseline (threshold 10%)",
                    (1.0 - ratio) * 100.0,
                );
            }
            (Some(ratio), comparable, regressed)
        }
        _ => {
            println!("baseline at {path} lacks an events/second figure; skipping throughput delta");
            (None, false, false)
        }
    };

    json!({
        "available": true,
        "comparable": alloc_comparable,
        "baseline_allocations_per_sim_second": base_allocs,
        "alloc_ratio": alloc_ratio,
        "regressed": alloc_regressed,
        "events_comparable": events_comparable,
        "baseline_events_per_second": base_events.map_or(Value::Null, Value::from),
        "events_ratio": events_ratio.map_or(Value::Null, Value::from),
        "events_regressed": events_regressed
    })
}

/// The production-day probe: runs the registry's `fleet-production`
/// scenario (24 simulated hours, heterogeneous hardware, tenant churn,
/// sketch telemetry) and reports its events/second, peak-memory
/// high-water, and the merged latency sketch. `--smoke` shrinks the
/// day to a seconds-scale sample; the committed full-mode baseline runs
/// the whole 1152-slice day (shrink it further with `PERFISO_SCALE`).
fn fleet_production_probe(smoke: bool) -> Value {
    let mut spec = scenarios::spec::named("fleet-production").expect("registered scenario");
    if smoke {
        if let TargetSpec::Fleet {
            ref mut sampled_machines,
            ref mut minutes,
            ref mut slice_ms,
            ..
        } = spec.target
        {
            *sampled_machines = 1;
            *minutes = 8;
            *slice_ms = 120;
        }
        spec.validate().expect("still a valid spec");
    }
    let live = reset_peak();
    let wall = Instant::now();
    let report = run_spec(
        &spec,
        &RunOptions {
            seeds: None,
            threads: 0,
        },
    )
    .expect("runnable scenario");
    let wall = wall.elapsed().as_secs_f64();
    let peak = peak_since(live);
    let fleet = report.runs[0].as_fleet().expect("fleet target");
    let sketch = fleet
        .latency_sketch
        .expect("fleet-production uses sketch telemetry");
    println!(
        "fleet-production: {} slices in {:.2}s wall, {:.2}M events/s, \
         peak memory {:.1} MiB, sketch p99 {:.2} ms (±{:.1}% of {} samples)",
        fleet.slices,
        wall,
        fleet.sim_events as f64 / wall / 1e6,
        peak as f64 / (1 << 20) as f64,
        sketch.p99.as_millis_f64(),
        sketch.relative_error * 100.0,
        sketch.count,
    );
    json!({
        "smoke": smoke,
        "slices": fleet.slices,
        "wall_seconds": wall,
        "sim_events": fleet.sim_events,
        "events_per_second": fleet.sim_events as f64 / wall,
        "peak_memory_bytes": peak,
        "mean_utilization": fleet.mean_utilization,
        "sketch": {
            "count": sketch.count,
            "dropped": sketch.dropped,
            "p50_ms": sketch.p50.as_millis_f64(),
            "p99_ms": sketch.p99.as_millis_f64(),
            "max_ms": sketch.max.as_millis_f64(),
            "relative_error": sketch.relative_error
        }
    })
}

/// Resilience-counter probe: runs the registry's two resilience-heavy
/// scenarios — `chaos-connection-flood` (admission shedding under a
/// synthetic arrival flood) and `graph-hedged` (retries, hedging, and
/// per-edge breakers on a fan-out graph) — and reports the merged
/// counters. Both runs are deterministic, so the counters are exact
/// figures, not samples; any drift against the committed baseline means
/// the resilience subsystem changed behaviour (surfaced by the warn-only
/// `RESILIENCE-DRIFT WARNING` annotation, same policy as the alloc
/// check). `--smoke` shrinks the hedged-graph window; the flood scenario
/// keeps its registered window because its fault times are absolute.
fn resilience_probe(smoke: bool) -> Value {
    let flood = scenarios::spec::named("chaos-connection-flood").expect("registered scenario");
    let mut hedged = scenarios::spec::named("graph-hedged").expect("registered scenario");
    if smoke {
        hedged.scale = scenarios::spec::ScaleSpec::Custom {
            warmup_ms: 150,
            measure_ms: 400,
        };
        hedged.validate().expect("still a valid spec");
    }
    let mut merged = telemetry::ResilienceStats::default();
    for spec in [&flood, &hedged] {
        let report = run_spec(spec, &RunOptions::serial()).expect("runnable scenario");
        for run in &report.runs {
            if let Some(stats) = &run.as_single_box().expect("single box").resilience {
                merged.merge(stats);
            }
        }
    }
    println!(
        "resilience probe: {} sheds, {} retries, {} hedges ({} won / {} lost), \
         {} breaker opens ({} fast-fails), {} deadline cancels",
        merged.sheds,
        merged.retries,
        merged.hedges_launched,
        merged.hedges_won,
        merged.hedges_lost,
        merged.breaker_opens,
        merged.breaker_fast_fails,
        merged.deadline_cancels,
    );
    json!({
        "smoke": smoke,
        "scenarios": ["chaos-connection-flood", "graph-hedged"],
        "sheds": merged.sheds,
        "retries": merged.retries,
        "hedges_launched": merged.hedges_launched,
        "hedges_won": merged.hedges_won,
        "hedges_lost": merged.hedges_lost,
        "breaker_opens": merged.breaker_opens,
        "breaker_fast_fails": merged.breaker_fast_fails,
        "deadline_cancels": merged.deadline_cancels
    })
}

/// Warn-only drift check for the resilience counters: they are fully
/// deterministic, so a baseline produced by the same scenario windows
/// must match exactly; any difference is a behaviour change worth a CI
/// annotation (but never a gate — re-bless by committing the new
/// `BENCH_fleet.json`).
fn resilience_drift(baseline: &Value, probe: &Value) -> bool {
    let base = &baseline["resilience"];
    if base["smoke"].as_bool() != probe["smoke"].as_bool() {
        println!("baseline resilience block missing or ran a different mode; skipping drift check");
        return false;
    }
    let keys = [
        "sheds",
        "retries",
        "hedges_launched",
        "hedges_won",
        "hedges_lost",
        "breaker_opens",
        "breaker_fast_fails",
        "deadline_cancels",
    ];
    let mut drifted = false;
    for k in keys {
        let (b, p) = (base[k].as_u64(), probe[k].as_u64());
        if b != p {
            println!(
                "RESILIENCE-DRIFT WARNING: {k} {} -> {} vs committed baseline \
                 (deterministic counter; behaviour changed)",
                b.map_or("absent".into(), |v| v.to_string()),
                p.map_or("absent".into(), |v| v.to_string()),
            );
            drifted = true;
        }
    }
    if !drifted {
        println!("resilience counters match the committed baseline exactly");
    }
    drifted
}

/// Bit-exact comparison of the two reports; parallelism must not change a
/// single ULP anywhere.
fn assert_identical(serial: &FleetReport, parallel: &FleetReport) {
    assert!(
        serial.bits_eq(parallel),
        "parallel fleet report diverged from serial"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let spec = if smoke {
        ScenarioSpec::builder("fleetbench-smoke").fleet(8, 2, 200)
    } else {
        ScenarioSpec::builder("fleetbench").fleet(24, 3, 500)
    }
    .policy(Policy::Blind { buffer_cores: 8 })
    .seed(99)
    .build()
    .expect("valid fleet spec");

    println!(
        "fleet bench: {}, {} cores available{}",
        spec.target.describe(),
        threads,
        if smoke { " [smoke]" } else { "" },
    );

    let alloc_profile = singlebox_alloc_profile();
    let arena = arena_probe();
    let queue = queue_probe();

    let serial = median_serial_fleet(&spec, 3);
    let parallel = timed_fleet(&spec, 0);
    assert_identical(&serial.report, &parallel.report);
    let speedup = serial.wall / parallel.wall;

    let mut t = Table::new(&["run", "threads", "wall (s)", "slices/s", "events/s"]);
    for (label, n, run) in [
        ("serial", 1usize, &serial),
        ("parallel", threads, &parallel),
    ] {
        t.row_owned(vec![
            label.to_string(),
            format!("{n}"),
            format!("{:.2}", run.wall),
            format!("{:.1}", run.report.slices as f64 / run.wall),
            format!("{:.0}", run.report.sim_events as f64 / run.wall),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nparallel speedup: {speedup:.2}x on {threads} cores \
         (reports verified bit-identical)"
    );
    println!(
        "fleet allocations: {} serial ({:.1}/slice, {:.4}/event)",
        serial.allocs,
        serial.allocs as f64 / serial.report.slices as f64,
        serial.allocs as f64 / serial.report.sim_events as f64,
    );

    let production = fleet_production_probe(smoke);
    let resilience = resilience_probe(smoke);

    let path = std::env::var("PERFISO_BENCH_OUT").unwrap_or_else(|_| "BENCH_fleet.json".into());
    let baseline = baseline_delta(&path, &alloc_profile, smoke, &serial);
    let resilience_drifted = std::fs::read_to_string(&path)
        .ok()
        .and_then(|raw| serde_json::from_str::<Value>(&raw).ok())
        .is_some_and(|base| resilience_drift(&base, &resilience));

    let out = json!({
        "bench": "fleet",
        "smoke": smoke,
        "cores": threads,
        "config": {
            "minutes": serial.report.qps.len(),
            "slices": serial.report.slices
        },
        "singlebox_allocations": alloc_profile,
        "arena": arena,
        "queue": queue,
        "fleet_production": production,
        "resilience": resilience,
        "resilience_drifted": resilience_drifted,
        "baseline_delta": baseline,
        "runs": [
            fleet_run_json("serial", 1, &serial),
            fleet_run_json("parallel", threads, &parallel)
        ],
        "speedup": speedup
    });
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}
