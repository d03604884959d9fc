//! Fleet bench: the three measurements no other harness in the repository
//! takes, checked against the committed `BENCH_fleet.json` by one
//! table-driven gate.
//!
//! - **Single-box allocations per simulated second**: one colocated box
//!   (high CPU bully, blind isolation, 2.3 simulated seconds) run through
//!   [`run_spec`] under a counting allocator.
//! - **Step-arena reuse**: the same box and trace stepped by hand, with
//!   the machine's arena occupancy read at the end.
//! - **The production day**: wall time and peak heap of the registry's
//!   full 1,152-slice `fleet-production` scenario on all cores.
//!
//! Before it overwrites `BENCH_fleet.json` (override the path with
//! `PERFISO_BENCH_OUT`), the bench compares the new numbers with the file
//! at that path, one [`GATE`] row at a time. A deterministic row fails on
//! any difference: it prints a `FAIL` line, and the process exits 1 after
//! writing the new file, so an intended change is re-blessed by committing
//! that file. A wall-clock row prints a `WARN` line past its tolerance and
//! never fails. A row the baseline lacks is reported as skipped.
//! `PERFISO_SCALE` shrinks the production day, and its wall rows then say
//! nothing against a full-day baseline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use scenarios::spec::{run_spec, RunOptions, ScenarioSpec};
use scenarios::Policy;
use serde_json::{json, Value};
use simcore::SimTime;
use workloads::BullyIntensity;

/// Counts every heap allocation made through the global allocator, and
/// tracks live bytes so a section can report its peak-memory high-water.
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

/// The box both single-box probes measure. The fixed 300 + 2,000 ms
/// window keeps allocations per simulated second comparable across
/// commits, because set-up allocations amortize over the same denominator.
fn profile_spec() -> ScenarioSpec {
    ScenarioSpec::builder("allocprofile")
        .single_box(2_000.0)
        .cpu_bully(BullyIntensity::High)
        .policy(Policy::Blind { buffer_cores: 8 })
        .custom_scale(300, 2_000)
        .seed(4242)
        .build()
        .expect("valid spec")
}

/// Allocation profile of one complete run of `spec`: trace generation,
/// sim construction and the step loop, warm-up included in the divisor.
fn singlebox_alloc_profile(spec: &ScenarioSpec) -> Value {
    let scale = spec.run_scale();
    let sim_secs = (scale.warmup + scale.measure).as_secs_f64();
    let (allocs_before, bytes_before) = alloc_snapshot();
    let wall = Instant::now();
    let report = run_spec(spec, &RunOptions::serial()).expect("runnable spec");
    let wall = wall.elapsed().as_secs_f64();
    let (allocs_after, bytes_after) = alloc_snapshot();
    let allocs = allocs_after - allocs_before;
    let bytes = bytes_after - bytes_before;
    let queries = report.box_reports()[0].latency.count;
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

/// Replays `spec`'s trace into its box by hand and reads the step-arena
/// occupancy out of the live machine: slab high-water and the range-reuse
/// rate that keeps the spawn path allocation-free.
fn arena_probe(spec: &ScenarioSpec) -> Value {
    let scale = spec.run_scale();
    let end = SimTime::ZERO + scale.warmup + scale.measure;
    let mut sim = spec.box_sim(spec.seed).expect("single-box spec");
    let mut client = spec.open_loop_client(spec.seed).expect("single-box spec");
    while let Some(at) = client.next_arrival_time() {
        if at > end {
            break;
        }
        let (_, query) = client.pop().expect("peeked");
        sim.inject_query(at, query);
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

/// Runs the registry's `fleet-production` scenario (24 simulated hours,
/// heterogeneous hardware, tenant churn, sketch telemetry) on all cores
/// and reports its wall time and peak-memory high-water. Its simulated
/// results are in `perfiso-run run fleet-production --out`'s report.
fn fleet_production_probe() -> Value {
    let spec = scenarios::spec::named("fleet-production").expect("registered scenario");
    let live = reset_peak();
    let wall = Instant::now();
    let report = run_spec(&spec, &RunOptions::parallel(None)).expect("runnable scenario");
    let wall = wall.elapsed().as_secs_f64();
    let peak = peak_since(live);
    let fleet = report.fleet_reports()[0];
    println!(
        "fleet-production: {} slices in {:.2}s wall, {:.2}M events/s, peak memory {:.1} MiB",
        fleet.slices,
        wall,
        fleet.sim_events as f64 / wall / 1e6,
        peak as f64 / (1 << 20) as f64,
    );
    json!({
        "slices": fleet.slices,
        "wall_seconds": wall,
        "sim_events": fleet.sim_events,
        "events_per_second": fleet.sim_events as f64 / wall,
        "peak_memory_bytes": peak
    })
}

/// Which way a gated number improves.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// How a gated number is judged against the baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// Fixed by the simulation and the compiler: any difference fails.
    Deterministic,
    /// Wall-clock noisy: worse than the baseline past the tolerance warns.
    WallClock,
}

/// One gated number of the report.
struct Row {
    /// Dotted path into the report JSON.
    path: &'static str,
    better: Better,
    /// Relative worsening a wall-clock row tolerates before it warns;
    /// zero for a deterministic row.
    tolerance: f64,
    kind: Kind,
}

impl Row {
    const fn exact(path: &'static str, better: Better) -> Row {
        Row {
            path,
            better,
            tolerance: 0.0,
            kind: Kind::Deterministic,
        }
    }

    const fn wall(path: &'static str, better: Better, tolerance: f64) -> Row {
        Row {
            path,
            better,
            tolerance,
            kind: Kind::WallClock,
        }
    }
}

/// The regression gate. The production day's peak heap moves by a few
/// hundred bytes between identical runs, as worker threads interleave
/// their allocations, so it is a wall-clock row.
const GATE: [Row; 6] = [
    Row::exact("singlebox_allocations.allocations", Better::Lower),
    Row::exact("singlebox_allocations.allocated_bytes", Better::Lower),
    Row::exact("arena.slab_steps_high_water", Better::Lower),
    Row::exact("arena.ranges_reused", Better::Higher),
    Row::wall("fleet_production.wall_seconds", Better::Lower, 0.25),
    Row::wall("fleet_production.peak_memory_bytes", Better::Lower, 0.10),
];

/// One row's outcome, printed as the first word of its gate line.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    Pass,
    Warn,
    Fail,
    Skip,
}

/// The number at a dotted `path` of `report`, if present.
fn lookup(report: &Value, path: &str) -> Option<f64> {
    path.split('.')
        .try_fold(report, |v, key| v.get(key))?
        .as_f64()
}

/// How much worse `new` is than `base` in `row`'s direction, as a
/// fraction of `base` (negative when it is better).
fn worsening(row: &Row, base: f64, new: f64) -> f64 {
    match row.better {
        Better::Lower => new / base - 1.0,
        Better::Higher => 1.0 - new / base,
    }
}

/// Judges one row; a row the baseline lacks is skipped.
fn judge(row: &Row, base: Option<f64>, new: f64) -> Verdict {
    let Some(base) = base else {
        return Verdict::Skip;
    };
    match row.kind {
        Kind::Deterministic if new != base => Verdict::Fail,
        Kind::WallClock if worsening(row, base, new) > row.tolerance => Verdict::Warn,
        _ => Verdict::Pass,
    }
}

/// Checks every [`GATE`] row of `report` against `baseline`, printing one
/// line per row. Returns false when a deterministic row failed.
fn gate(baseline: Option<&Value>, report: &Value) -> bool {
    let mut passed = true;
    for row in &GATE {
        let new = lookup(report, row.path).expect("the bench writes every gated row");
        let base = baseline.and_then(|b| lookup(b, row.path));
        let verdict = judge(row, base, new);
        let change = match base {
            None => format!("{new}"),
            Some(base) if base == new => format!("{new} (unchanged)"),
            Some(base) => format!(
                "{base} -> {new} ({:+.1} %, {})",
                (new / base - 1.0) * 100.0,
                if worsening(row, base, new) > 0.0 {
                    "worse"
                } else {
                    "better"
                }
            ),
        };
        match verdict {
            Verdict::Pass => println!("PASS {}: {change}", row.path),
            Verdict::Skip => println!("SKIP {}: {change}, not in the baseline", row.path),
            Verdict::Warn => println!(
                "WARN {}: {change}, past the {:.0} % tolerance (wall clock, does not fail)",
                row.path,
                row.tolerance * 100.0
            ),
            Verdict::Fail => println!(
                "FAIL {}: {change}; a deterministic count changed, so commit the new \
                 BENCH_fleet.json if the change is intended",
                row.path
            ),
        }
        passed &= verdict != Verdict::Fail;
    }
    passed
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("fleet bench: {cores} cores available");
    let spec = profile_spec();
    let alloc_profile = singlebox_alloc_profile(&spec);
    let arena = arena_probe(&spec);
    let production = fleet_production_probe();
    let report = json!({
        "bench": "fleet",
        "cores": cores,
        "singlebox_allocations": alloc_profile,
        "arena": arena,
        "fleet_production": production
    });

    let path = std::env::var("PERFISO_BENCH_OUT").unwrap_or_else(|_| "BENCH_fleet.json".into());
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|raw| serde_json::from_str::<Value>(&raw).ok());
    if baseline.is_none() {
        println!("no readable baseline at {path}; every gate row is skipped");
    }
    let passed = gate(baseline.as_ref(), &report);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serializable"),
    )
    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
    if !passed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rows_fail_on_any_difference() {
        let r = Row::exact("a.b", Better::Lower);
        assert_eq!(judge(&r, Some(242.0), 242.0), Verdict::Pass);
        assert_eq!(judge(&r, Some(242.0), 243.0), Verdict::Fail);
        assert_eq!(judge(&r, Some(242.0), 241.0), Verdict::Fail);
    }

    #[test]
    fn wall_rows_warn_only_past_tolerance_in_the_worse_direction() {
        let lower = Row::wall("a.b", Better::Lower, 0.25);
        assert_eq!(judge(&lower, Some(20.0), 24.9), Verdict::Pass);
        assert_eq!(judge(&lower, Some(20.0), 25.1), Verdict::Warn);
        assert_eq!(judge(&lower, Some(20.0), 5.0), Verdict::Pass);
        let higher = Row::wall("a.b", Better::Higher, 0.10);
        assert_eq!(judge(&higher, Some(100.0), 91.0), Verdict::Pass);
        assert_eq!(judge(&higher, Some(100.0), 89.0), Verdict::Warn);
        assert_eq!(judge(&higher, Some(100.0), 500.0), Verdict::Pass);
    }

    #[test]
    fn rows_missing_from_the_baseline_are_skipped() {
        for r in [
            Row::exact("a.b", Better::Lower),
            Row::wall("a.b", Better::Lower, 0.1),
        ] {
            assert_eq!(judge(&r, None, 1.0), Verdict::Skip);
        }
    }

    #[test]
    fn lookup_follows_dotted_paths() {
        let report = json!({ "arena": { "ranges_reused": 57432 }, "cores": 2 });
        assert_eq!(lookup(&report, "arena.ranges_reused"), Some(57_432.0));
        assert_eq!(lookup(&report, "cores"), Some(2.0));
        assert_eq!(lookup(&report, "arena.missing"), None);
        assert_eq!(lookup(&report, "cores.deeper"), None);
    }

    #[test]
    fn gate_fails_only_on_deterministic_rows() {
        let report = |allocs: u64, wall: f64| {
            json!({
                "singlebox_allocations": { "allocations": allocs, "allocated_bytes": 100 },
                "arena": { "slab_steps_high_water": 10, "ranges_reused": 5 },
                "fleet_production": { "wall_seconds": wall, "peak_memory_bytes": 1000 }
            })
        };
        let base = report(242, 20.0);
        assert!(gate(Some(&base), &report(242, 20.0)));
        assert!(gate(Some(&base), &report(242, 60.0)), "wall rows only warn");
        assert!(!gate(Some(&base), &report(243, 20.0)));
        assert!(
            gate(None, &report(243, 20.0)),
            "no baseline skips every row"
        );
    }
}
