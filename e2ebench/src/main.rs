//! The repository benchmark: end-to-end and per-layer metrics of the
//! PerfIso simulators on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <box-colocated|cluster-fig09|fleet-day|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times repetitions of one simulation with no tracing and
//! reports the end-to-end metrics. `--trace 1` alternates untraced and
//! traced repetitions, records spans around every layer call the replay
//! code makes, writes them to `e2ebench/out/`, and reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object; the lines before it are a human-readable table. `README.md`
//! next to this crate describes the workloads and metrics.

mod alloc;
mod cpus;
mod replay;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use replay::{ratio, Rep, FLEET_THREADS};
use serde_json::Value;
use spans::{Off, Spans, Totals, Tracer};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["box-colocated", "cluster-fig09", "fleet-day"];

/// End-to-end metrics, with units, in report order. The first
/// [`IN_RESULT`] go into the final JSON line; the last two are printed
/// only, because a healthy run reads 0 for both and a bound relative to 0
/// means nothing. `failed_frac` reaches the JSON line as its `attempted`
/// and `failed` counts.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_mem_mib", "MiB"),
    ("sim_p99_ms", "ms"),
    ("sim_util_pct", "%"),
    ("sim_drop_frac", "fraction"),
    ("failed_frac", "fraction"),
];

const IN_RESULT: usize = 6;

/// Per-layer metrics, with units, in report order. A workload that never
/// calls a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 49] = [
    ("qtrace.generate_s", "s"),
    ("qtrace.queries", "count"),
    ("indexserve.new_s", "s"),
    ("indexserve.new_calls", "count"),
    ("indexserve.advance_s", "s"),
    ("indexserve.advance_calls", "count"),
    ("indexserve.advance_allocs", "count"),
    ("indexserve.inject_s", "s"),
    ("indexserve.inject_calls", "count"),
    ("indexserve.drain_s", "s"),
    ("indexserve.events", "count"),
    ("indexserve.us_per_query", "us"),
    ("indexserve.workers_spawned", "count"),
    ("simcpu.dispatches", "count"),
    ("simcpu.ctx_switches", "count"),
    ("simcpu.ipis", "count"),
    ("simcpu.spawns", "count"),
    ("simcpu.exits", "count"),
    ("simcpu.sched_events", "count"),
    ("simcpu.ns_per_sched_event", "ns"),
    ("simcpu.arena_reuse_frac", "fraction"),
    ("simcpu.arena_slab_steps", "count"),
    ("core.cpu_polls", "count"),
    ("core.affinity_updates", "count"),
    ("core.affinity_update_frac", "fraction"),
    ("core.io_rounds", "count"),
    ("core.io_adjustments", "count"),
    ("core.memory_kills", "count"),
    ("cluster.new_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.us_per_query", "us"),
    ("cluster.pool_speedup", "x"),
    ("cluster.sim_local_p99_ms", "ms"),
    ("cluster.sim_mla_p99_ms", "ms"),
    ("cluster.sim_tla_p99_ms", "ms"),
    ("cluster.degraded", "count"),
    ("fleet.run_serial_s", "s"),
    ("fleet.run_par_s", "s"),
    ("fleet.fanout_speedup", "x"),
    ("fleet.fanout_eff", "fraction"),
    ("fleet.slices", "count"),
    ("fleet.sim_events", "count"),
    ("fleet.slice_setup_share", "fraction"),
    ("telemetry.record_s", "s"),
    ("telemetry.records", "count"),
    ("telemetry.sketch_merge_s", "s"),
    ("simcore.queue_ops_per_s", "1/s"),
    ("bench.span_coverage_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// Timed repetitions (or traced pairs) made even when `--seconds` has
/// already run out, so every median has at least this many samples.
const MIN_REPS: usize = 3;
const MIN_PAIRS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One repetition of `workload`, untraced or traced.
fn rep<S: Spans>(workload: &str, seed: u64, s: &mut S) -> Result<Rep, String> {
    match workload {
        "box-colocated" => replay::box_rep(seed, s),
        "cluster-fig09" => replay::cluster_rep(seed, 1, s),
        _ => replay::fleet_rep(seed, FLEET_THREADS, s),
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Benchmark runs attempted and failed: a run fails when it panics or a
/// correctness check rejects its output.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        })
        .ok()
    }
}

/// Requires `r` to reproduce the reference report byte for byte.
fn same_report(reference: &str, r: Result<Rep, String>) -> Result<Rep, String> {
    let r = r?;
    if r.report == reference {
        Ok(r)
    } else {
        Err("report differs from the one scenarios::spec::run_spec produces".into())
    }
}

/// The reference report: what the library's own `run_spec` produces for
/// the workload's spec and seed. Run once, untimed, before any timed
/// repetition (so it also warms caches and lazy set-up); every
/// repetition of the benchmark's own replay must reproduce it byte for
/// byte.
fn reference(workload: &str, seed: u64, tally: &mut Tally) -> Option<String> {
    tally.check(
        "run_spec reference run",
        guarded(|| Ok(replay::spec_report(workload, seed))),
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Result of one workload: metrics in report order, with units. Only the
/// first `in_result` of them go into the final JSON line.
struct Outcome {
    tally: Tally,
    samples: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    in_result: usize,
}

/// True for workloads that run on one host thread; their repetitions
/// rotate over the CPUs (see [`cpus`]).
fn single_threaded(workload: &str) -> bool {
    workload != "fleet-day"
}

/// Whether a timed loop that started at `start` and made `tries`
/// repetitions is done: at least [`MIN_REPS`], at least `seconds`, and
/// (unless twice `seconds` have passed) a whole number of CPU rotations.
fn done(tries: usize, start: Instant, seconds: f64, rotation: usize) -> bool {
    let elapsed = start.elapsed();
    tries >= MIN_REPS
        && elapsed >= Duration::from_secs_f64(seconds)
        && (tries.is_multiple_of(rotation) || elapsed >= Duration::from_secs_f64(2.0 * seconds))
}

/// `--trace 0`: repeats the untraced simulation for `seconds`.
fn measure(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    // (CPU slot, repetition)
    let mut reps: Vec<(usize, Rep)> = Vec::new();
    let allowed = cpus::Cpus::allowed();
    if let Some(reference) = reference(workload, seed, &mut tally) {
        let rotation = if single_threaded(workload) {
            allowed.len()
        } else {
            1
        };
        let start = Instant::now();
        let mut tries = 0;
        while !done(tries, start, seconds, rotation) {
            let slot = tries % rotation;
            if rotation > 1 {
                allowed.pin(slot);
            }
            tries += 1;
            let r = guarded(|| rep(workload, seed, &mut Off));
            reps.extend(
                tally
                    .check("repetition", same_report(&reference, r))
                    .map(|r| (slot, r)),
            );
        }
        allowed.unpin();
    }
    let mut metrics = Vec::new();
    // Every kept repetition carries the same report, hence the same
    // simulated figures.
    if let Some((_, first)) = reps.first() {
        let time = |f: fn(&Rep) -> f64| {
            let samples: Vec<(usize, f64)> = reps.iter().map(|(slot, r)| (*slot, f(r))).collect();
            cpus::per_cpu_median(&samples)
        };
        let wall = time(|r| r.wall_s);
        let values = [
            wall,
            first.resolved as f64 / wall,
            time(|r| r.setup_s),
            median(reps.iter().map(|(_, r)| r.peak_bytes as f64).collect()) / f64::from(1 << 20),
            first.sim_p99_ms,
            first.sim_util_pct,
            first.sim_drop_frac,
            tally.failed as f64 / tally.attempted as f64,
        ];
        metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
    }
    Outcome {
        tally,
        samples: reps.len(),
        metrics,
        in_result: IN_RESULT,
    }
}

/// Self time of the spans named `name` in one traced run.
fn self_s(totals: &BTreeMap<&str, Totals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_s)
}

fn calls(totals: &BTreeMap<&str, Totals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.calls as f64)
}

/// One traced pair: an untraced repetition, a traced one and the layer
/// probes, pinned to CPU slot `pin` when given, then any multi-threaded
/// comparison run unpinned; reduced to this pair's per-layer metrics.
fn traced_pair(
    workload: &str,
    seed: u64,
    reference: &str,
    allowed: &cpus::Cpus,
    pin: Option<usize>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<BTreeMap<&'static str, f64>> {
    if let Some(slot) = pin {
        allowed.pin(slot);
    }
    let untraced = tally.check(
        "untraced repetition",
        same_report(reference, guarded(|| rep(workload, seed, &mut Off))),
    );
    let traced = tally.check(
        "traced repetition",
        same_report(reference, guarded(|| rep(workload, seed, &mut *tracer))),
    );
    let probes = tally.check(
        "layer probes",
        guarded(|| {
            let ops = replay::queue_ops(tracer);
            let probed = match workload {
                "cluster-fig09" => {
                    let boxes = replay::cluster_box_new(seed, tracer);
                    let queries = replay::cluster_trace(seed, tracer);
                    vec![("indexserve.new_calls", boxes), ("qtrace.queries", queries)]
                }
                "fleet-day" => {
                    let cfg = replay::fleet_config(seed, FLEET_THREADS);
                    let boxes = replay::fleet_box_new(&cfg, tracer);
                    let queries = replay::fleet_templates(&cfg, tracer);
                    replay::sketch_merge(boxes, seed, tracer);
                    vec![
                        ("indexserve.new_calls", boxes as f64),
                        ("qtrace.queries", queries as f64),
                    ]
                }
                _ => Vec::new(),
            };
            Ok((ops, probed))
        }),
    );
    allowed.unpin();
    let extra = match workload {
        // Same work on two box-advance workers: the speed-up of the pool,
        // and a check that the parallel report is byte-identical.
        "cluster-fig09" => tally.check(
            "cluster on 2 threads",
            same_report(
                reference,
                guarded(|| replay::cluster_rep(seed, 2, &mut Off)),
            ),
        ),
        // The serial sweep: fan-out speed-up, and a check that 1 thread
        // reproduces the 2-thread report bit for bit.
        "fleet-day" => tally.check(
            "fleet on 1 thread",
            same_report(reference, guarded(|| replay::fleet_rep(seed, 1, &mut Off))),
        ),
        _ => None,
    };
    let totals = tracer.end_run();
    let (untraced, traced, (ops, probed)) = (untraced?, traced?, probes?);

    let mut m: BTreeMap<&'static str, f64> = traced.counters.iter().copied().collect();
    m.extend(probed);
    m.insert(
        "bench.trace_overhead_frac",
        traced.wall_s / untraced.wall_s - 1.0,
    );
    m.insert(
        "bench.span_coverage_frac",
        1.0 - ratio(self_s(&totals, "bench.run"), traced.wall_s),
    );
    m.insert(
        "simcore.queue_ops_per_s",
        ratio(ops as f64, self_s(&totals, "simcore.queue")),
    );
    m.insert("qtrace.generate_s", self_s(&totals, "qtrace.generate"));
    m.insert("indexserve.new_s", self_s(&totals, "indexserve.new"));
    match workload {
        "box-colocated" => {
            let advance = totals
                .get("indexserve.advance")
                .copied()
                .unwrap_or_default();
            let inject_calls = calls(&totals, "indexserve.inject");
            m.insert("indexserve.advance_s", advance.self_s);
            m.insert("indexserve.advance_calls", advance.calls as f64);
            m.insert("indexserve.advance_allocs", advance.allocs as f64);
            m.insert("indexserve.inject_s", self_s(&totals, "indexserve.inject"));
            m.insert("indexserve.inject_calls", inject_calls);
            m.insert("indexserve.drain_s", self_s(&totals, "indexserve.drain"));
            m.insert(
                "indexserve.us_per_query",
                ratio(untraced.wall_s * 1e6, inject_calls),
            );
            m.insert(
                "simcpu.ns_per_sched_event",
                ratio(advance.self_s * 1e9, m["simcpu.sched_events"]),
            );
            m.insert("telemetry.record_s", self_s(&totals, "telemetry.record"));
        }
        "cluster-fig09" => {
            let run_s = self_s(&totals, "cluster.run");
            m.insert("cluster.new_s", self_s(&totals, "cluster.new"));
            m.insert("cluster.run_s", run_s);
            m.insert(
                "cluster.us_per_query",
                ratio(run_s * 1e6, traced.resolved as f64),
            );
            m.insert(
                "cluster.pool_speedup",
                ratio(untraced.wall_s, extra?.wall_s),
            );
        }
        _ => {
            let serial = extra?.wall_s;
            let par = self_s(&totals, "fleet.run");
            let speedup = ratio(serial, par);
            m.insert("fleet.run_serial_s", serial);
            m.insert("fleet.run_par_s", par);
            m.insert("fleet.fanout_speedup", speedup);
            m.insert("fleet.fanout_eff", speedup / FLEET_THREADS as f64);
            m.insert(
                "fleet.slice_setup_share",
                ratio(self_s(&totals, "indexserve.new"), serial),
            );
            m.insert(
                "telemetry.sketch_merge_s",
                self_s(&totals, "telemetry.sketch_merge"),
            );
        }
    }
    Some(m)
}

/// `--trace 1`: alternates untraced and traced repetitions for `seconds`
/// and reports the per-layer metrics as medians over the traced pairs.
fn traced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut pairs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut tracer = Tracer::new();
    if let Some(reference) = reference(workload, seed, &mut tally) {
        let allowed = cpus::Cpus::allowed();
        let start = Instant::now();
        let mut tries = 0;
        while tries < MIN_PAIRS || start.elapsed() < Duration::from_secs_f64(seconds) {
            let pin = single_threaded(workload).then_some(tries);
            tries += 1;
            pairs.extend(traced_pair(
                workload,
                seed,
                &reference,
                &allowed,
                pin,
                &mut tracer,
                &mut tally,
            ));
        }
        allowed.unpin();
    }
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("spans-{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    let samples = pairs.len();
    let mut metrics = Vec::new();
    if samples > 0 {
        let med = |name: &str| {
            median(
                pairs
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect(),
            )
        };
        metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, med(name), unit))
            .collect();
    }
    Outcome {
        tally,
        samples,
        metrics,
        in_result: PER_LAYER.len(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Tally::default();
    let mut json_metrics: Vec<(String, Value)> = Vec::new();
    for &w in &workloads {
        let out = if args.trace {
            traced(w, args.seed, args.seconds)
        } else {
            measure(w, args.seed, args.seconds)
        };
        println!(
            "{w}: seed {}, {} {}, {cores} host cores, {} of {} runs failed",
            args.seed,
            out.samples,
            if args.trace {
                "traced pairs"
            } else {
                "timed repetitions"
            },
            out.tally.failed,
            out.tally.attempted,
        );
        for (i, &(name, value, unit)) in out.metrics.iter().enumerate() {
            println!("  {name:<28} {value:>16.6} {unit}");
            if i >= out.in_result {
                continue;
            }
            let key = if workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{w}/{name}")
            };
            json_metrics.push((key, serde_json::json!({ "value": value, "unit": unit })));
        }
        total.attempted += out.tally.attempted;
        total.failed += out.tally.failed;
    }
    let correct = total.failed == 0;
    let result = serde_json::json!({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": Value::Object(json_metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if !correct {
        std::process::exit(1);
    }
}
