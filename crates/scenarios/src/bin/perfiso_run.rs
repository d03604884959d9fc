//! `perfiso-run` — the unified experiment CLI.
//!
//! ```text
//! perfiso-run list
//! perfiso-run show <name>
//! perfiso-run run <name|spec.json> [--sweep] [--scale F] [--seeds N] [--threads T] [--out report.json]
//! ```
//!
//! `run` resolves the scenario from the registry (or loads a
//! [`scenarios::spec::ScenarioSpec`] JSON file), fans the seed
//! repetitions out across `--threads` workers (`0` = all cores; parallel
//! reports are bit-identical to `--threads 1`), prints a per-seed table
//! plus cross-seed statistics, and optionally writes the full JSON
//! [`scenarios::spec::Report`] to `--out`. `--scale F` rewrites a
//! bench-scale spec's run length before the run
//! ([`scenarios::spec::ScenarioSpec::scaled`]); the report embeds the
//! spec that ran, `--scale` and `--seeds` included, so its `spec` field,
//! saved as a file, reruns to the same report.
//!
//! With `--sweep`, the spec's [`scenarios::spec::SweepSpec`] grid expands
//! into one cell per knob combination; every `(cell, seed)` job fans out
//! across the same worker pool, a cross-cell summary table is printed,
//! and `--out` receives the full [`scenarios::spec::SweepReport`].
//!
//! A reader that closes standard output early (`perfiso-run show x |
//! head`) ends the printing quietly, not the command: `run` still writes
//! its `--out` report, and the exit status is 0.

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

use scenarios::spec::{self, Report, RunOptions, ScenarioSpec, SeedReport, SweepReport};
use telemetry::table::{ms, pct, Table};

const USAGE: &str = "usage:
  perfiso-run list
  perfiso-run show <name>
  perfiso-run run <name|spec.json> [--sweep] [--scale F] [--seeds N] [--threads T] [--out report.json]

  --sweep       expand the spec's parameter sweep and run every grid cell
  --scale F     multiply a Bench-scale spec's run length by F (the 6 s
                measured window, floored at 0.1x; a fleet's slices)
  --seeds N     override the spec's repetition count (seeds seed..seed+N)
  --threads T   seed-sweep workers; 0 = all cores (default), 1 = serial
  --out PATH    write the full JSON report to PATH";

/// A command's failure: a labelled message, or a write error on standard
/// output other than a closed reader.
type Failure = Box<dyn Error>;

/// Standard output that a closed reader silences instead of failing.
///
/// After the first broken pipe every write succeeds without output, so a
/// command runs to its end; any other write error is returned.
struct Out {
    stdout: io::Stdout,
    closed: bool,
}

impl Out {
    /// Maps a broken pipe to success, remembering that the reader left,
    /// and labels any other error.
    fn absorb<T>(&mut self, result: io::Result<T>, closed: T) -> io::Result<T> {
        match result {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(closed)
            }
            Err(e) => Err(io::Error::new(
                e.kind(),
                format!("cannot write to standard output: {e}"),
            )),
            ok => ok,
        }
    }
}

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(buf.len());
        }
        let written = self.stdout.write(buf);
        self.absorb(written, buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let flushed = self.stdout.flush();
        self.absorb(flushed, ())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Out {
        stdout: io::stdout(),
        closed: false,
    };
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&mut out),
        Some("show") => match args.get(1) {
            Some(name) => cmd_show(name, &mut out),
            None => Err("`show` needs a scenario name".into()),
        },
        Some("run") => cmd_run(&args[1..], &mut out),
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}").into()),
        None => Err(USAGE.into()),
    };
    match result.and_then(|()| out.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list(out: &mut Out) -> Result<(), Failure> {
    let mut t = Table::new(&[
        "name",
        "target",
        "workload",
        "policy",
        "sweep",
        "seeds",
        "description",
    ]);
    for s in spec::registry() {
        let sweep = match &s.sweep {
            Some(sw) => format!("{} cells", sw.cell_count()),
            None => "-".to_string(),
        };
        t.row_owned(vec![
            s.name.clone(),
            s.target.describe(),
            s.workload.class_label().to_string(),
            s.policy.label(),
            sweep,
            format!("{}", s.seeds),
            s.description.clone(),
        ]);
    }
    write!(out, "{}", t.render())?;
    Ok(())
}

fn cmd_show(name: &str, out: &mut Out) -> Result<(), Failure> {
    let s = spec::named(name)?;
    writeln!(out, "{}", s.to_json())?;
    if let Some(g) = s.workload.as_graph() {
        writeln!(out, "\nservice graph ({}):", g.shape_summary())?;
        let mut t = Table::new(&["stage", "fan-out", "compute (us)", "sigma", "memory (mb)"]);
        for st in &g.stages {
            t.row_owned(vec![
                st.name.clone(),
                format!("{}", st.fan_out),
                format!("{:.0}", st.compute_us),
                format!("{:.2}", st.sigma),
                format!("{}", st.memory_mb),
            ]);
        }
        write!(out, "{}", t.render())?;
        for e in &g.edges {
            writeln!(
                out,
                "  {} -> {} ({} B, +{} us)",
                e.from, e.to, e.bytes, e.latency_us
            )?;
        }
        writeln!(out, "  deadline: {} ms", g.timeout_ms)?;
    }
    if let spec::TargetSpec::MultiBox { services } = &s.target {
        writeln!(out, "\nhosted services ({}):", services.len())?;
        let mut t = Table::new(&["service", "qps", "working set (mb)"]);
        for svc in services {
            t.row_owned(vec![
                svc.name.clone(),
                format!("{:.0}", svc.qps),
                format!("{}", svc.working_set_mb),
            ]);
        }
        write!(out, "{}", t.render())?;
    }
    if !s.fault.is_empty() {
        let r = &s.fault.restart;
        writeln!(
            out,
            "\nfault timeline ({} events; restart backoff {} ms x{}, give up after {} failures):",
            s.fault.events.len(),
            r.base_backoff_ms,
            r.multiplier,
            r.max_failures
        )?;
        for ev in &s.fault.events {
            writeln!(out, "  {}", ev.describe())?;
        }
    }
    writeln!(
        out,
        "\ntelemetry: {}",
        match s.telemetry {
            spec::TelemetrySpec::Exact => "exact (every sample kept)".to_string(),
            spec::TelemetrySpec::Sketch => format!(
                "sketch (bounded memory, ±{:.1}% guaranteed)",
                telemetry::Sketch::RELATIVE_ERROR * 100.0
            ),
        }
    )?;
    if !s.resilience.is_disabled() {
        writeln!(out, "\nresilience policy:")?;
        for line in s.resilience.describe() {
            writeln!(out, "  {line}")?;
        }
    }
    if s.sweep.is_some() {
        let cells = s.expand_sweep()?;
        writeln!(
            out,
            "\nsweep grid ({} cells, run with --sweep):",
            cells.len()
        )?;
        let mut t = Table::new(&["cell", "knobs"]);
        for (i, cell) in cells.iter().enumerate() {
            t.row_owned(vec![format!("{i}"), cell.label.clone()]);
        }
        write!(out, "{}", t.render())?;
    }
    Ok(())
}

/// Resolves `run`'s scenario operand: a registry name, or a path to a
/// spec JSON file (anything containing a path separator or ending in
/// `.json`).
fn resolve_spec(operand: &str) -> Result<ScenarioSpec, String> {
    if operand.ends_with(".json") || operand.contains('/') {
        let text = std::fs::read_to_string(operand)
            .map_err(|e| format!("cannot read spec file {operand}: {e}"))?;
        ScenarioSpec::from_json(&text).map_err(|e| e.to_string())
    } else {
        spec::named(operand).map_err(|e| e.to_string())
    }
}

fn cmd_run(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let Some(operand) = args.first() else {
        return Err(format!("`run` needs a scenario name or spec file\n{USAGE}").into());
    };
    let mut opts = RunOptions {
        seeds: None,
        threads: 0,
    };
    let mut report_path: Option<String> = None;
    let mut sweep = false;
    let mut scale: Option<f64> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--sweep" => sweep = true,
            "--scale" => {
                let v = value("--scale")?;
                let f: f64 = v.parse().map_err(|_| format!("invalid --scale {v:?}"))?;
                scale = Some(f);
            }
            "--seeds" => {
                let v = value("--seeds")?;
                let n: u32 = v.parse().map_err(|_| format!("invalid --seeds {v:?}"))?;
                opts.seeds = Some(n);
            }
            "--threads" => {
                let v = value("--threads")?;
                opts.threads = v.parse().map_err(|_| format!("invalid --threads {v:?}"))?;
            }
            "--out" => report_path = Some(value("--out")?),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}").into()),
        }
    }

    let mut spec = resolve_spec(operand)?;
    if let Some(f) = scale {
        spec = spec.scaled(f)?;
    }
    if sweep {
        return run_sweep_cmd(&spec, &opts, report_path.as_deref(), out);
    }
    if spec.sweep.is_some() {
        writeln!(
            out,
            "note: {} declares a {}-cell sweep; running the base point only \
             (pass --sweep for the grid)",
            spec.name,
            spec.sweep.as_ref().map_or(0, |s| s.cell_count()),
        )?;
    }
    writeln!(
        out,
        "running {} ({}) under {} ...",
        spec.name,
        spec.target.describe(),
        spec.policy.label()
    )?;
    let started = std::time::Instant::now();
    let report = spec::run_spec(&spec, &opts)?;
    let wall = started.elapsed().as_secs_f64();

    print_report(&report, out)?;
    writeln!(
        out,
        "\n{} seed(s) in {wall:.2}s wall ({} sweep)",
        report.seeds.len(),
        sweep_label(&opts, report.seeds.len()),
    )?;
    if let Some(path) = report_path {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

fn run_sweep_cmd(
    spec: &ScenarioSpec,
    opts: &RunOptions,
    report_path: Option<&str>,
    out: &mut Out,
) -> Result<(), Failure> {
    writeln!(
        out,
        "sweeping {} ({}) under {}: {} cells x {} seed(s) ...",
        spec.name,
        spec.target.describe(),
        spec.policy.label(),
        // run_sweep validates and expands the grid; only the size is
        // needed up front.
        spec.sweep.as_ref().map_or(0, |s| s.cell_count()),
        opts.seeds.unwrap_or(spec.seeds),
    )?;
    let started = std::time::Instant::now();
    let sweep = spec::run_sweep(spec, opts)?;
    let wall = started.elapsed().as_secs_f64();

    print_sweep(&sweep, out)?;
    writeln!(
        out,
        "\n{} cells x {} seed(s) in {wall:.2}s wall ({} sweep)",
        sweep.cells.len(),
        sweep.seeds.len(),
        sweep_label(opts, sweep.cells.len() * sweep.seeds.len()),
    )?;
    if let Some(path) = report_path {
        std::fs::write(path, sweep.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

/// Whether `jobs` independent runs fanned out over worker threads.
fn sweep_label(opts: &RunOptions, jobs: usize) -> &'static str {
    if opts.workers(jobs) > 1 {
        "parallel"
    } else {
        "serial"
    }
}

fn print_sweep(sweep: &SweepReport, out: &mut Out) -> io::Result<()> {
    let fleet = matches!(
        sweep.cells.first().and_then(|c| c.report.runs.first()),
        Some(SeedReport::Fleet(_))
    );
    let secondary_header = if fleet {
        "secondary (mb/min)"
    } else {
        "secondary (cpu-s)"
    };
    let mut t = Table::new(&["cell", "p99 (ms)", "utilization", "drops", secondary_header]);
    for row in &sweep.table {
        t.row_owned(vec![
            row.label.clone(),
            format!("{:.2} ± {:.2}", row.p99_ms_mean, row.p99_ms_ci95),
            pct(row.utilization_mean),
            pct(row.drop_ratio_mean),
            format!("{:.1}", row.secondary_mean),
        ]);
    }
    write!(out, "{}", t.render())
}

/// Resilience counters as one summary line.
fn resilience_line(rs: &telemetry::ResilienceStats) -> String {
    format!(
        "sheds {}  retries {}  hedges {} ({} won / {} lost)  breaker opens {} \
         (fast-fails {})  deadline cancels {}",
        rs.sheds,
        rs.retries,
        rs.hedges_launched,
        rs.hedges_won,
        rs.hedges_lost,
        rs.breaker_opens,
        rs.breaker_fast_fails,
        rs.deadline_cancels,
    )
}

/// One executed fault record as a timeline line.
fn fault_line(f: &indexserve::FaultRecord) -> String {
    let mut s = format!("t={:.0}ms {} ({})", f.fired_at_ms, f.kind, f.service);
    if f.downtime_ms > 0.0 {
        s += &format!(" down {:.0}ms", f.downtime_ms);
    }
    if f.recovery_polls > 0 {
        s += &format!(", reconverged in {} polls", f.recovery_polls);
    }
    if f.gave_up {
        s += ", autopilot gave up";
    }
    if f.rolled_back {
        s += ", rolled back";
    }
    s
}

fn print_report(report: &Report, out: &mut Out) -> io::Result<()> {
    let mut t = Table::new(&["seed", "p99 (ms)", "utilization", "drops", "secondary"]);
    for (seed, run) in report.seeds.iter().zip(report.runs.iter()) {
        let secondary = match run {
            SeedReport::Fleet(_) => format!("{:.0} mb/min", run.secondary_progress()),
            _ => format!("{:.1} cpu-s", run.secondary_progress()),
        };
        t.row_owned(vec![
            format!("{seed}"),
            ms(run.p99()),
            pct(run.utilization()),
            pct(run.drop_ratio()),
            secondary,
        ]);
    }
    write!(out, "{}", t.render())?;
    // Per-service breakdowns (multi-service boxes only; classic runs
    // carry no service rows).
    if report.box_reports().iter().any(|r| !r.services.is_empty()) {
        let mut t = Table::new(&[
            "seed",
            "service",
            "qps",
            "p50 (ms)",
            "p99 (ms)",
            "completed",
            "dropped",
            "cpu (s)",
        ]);
        for (seed, run) in report.seeds.iter().zip(report.runs.iter()) {
            let Some(r) = run.as_single_box() else {
                continue;
            };
            for svc in &r.services {
                t.row_owned(vec![
                    format!("{seed}"),
                    svc.name.clone(),
                    format!("{:.0}", svc.qps),
                    ms(svc.latency.p50),
                    ms(svc.latency.p99),
                    format!("{}", svc.latency.count),
                    format!("{}", svc.latency.dropped),
                    format!("{:.2}", svc.cpu_time.as_secs_f64()),
                ]);
            }
        }
        write!(out, "{}", t.render())?;
    }
    for (seed, run) in report.seeds.iter().zip(report.runs.iter()) {
        match run {
            SeedReport::SingleBox(r) => {
                for f in &r.faults {
                    writeln!(out, "seed {seed} fault: {}", fault_line(f))?;
                }
                if let Some(rs) = &r.resilience {
                    writeln!(out, "seed {seed} resilience: {}", resilience_line(rs))?;
                }
            }
            SeedReport::Cluster(r) => {
                for bf in &r.faults {
                    for f in &bf.faults {
                        writeln!(
                            out,
                            "seed {seed} box {} fault: {}",
                            bf.box_index,
                            fault_line(f)
                        )?;
                    }
                }
                if let Some(rs) = &r.resilience {
                    writeln!(out, "seed {seed} resilience: {}", resilience_line(rs))?;
                }
            }
            SeedReport::Fleet(r) => {
                if let Some(rs) = &r.resilience {
                    writeln!(out, "seed {seed} resilience: {}", resilience_line(rs))?;
                }
                if let Some(sk) = &r.latency_sketch {
                    writeln!(
                        out,
                        "seed {seed} fleet sketch: p50 {} ms  p99 {} ms  max {} ms \
                         (±{:.1}% guaranteed, {} samples, {} dropped)",
                        ms(sk.p50),
                        ms(sk.p99),
                        ms(sk.max),
                        sk.relative_error * 100.0,
                        sk.count,
                        sk.dropped,
                    )?;
                }
            }
        }
    }
    let s = &report.summary;
    writeln!(
        out,
        "summary: p99 {} ms   utilization {:.1}%   drops {:.2}%",
        s.p99_ms.to_ci_string(),
        s.utilization.mean() * 100.0,
        s.drop_ratio.mean() * 100.0,
    )
}
