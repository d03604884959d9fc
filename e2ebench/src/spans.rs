//! In-memory spans around the benchmark's calls into each layer.
//!
//! The simulator crates carry no tracing: every span opens and closes in
//! the benchmark's replay code, around a call into one layer's public API.
//! Untraced repetitions use [`Off`], whose methods compile to nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// Span sink used by the replay code.
pub trait Spans {
    /// Opens a span as a child of the innermost open span.
    fn open(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn close(&mut self);
}

/// No tracing: the untraced, measured path.
pub struct Off;

impl Spans for Off {
    #[inline(always)]
    fn open(&mut self, _: &'static str) {}
    #[inline(always)]
    fn close(&mut self) {}
}

const NO_PARENT: u32 = u32::MAX;

/// Runs whose raw spans are written out; later runs keep totals only.
const KEEP_RUNS: u32 = 3;

/// One recorded span.
struct Span {
    name: &'static str,
    run: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// Heap allocations made while the span was open (children included).
    allocs: u64,
}

/// Per-name totals over one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Span duration minus the part covered by its child spans, seconds.
    pub self_s: f64,
    /// Spans recorded under this name.
    pub calls: u64,
    /// Allocations made inside these spans.
    pub allocs: u64,
}

/// Records spans for every traced repetition of one invocation.
pub struct Tracer {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Ends the current run and returns its self time, call count and
    /// allocations per span name. Raw spans are kept for the first
    /// [`KEEP_RUNS`] runs only, which bounds the tracer's memory.
    pub fn end_run(&mut self) -> BTreeMap<&'static str, Totals> {
        // A panic inside a layer call leaves its spans open; end them now.
        while !self.stack.is_empty() {
            self.close();
        }
        let first = self.spans.partition_point(|s| s.run < self.run);
        let spans = &self.spans[first..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize - first] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_s += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
            t.calls += 1;
            t.allocs += s.allocs;
        }
        if self.run >= KEEP_RUNS {
            self.spans.truncate(first);
        }
        self.run += 1;
        out
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}

impl Spans for Tracer {
    fn open(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: alloc::allocs(),
        });
        self.stack.push(id);
    }

    fn close(&mut self) {
        let end = self.now_ns();
        let allocs = alloc::allocs();
        let id = self.stack.pop().expect("close without open") as usize;
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = allocs - s.allocs;
    }
}
