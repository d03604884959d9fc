//! Arena-backed thread programs: the allocation-free spawn path.
//!
//! The evaluation workloads spawn millions of short-lived scripted threads
//! (~13 per IndexServe query). Boxing a fresh [`ThreadProgram`] plus a step
//! `Vec` per spawn made the spawn path the dominant allocation cost of the
//! whole simulation. This module replaces it:
//!
//! - [`StepArena`] — one contiguous [`Step`] slab shared by every scripted
//!   thread on a machine. Scripts live in power-of-two-capacity ranges that
//!   are recycled through per-class free lists on thread exit/kill, so in
//!   steady state spawning allocates nothing.
//! - [`Program`] — the machine's internal program representation: scripted
//!   ranges and the two ubiquitous compute shapes are stored inline in the
//!   thread table; `Dyn` keeps the boxed [`ThreadProgram`] escape hatch for
//!   custom stateful workloads (disk-bully workers, HDFS duty cycles, ML
//!   trainers, test closures).
//!
//! Determinism is unaffected: none of the inline variants draw from the
//! machine RNG (exactly like the `Script`/`ComputeOnce`/`ComputeLoop`
//! trait programs they replace), and range recycling is plain LIFO.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simcore::{SimDuration, SimRng};

use crate::program::{Step, ThreadProgram};

/// A script's slice of the arena slab.
///
/// The allocated capacity is `len.next_power_of_two()`; it is recomputed
/// from `len` on free, so the handle stays two words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRange {
    start: u32,
    len: u32,
}

impl StepRange {
    /// An empty range (a script that exits immediately).
    pub const EMPTY: StepRange = StepRange { start: 0, len: 0 };

    /// Number of steps in the script.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True for a zero-step script.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The allocated capacity class (log2 of the power-of-two capacity).
    fn class(&self) -> usize {
        debug_assert!(self.len > 0);
        self.len.next_power_of_two().trailing_zeros() as usize
    }
}

/// Arena occupancy and recycling counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArenaStats {
    /// Slab length in steps — the high-water mark of arena memory (the slab
    /// never shrinks; freed ranges are recycled in place).
    pub slab_steps: u64,
    /// Slab high-water in bytes.
    pub slab_bytes: u64,
    /// Ranges currently live (scripted threads that have not exited).
    pub live_ranges: u64,
    /// Peak concurrent live ranges — what bounds the slab high-water.
    pub peak_live_ranges: u64,
    /// Total ranges handed out over the arena's lifetime.
    pub ranges_allocated: u64,
    /// Allocations served from a free list instead of growing the slab.
    pub ranges_reused: u64,
}

impl ArenaStats {
    /// Fraction of allocations served by recycling a freed range.
    pub fn reuse_rate(&self) -> f64 {
        if self.ranges_allocated == 0 {
            0.0
        } else {
            self.ranges_reused as f64 / self.ranges_allocated as f64
        }
    }
}

/// One `Step` slab with per-size-class range free lists.
///
/// Capacities are rounded up to powers of two and never split or merged, so
/// a freed range is always reusable for any later script of its class —
/// fragmentation cannot accumulate, and the slab high-water is bounded by
/// the peak concurrent script footprint (within the 2× rounding).
#[derive(Debug, Default)]
pub struct StepArena {
    slab: Vec<Step>,
    /// Free range start offsets, indexed by capacity class (log2).
    free: Vec<Vec<u32>>,
    live_ranges: u64,
    peak_live_ranges: u64,
    ranges_allocated: u64,
    ranges_reused: u64,
}

impl StepArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        StepArena::default()
    }

    /// Creates an arena with pre-allocated slab capacity.
    pub fn with_capacity(steps: usize) -> Self {
        StepArena {
            slab: Vec::with_capacity(steps),
            ..StepArena::default()
        }
    }

    /// Copies `steps` into the arena and returns the owning range.
    ///
    /// Reuses a freed range of the same capacity class when one exists;
    /// otherwise grows the slab at the tail.
    pub fn alloc(&mut self, steps: &[Step]) -> StepRange {
        let len = u32::try_from(steps.len()).expect("script longer than u32::MAX steps");
        if len == 0 {
            return StepRange::EMPTY;
        }
        let range = StepRange { start: 0, len };
        let class = range.class();
        let cap = 1usize << class;
        self.ranges_allocated += 1;
        self.live_ranges += 1;
        self.peak_live_ranges = self.peak_live_ranges.max(self.live_ranges);
        let start = match self.free.get_mut(class).and_then(|f| f.pop()) {
            Some(start) => {
                self.ranges_reused += 1;
                self.slab[start as usize..start as usize + steps.len()].copy_from_slice(steps);
                start
            }
            None => {
                let start = self.slab.len() as u32;
                self.slab.extend_from_slice(steps);
                // Pad to the class capacity so the whole range is reusable.
                self.slab.resize(start as usize + cap, Step::Exit);
                start
            }
        };
        StepRange { start, len }
    }

    /// Returns a range's capacity to its free list.
    ///
    /// Must be called exactly once per allocated range; the machine does so
    /// when the owning thread exits or is killed.
    pub fn free(&mut self, range: StepRange) {
        if range.is_empty() {
            return;
        }
        let class = range.class();
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(range.start);
        self.live_ranges -= 1;
    }

    /// The step at position `at` within `range`, or `None` past the end.
    pub fn get(&self, range: StepRange, at: u32) -> Option<Step> {
        if at < range.len {
            Some(self.slab[(range.start + at) as usize])
        } else {
            None
        }
    }

    /// Occupancy and recycling counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            slab_steps: self.slab.len() as u64,
            slab_bytes: std::mem::size_of_val(self.slab.as_slice()) as u64,
            live_ranges: self.live_ranges,
            peak_live_ranges: self.peak_live_ranges,
            ranges_allocated: self.ranges_allocated,
            ranges_reused: self.ranges_reused,
        }
    }
}

/// The machine's internal program representation.
///
/// The inline variants cover every hot spawn site without touching the
/// global allocator; [`Program::Dyn`] carries arbitrary [`ThreadProgram`]s
/// for everything else.
pub enum Program {
    /// A step sequence stored in the machine's [`StepArena`]; replays in
    /// order, then exits.
    Scripted {
        /// The owning arena range (freed by the machine on thread exit).
        range: StepRange,
        /// Replay cursor.
        at: u32,
    },
    /// Computes once for a fixed duration, then exits (the inline
    /// [`crate::programs::ComputeOnce`]).
    ComputeOnce {
        /// Compute duration.
        duration: SimDuration,
        /// Whether the compute segment was already issued.
        done: bool,
    },
    /// Computes in fixed chunks forever, bumping a shared progress counter
    /// per chunk start (the inline [`crate::programs::ComputeLoop`]).
    ComputeLoop {
        /// Compute chunk per progress increment.
        chunk: SimDuration,
        /// Shared progress counter.
        progress: Arc<AtomicU64>,
    },
    /// A boxed custom program: the escape hatch for stateful workloads.
    Dyn(Box<dyn ThreadProgram>),
}

impl Program {
    /// A one-shot compute program (no allocation).
    pub fn compute_once(duration: SimDuration) -> Program {
        Program::ComputeOnce {
            duration,
            done: false,
        }
    }

    /// An infinite compute loop with a shared progress counter (no
    /// allocation beyond the `Arc` clone).
    pub fn compute_loop(chunk: SimDuration, progress: Arc<AtomicU64>) -> Program {
        Program::ComputeLoop { chunk, progress }
    }

    /// Pulls the next step. `arena` resolves scripted ranges; `rng` feeds
    /// `Dyn` programs exactly as the trait contract specifies.
    pub(crate) fn next_step(&mut self, arena: &StepArena, rng: &mut SimRng) -> Step {
        match self {
            Program::Scripted { range, at } => {
                let step = arena.get(*range, *at).unwrap_or(Step::Exit);
                *at += 1;
                step
            }
            Program::ComputeOnce { duration, done } => {
                if *done {
                    Step::Exit
                } else {
                    *done = true;
                    Step::Compute(*duration)
                }
            }
            Program::ComputeLoop { chunk, progress } => {
                progress.fetch_add(1, Ordering::Relaxed);
                Step::Compute(*chunk)
            }
            Program::Dyn(p) => p.next_step(rng),
        }
    }

    /// The scripted range to recycle when the thread finishes, if any.
    pub(crate) fn owned_range(&self) -> Option<StepRange> {
        match self {
            Program::Scripted { range, .. } => Some(*range),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Program::Scripted { range, at } => f
                .debug_struct("Scripted")
                .field("range", range)
                .field("at", at)
                .finish(),
            Program::ComputeOnce { duration, done } => f
                .debug_struct("ComputeOnce")
                .field("duration", duration)
                .field("done", done)
                .finish(),
            Program::ComputeLoop { chunk, .. } => f
                .debug_struct("ComputeLoop")
                .field("chunk", chunk)
                .finish_non_exhaustive(),
            Program::Dyn(_) => f.write_str("Dyn(..)"),
        }
    }
}

impl From<Box<dyn ThreadProgram>> for Program {
    fn from(p: Box<dyn ThreadProgram>) -> Self {
        Program::Dyn(p)
    }
}

impl<P: ThreadProgram + 'static> From<P> for Program {
    fn from(p: P) -> Self {
        Program::Dyn(Box::new(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(us: u64) -> Step {
        Step::Compute(SimDuration::from_micros(us))
    }

    #[test]
    fn alloc_reads_back_and_exits_past_end() {
        let mut a = StepArena::new();
        let steps = [compute(1), Step::Block { token: 7 }, compute(2)];
        let r = a.alloc(&steps);
        assert_eq!(r.len(), 3);
        for (i, &s) in steps.iter().enumerate() {
            assert_eq!(a.get(r, i as u32), Some(s));
        }
        assert_eq!(a.get(r, 3), None);
        // Capacity rounds to 4.
        assert_eq!(a.stats().slab_steps, 4);
    }

    #[test]
    fn free_recycles_same_class() {
        let mut a = StepArena::new();
        let r1 = a.alloc(&[compute(1), compute(2), compute(3)]); // class 4
        a.free(r1);
        let r2 = a.alloc(&[compute(9), compute(8), compute(7), compute(6)]); // class 4
        assert_eq!(r2.start, r1.start, "same-class alloc reuses the range");
        assert_eq!(a.stats().slab_steps, 4, "slab did not grow");
        assert_eq!(a.stats().ranges_reused, 1);
        assert_eq!(a.get(r2, 0), Some(compute(9)));
        assert_eq!(a.get(r2, 3), Some(compute(6)));
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        let mut a = StepArena::new();
        let small = a.alloc(&[compute(1)]);
        a.free(small);
        let big = a.alloc(&[compute(2), compute(3)]); // class 2: fresh slab
        assert_ne!(big.start, small.start);
        let small2 = a.alloc(&[compute(4)]); // recycles the class-1 range
        assert_eq!(small2.start, small.start);
        assert_eq!(a.get(big, 0), Some(compute(2)));
        assert_eq!(a.get(small2, 0), Some(compute(4)));
    }

    #[test]
    fn empty_script_needs_no_memory() {
        let mut a = StepArena::new();
        let r = a.alloc(&[]);
        assert!(r.is_empty());
        assert_eq!(a.get(r, 0), None);
        a.free(r);
        assert_eq!(a.stats().slab_steps, 0);
        assert_eq!(a.stats().live_ranges, 0);
    }

    #[test]
    fn steady_state_recycling_bounds_the_slab() {
        let mut a = StepArena::new();
        for round in 0..1_000u64 {
            let steps = [compute(round), Step::Block { token: round }, compute(1)];
            let r = a.alloc(&steps);
            assert_eq!(a.get(r, 1), Some(Step::Block { token: round }));
            a.free(r);
        }
        let s = a.stats();
        assert_eq!(s.slab_steps, 4, "one recycled range serves every round");
        assert_eq!(s.ranges_allocated, 1_000);
        assert_eq!(s.ranges_reused, 999);
        assert!(s.reuse_rate() > 0.99);
    }

    #[test]
    fn inline_variants_match_trait_programs() {
        let arena = StepArena::new();
        let mut rng = SimRng::seed_from_u64(1);
        let mut once = Program::compute_once(SimDuration::from_micros(5));
        assert_eq!(once.next_step(&arena, &mut rng), compute(5));
        assert_eq!(once.next_step(&arena, &mut rng), Step::Exit);
        assert_eq!(once.next_step(&arena, &mut rng), Step::Exit);

        let progress = Arc::new(AtomicU64::new(0));
        let mut lp = Program::compute_loop(SimDuration::from_micros(2), progress.clone());
        for _ in 0..3 {
            assert_eq!(lp.next_step(&arena, &mut rng), compute(2));
        }
        assert_eq!(progress.load(Ordering::Relaxed), 3);
    }
}
