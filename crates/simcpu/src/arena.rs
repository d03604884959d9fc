//! Arena-backed thread programs: the allocation-free spawn path.
//!
//! The evaluation workloads spawn millions of short-lived scripted threads
//! (~13 per IndexServe query). Boxing a fresh [`ThreadProgram`] plus a step
//! `Vec` per spawn made the spawn path the dominant allocation cost of the
//! whole simulation. This module replaces it:
//!
//! - [`StepArena`] — one contiguous [`Step`] slab shared by every scripted
//!   thread on a machine, cut into blocks of four steps. A script takes
//!   `ceil(len / 4)` blocks chained through a per-block successor index.
//!   When its thread exits or is killed, the blocks go back on one LIFO
//!   free list that serves scripts of every length, so in steady state
//!   spawning allocates nothing, and the slab grows only when that list is
//!   empty: it holds exactly the peak number of live blocks.
//! - [`Program`] — the machine's internal program representation: scripted
//!   ranges and the two ubiquitous compute shapes are stored inline in the
//!   thread table; `Dyn` keeps the boxed [`ThreadProgram`] escape hatch for
//!   custom stateful workloads (disk-bully workers, HDFS duty cycles, ML
//!   trainers, test closures).
//!
//! Determinism is unaffected: none of the inline variants draw from the
//! machine RNG (exactly like the boxed [`crate::programs::Script`] a
//! scripted range replaces), and block recycling is plain LIFO. Which
//! blocks a script lands in never reaches a report.

use simcore::{SimDuration, SimRng};

use crate::program::{Step, ThreadProgram};

/// Steps per arena block.
const BLOCK: usize = 4;

/// Blocks of capacity the slab reserves whenever it is full: a fixed
/// increment, so capacity stays within one increment of the peak instead
/// of doubling past it.
const GROW_BLOCKS: usize = 16;

/// End of a block chain, and of the free list.
const NIL: u32 = u32::MAX;

/// A script's chain of arena blocks: the first block and the step count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRange {
    head: u32,
    len: u32,
}

impl StepRange {
    /// An empty range (a script that exits immediately).
    pub const EMPTY: StepRange = StepRange { head: NIL, len: 0 };

    /// Number of steps in the script.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True for a zero-step script.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Blocks in the chain.
    fn blocks(&self) -> u64 {
        u64::from(self.len).div_ceil(BLOCK as u64)
    }
}

/// Arena occupancy and recycling counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArenaStats {
    /// Slab length in steps — the high-water mark of arena memory. The
    /// slab grows one block at a time, only when no freed block is left,
    /// and never shrinks, so it is `peak_live_blocks` blocks of four steps.
    pub slab_steps: u64,
    /// Slab high-water in bytes (the chain links add 4 bytes per block).
    pub slab_bytes: u64,
    /// Ranges currently live (scripted threads that have not exited).
    pub live_ranges: u64,
    /// Peak concurrent live ranges.
    pub peak_live_ranges: u64,
    /// Peak concurrent live blocks — the slab's size in blocks.
    pub peak_live_blocks: u64,
    /// Peak of the summed lengths of live scripts: what the slab would
    /// hold if every script fitted exactly.
    pub peak_live_steps: u64,
    /// Total ranges handed out over the arena's lifetime.
    pub ranges_allocated: u64,
    /// Allocations served without growing the slab: every block came off
    /// the free list.
    pub ranges_reused: u64,
}

impl ArenaStats {
    /// Fraction of allocations served without growing the slab.
    pub fn reuse_rate(&self) -> f64 {
        if self.ranges_allocated == 0 {
            0.0
        } else {
            self.ranges_reused as f64 / self.ranges_allocated as f64
        }
    }
}

/// One `Step` slab of four-step blocks with one block free list.
///
/// Any freed block serves any later script, so fragmentation cannot
/// accumulate: the slab grows only when every block is live, and its
/// high-water is exactly the peak live block count. A script wastes at
/// most three steps in its last block.
#[derive(Debug)]
pub struct StepArena {
    /// Block `b` holds steps `slab[b * BLOCK..(b + 1) * BLOCK]`.
    slab: Vec<Step>,
    /// Per block: the next block of its script's chain, or of the free
    /// list; [`NIL`] ends either.
    next: Vec<u32>,
    /// Head of the LIFO free list.
    free: u32,
    /// Blocks held by live scripts.
    live_blocks: u64,
    /// Summed lengths of live scripts.
    live_steps: u64,
    /// Every counter but the slab's size, which `stats` reads off the slab.
    counts: ArenaStats,
}

impl Default for StepArena {
    fn default() -> Self {
        StepArena::new()
    }
}

impl StepArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        StepArena::with_capacity(0)
    }

    /// Creates an arena with pre-allocated slab capacity, rounded up to
    /// whole blocks.
    pub fn with_capacity(steps: usize) -> Self {
        let blocks = steps.div_ceil(BLOCK);
        StepArena {
            slab: Vec::with_capacity(blocks * BLOCK),
            next: Vec::with_capacity(blocks),
            free: NIL,
            live_blocks: 0,
            live_steps: 0,
            counts: ArenaStats::default(),
        }
    }

    /// Copies `steps` into the arena and returns the owning range.
    ///
    /// Takes blocks off the free list while it has any, then grows the
    /// slab at the tail.
    pub fn alloc(&mut self, steps: &[Step]) -> StepRange {
        let len = u32::try_from(steps.len()).expect("script longer than u32::MAX steps");
        if len == 0 {
            return StepRange::EMPTY;
        }
        let slab_before = self.slab.len();
        let (mut head, mut tail) = (NIL, NIL);
        for chunk in steps.chunks(BLOCK) {
            let b = self.take_block();
            let at = b as usize * BLOCK;
            self.slab[at..at + chunk.len()].copy_from_slice(chunk);
            match tail {
                NIL => head = b,
                t => self.next[t as usize] = b,
            }
            tail = b;
        }
        self.next[tail as usize] = NIL;
        let range = StepRange { head, len };
        self.live_blocks += range.blocks();
        self.live_steps += u64::from(len);
        let c = &mut self.counts;
        c.ranges_allocated += 1;
        c.ranges_reused += u64::from(self.slab.len() == slab_before);
        c.live_ranges += 1;
        c.peak_live_ranges = c.peak_live_ranges.max(c.live_ranges);
        c.peak_live_blocks = c.peak_live_blocks.max(self.live_blocks);
        c.peak_live_steps = c.peak_live_steps.max(self.live_steps);
        range
    }

    /// Pops a block off the free list, or appends a fresh one to the slab.
    fn take_block(&mut self) -> u32 {
        if self.free != NIL {
            let b = self.free;
            self.free = self.next[b as usize];
            return b;
        }
        if self.next.len() == self.next.capacity() {
            self.next.reserve_exact(GROW_BLOCKS);
        }
        if self.slab.len() == self.slab.capacity() {
            self.slab.reserve_exact(GROW_BLOCKS * BLOCK);
        }
        let b = u32::try_from(self.next.len()).expect("arena past u32::MAX blocks");
        self.next.push(NIL);
        self.slab.extend_from_slice(&[Step::Exit; BLOCK]);
        b
    }

    /// Returns every block of a range's chain to the free list.
    ///
    /// Must be called exactly once per allocated range; the machine does so
    /// when the owning thread exits or is killed.
    pub fn free(&mut self, range: StepRange) {
        if range.is_empty() {
            return;
        }
        let blocks = range.blocks();
        let mut tail = range.head;
        for _ in 1..blocks {
            tail = self.next[tail as usize];
        }
        self.next[tail as usize] = self.free;
        self.free = range.head;
        self.counts.live_ranges -= 1;
        self.live_blocks -= blocks;
        self.live_steps -= u64::from(range.len);
    }

    /// The step at position `at` within `range`, or `None` past the end.
    /// Walks the chain from its head; replay uses [`Program`]'s cursor.
    pub fn get(&self, range: StepRange, at: u32) -> Option<Step> {
        if at >= range.len {
            return None;
        }
        let mut block = range.head;
        for _ in 0..at as usize / BLOCK {
            block = self.next[block as usize];
        }
        Some(self.slab[block as usize * BLOCK + at as usize % BLOCK])
    }

    /// The step under a replay cursor, moving the cursor on: `block` is
    /// the block holding step `at`, and follows the chain at each block
    /// edge, so a step costs O(1) however long the script.
    fn replay(&self, range: StepRange, block: &mut u32, at: &mut u32) -> Step {
        if *at >= range.len {
            return Step::Exit;
        }
        let step = self.slab[*block as usize * BLOCK + *at as usize % BLOCK];
        *at += 1;
        if (*at as usize).is_multiple_of(BLOCK) {
            *block = self.next[*block as usize];
        }
        step
    }

    /// Occupancy and recycling counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            slab_steps: self.slab.len() as u64,
            slab_bytes: std::mem::size_of_val(self.slab.as_slice()) as u64,
            ..self.counts
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
        /// The arena block holding step `at`.
        block: u32,
        /// Replay cursor: the next step's position in the script.
        at: u32,
    },
    /// Computes once for a fixed duration, then exits.
    ComputeOnce {
        /// Compute duration.
        duration: SimDuration,
        /// Whether the compute segment was already issued.
        done: bool,
    },
    /// Computes in fixed chunks forever, until killed; the chunk only sets
    /// the segment length.
    ComputeLoop {
        /// Compute segment length.
        chunk: SimDuration,
    },
    /// A boxed custom program: the escape hatch for stateful workloads.
    Dyn(Box<dyn ThreadProgram>),
}

impl Program {
    /// Replays an arena range from its first step.
    pub(crate) fn scripted(range: StepRange) -> Program {
        Program::Scripted {
            range,
            block: range.head,
            at: 0,
        }
    }

    /// A one-shot compute program (no allocation).
    pub fn compute_once(duration: SimDuration) -> Program {
        Program::ComputeOnce {
            duration,
            done: false,
        }
    }

    /// An infinite compute loop (no allocation).
    pub fn compute_loop(chunk: SimDuration) -> Program {
        Program::ComputeLoop { chunk }
    }

    /// Pulls the next step. `arena` resolves scripted ranges; `rng` feeds
    /// `Dyn` programs exactly as the trait contract specifies.
    pub(crate) fn next_step(&mut self, arena: &StepArena, rng: &mut SimRng) -> Step {
        match self {
            Program::Scripted { range, block, at } => arena.replay(*range, block, at),
            Program::ComputeOnce { duration, done } => {
                if *done {
                    Step::Exit
                } else {
                    *done = true;
                    Step::Compute(*duration)
                }
            }
            Program::ComputeLoop { chunk } => Step::Compute(*chunk),
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
            Program::Scripted { range, block, at } => f
                .debug_struct("Scripted")
                .field("range", range)
                .field("block", block)
                .field("at", at)
                .finish(),
            Program::ComputeOnce { duration, done } => f
                .debug_struct("ComputeOnce")
                .field("duration", duration)
                .field("done", done)
                .finish(),
            Program::ComputeLoop { chunk } => {
                f.debug_struct("ComputeLoop").field("chunk", chunk).finish()
            }
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

    /// `len` distinct steps, tagged with `base` so scripts tell apart.
    fn script(base: u64, len: u64) -> Vec<Step> {
        (0..len)
            .map(|i| match i % 3 {
                0 => compute(base + i),
                1 => Step::Block { token: base + i },
                _ => Step::Sleep(SimDuration::from_micros(base + i)),
            })
            .collect()
    }

    /// Replays `range` through the thread's cursor, as the machine does.
    fn replay(a: &StepArena, range: StepRange) -> Vec<Step> {
        let mut p = Program::scripted(range);
        let mut rng = SimRng::seed_from_u64(1);
        let mut out = Vec::new();
        loop {
            match p.next_step(a, &mut rng) {
                Step::Exit => return out,
                s => out.push(s),
            }
        }
    }

    #[test]
    fn alloc_reads_back_and_exits_past_end() {
        for len in [1, 3, 4, 5, 8, 9, 36] {
            let mut a = StepArena::new();
            // A script in front, so the chain under test starts mid-slab.
            let _pad = a.alloc(&script(1_000, 3));
            let steps = script(len * 100, len);
            let r = a.alloc(&steps);
            assert_eq!(r.len() as u64, len);
            for (i, &s) in steps.iter().enumerate() {
                assert_eq!(a.get(r, i as u32), Some(s), "len {len}, step {i}");
            }
            assert_eq!(a.get(r, len as u32), None);
            assert_eq!(replay(&a, r), steps, "cursor replay of {len} steps");
            // Whole blocks: the script's own plus the pad's one.
            assert_eq!(a.stats().slab_steps, 4 * (len.div_ceil(4) + 1));
        }
    }

    #[test]
    fn freed_blocks_serve_scripts_of_any_length() {
        let mut a = StepArena::new();
        let five = a.alloc(&script(10, 5));
        assert_eq!(a.stats().slab_steps, 8);
        a.free(five);
        // Power-of-two classes would put these in a different class from
        // the 5-step script and grow the slab; blocks serve them both.
        let x = a.alloc(&script(20, 3));
        let y = a.alloc(&script(30, 3));
        let s = a.stats();
        assert_eq!(s.slab_steps, 8, "slab did not grow");
        assert_eq!(s.ranges_reused, 2);
        assert_eq!(replay(&a, x), script(20, 3));
        assert_eq!(replay(&a, y), script(30, 3));
    }

    #[test]
    fn interleaved_lengths_never_alias() {
        let mut a = StepArena::new();
        let mut live: Vec<(u64, u64, StepRange)> = Vec::new();
        for round in 0..200u64 {
            let len = 1 + round * 7 % 13;
            let base = round * 1_000;
            live.push((base, len, a.alloc(&script(base, len))));
            if round % 3 == 2 {
                // Free from the middle, so chains interleave on the list.
                let (_, _, r) = live.remove(live.len() / 2);
                a.free(r);
            }
            for &(base, len, r) in &live {
                assert_eq!(replay(&a, r), script(base, len), "round {round}");
            }
        }
        let s = a.stats();
        assert_eq!(s.live_ranges, live.len() as u64);
        assert_eq!(s.slab_steps, 4 * s.peak_live_blocks);
    }

    #[test]
    fn empty_script_needs_no_memory() {
        let mut a = StepArena::new();
        let r = a.alloc(&[]);
        assert!(r.is_empty());
        assert_eq!(a.get(r, 0), None);
        assert_eq!(replay(&a, r), []);
        a.free(r);
        let s = a.stats();
        assert_eq!(s.slab_steps, 0);
        assert_eq!(s.live_ranges, 0);
        assert_eq!(s.ranges_allocated, 0);
    }

    #[test]
    fn steady_state_recycling_bounds_the_slab() {
        let mut a = StepArena::new();
        for round in 0..1_000u64 {
            let steps = script(round, 1 + round % 8);
            let r = a.alloc(&steps);
            assert_eq!(a.get(r, 0), Some(steps[0]));
            a.free(r);
        }
        let s = a.stats();
        assert_eq!(s.slab_steps, 8, "two recycled blocks serve every round");
        assert_eq!(s.peak_live_steps, 8);
        assert_eq!(s.ranges_allocated, 1_000);
        // Only the first script and the first longer than 4 steps grew it.
        assert_eq!(s.ranges_reused, 998);
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

        let mut lp = Program::compute_loop(SimDuration::from_micros(2));
        for _ in 0..3 {
            assert_eq!(lp.next_step(&arena, &mut rng), compute(2));
        }
    }
}
