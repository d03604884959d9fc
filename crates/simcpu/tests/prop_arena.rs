//! Property-based tests for the arena-backed spawn path.
//!
//! Two contracts are locked down:
//!
//! 1. **Equivalence** — a thread spawned through `spawn_scripted` (arena
//!    range) behaves bit-for-bit like the same steps spawned as a boxed
//!    `Script` program: identical machine outputs at identical times.
//! 2. **No leaks, no aliasing** — arbitrary spawn/exit/kill interleavings
//!    recycle every range: the arena's live count tracks live scripted
//!    threads exactly, and over a long churn the slab high-water stays
//!    bounded by the peak concurrency, not the total spawn count.
//! 3. **Exact footprint** — under any alloc/free order over mixed
//!    lengths, every live script reads back intact and the slab holds
//!    exactly the peak number of live four-step blocks.

use proptest::prelude::*;
use simcore::{SimDuration, SimTime};
use simcpu::programs::Script;
use simcpu::{CoreMask, Machine, MachineConfig, MachineOutput, Step, StepArena, StepRange};
use telemetry::TenantClass;

fn small_machine(cores: u32) -> Machine {
    Machine::with_seed(MachineConfig::small(cores), 7)
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..3_000).prop_map(|us| Step::Compute(SimDuration::from_micros(us))),
        (0u64..8).prop_map(|t| Step::Block { token: t }),
        (1u64..1_000).prop_map(|us| Step::Sleep(SimDuration::from_micros(us))),
    ]
}

/// Drives the machine to quiescence, waking every blocked thread
/// immediately, and returns the observable trace as `(time, kind, tag,
/// token)` tuples.
fn drive(m: &mut Machine, upto: SimTime) -> Vec<(u64, u8, u64, u64)> {
    let mut trace = Vec::new();
    let mut outs = Vec::new();
    loop {
        let now = m.now();
        m.drain_outputs_into(&mut outs);
        if !outs.is_empty() {
            for o in outs.drain(..) {
                match o {
                    MachineOutput::ThreadBlocked { tid, tag, token } => {
                        trace.push((now.as_nanos(), 0, tag, token));
                        m.wake(now, tid);
                    }
                    MachineOutput::ThreadExited { tag, killed, .. } => {
                        trace.push((now.as_nanos(), 1, tag, killed as u64));
                    }
                }
            }
            continue;
        }
        match m.next_timer_at().filter(|&t| t <= upto) {
            Some(t) => m.advance_to(t),
            None => {
                m.advance_to(upto);
                break;
            }
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An arena-scripted thread replays the exact step sequence of the
    /// equivalent boxed `Script` program: the full machine-output traces
    /// (kinds, tags, tokens, and timestamps) must match.
    #[test]
    fn prop_scripted_matches_boxed_script(
        scripts in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 0..10), 1..8),
        cores in 1u32..5,
    ) {
        let mut boxed = small_machine(cores);
        let jb = boxed.create_job(TenantClass::Primary, CoreMask::all(cores));
        let mut arena = small_machine(cores);
        let ja = arena.create_job(TenantClass::Primary, CoreMask::all(cores));

        for (i, steps) in scripts.iter().enumerate() {
            // Stagger spawns so mid-run spawns hit busy machines too.
            let at = SimTime::from_micros(i as u64 * 500);
            boxed.spawn_thread(at, jb, Box::new(Script::new(steps.clone())), i as u64);
            let mut w = arena.spawn_scripted(at, ja, i as u64);
            for &s in steps {
                w.push(s);
            }
            w.finish();
        }

        let horizon = SimTime::from_secs(5);
        let tb = drive(&mut boxed, horizon);
        let ta = drive(&mut arena, horizon);
        prop_assert_eq!(tb, ta, "arena trace diverged from boxed Script trace");
        prop_assert_eq!(boxed.live_thread_count(), 0);
        prop_assert_eq!(arena.live_thread_count(), 0);

        // Every finished script returned its range.
        let s = arena.arena_stats();
        prop_assert_eq!(s.live_ranges, 0, "exited threads must free their ranges");
        prop_assert_eq!(
            s.ranges_allocated,
            scripts.iter().filter(|st| !st.is_empty()).count() as u64
        );
    }

    /// Spawn/exit/kill interleavings never leak or alias ranges: the live
    /// count always equals the number of live scripted threads, and the
    /// slab high-water over a long churn is bounded by peak concurrency
    /// (recycling), not by the total number of spawns.
    #[test]
    fn prop_churn_never_leaks_and_slab_stays_bounded(
        seed_steps in proptest::collection::vec(1u64..500, 1..6),
        kill_mask in proptest::collection::vec(any::<bool>(), 64..65),
        batch in 1usize..6,
    ) {
        let cores = 2;
        let mut m = small_machine(cores);
        let job = m.create_job(TenantClass::Primary, CoreMask::all(cores));
        let rounds = 64usize;
        let mut live_tids = Vec::new();
        for (round, &kill) in kill_mask.iter().enumerate().take(rounds) {
            let now = SimTime::from_micros(round as u64 * 2_000);
            for b in 0..batch {
                // Long sleeps keep the scripts alive until killed or the
                // next advance, forcing real concurrency in the arena.
                let mut w = m.spawn_scripted(now, job, (round * batch + b) as u64);
                for &us in &seed_steps {
                    w.compute(SimDuration::from_micros(us));
                    w.sleep(SimDuration::from_micros(400));
                }
                live_tids.push(w.finish());
            }
            if kill {
                for tid in live_tids.drain(..) {
                    m.kill_thread(now, tid);
                }
                prop_assert_eq!(
                    m.arena_stats().live_ranges,
                    m.live_thread_count() as u64,
                    "kill must recycle exactly the killed scripts' ranges"
                );
            }
        }
        // Let every surviving thread run to completion.
        m.advance_to(SimTime::from_secs(60));
        let s = m.arena_stats();
        prop_assert_eq!(m.live_thread_count(), 0);
        prop_assert_eq!(s.live_ranges, 0, "churn leaked arena ranges");
        prop_assert_eq!(s.ranges_allocated, (rounds * batch) as u64);

        // Bounded: the slab is exactly the peak live block count, and
        // that peak is at most the peak concurrency times one script's
        // blocks, far below total spawns.
        prop_assert_eq!(s.slab_steps, 4 * s.peak_live_blocks);
        let script_len = (seed_steps.len() * 2) as u64;
        prop_assert!(
            s.peak_live_blocks <= s.peak_live_ranges * script_len.div_ceil(4),
            "peak {} blocks exceeds peak footprint {} x {}",
            s.peak_live_blocks, s.peak_live_ranges, script_len.div_ceil(4)
        );
        // Every allocation past the concurrency peak was served by reuse:
        // the slab grows only when every block is live, and with equal
        // lengths that happens at most once per concurrent script.
        prop_assert!(s.ranges_reused + s.peak_live_ranges >= s.ranges_allocated);
    }

    /// Scripts of 1..40 steps allocated and freed in any order: every live
    /// script reads back intact after every operation, and the slab and
    /// the peaks equal a block-counting model exactly.
    #[test]
    fn prop_arena_reads_back_and_slab_equals_peak_blocks(
        ops in proptest::collection::vec((1u64..40, any::<bool>(), any::<usize>()), 1..160),
    ) {
        let mut arena = StepArena::new();
        let mut live: Vec<(Vec<Step>, StepRange)> = Vec::new();
        let (mut blocks, mut peak_blocks) = (0u64, 0u64);
        let (mut steps_live, mut peak_steps) = (0u64, 0u64);
        for (i, &(len, free, pick)) in ops.iter().enumerate() {
            if free && !live.is_empty() {
                let (steps, range) = live.swap_remove(pick % live.len());
                blocks -= (steps.len() as u64).div_ceil(4);
                steps_live -= steps.len() as u64;
                arena.free(range);
            } else {
                let steps: Vec<Step> = (0..len)
                    .map(|k| Step::Block { token: (i as u64) << 8 | k })
                    .collect();
                let range = arena.alloc(&steps);
                blocks += len.div_ceil(4);
                steps_live += len;
                peak_blocks = peak_blocks.max(blocks);
                peak_steps = peak_steps.max(steps_live);
                live.push((steps, range));
            }
            for (steps, range) in &live {
                for (k, &step) in steps.iter().enumerate() {
                    prop_assert_eq!(arena.get(*range, k as u32), Some(step));
                }
                prop_assert_eq!(arena.get(*range, steps.len() as u32), None);
            }
        }
        let s = arena.stats();
        prop_assert_eq!(s.slab_steps, 4 * s.peak_live_blocks);
        prop_assert_eq!(s.peak_live_blocks, peak_blocks);
        prop_assert_eq!(s.peak_live_steps, peak_steps);
        prop_assert_eq!(s.live_ranges, live.len() as u64);
    }
}
