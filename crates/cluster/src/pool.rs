//! A persistent worker pool for the cluster's parallel box run-aheads.
//!
//! Each lookahead window of the Fig 9 main loop opens by running every
//! box with work ahead to its own horizon ([`BoxSim::run_ahead`]). The
//! pool spawns its helper threads once per run and hands them one [`Job`]
//! per window: a list of `(box, horizon)` entries that the calling thread
//! and the helpers claim one at a time through a shared atomic cursor.
//! The caller works through the list itself and then waits only for the
//! entries a helper has actually claimed, so a helper that wakes late
//! costs nothing: a window's run-aheads (about 80 µs on the Fig 9
//! benchmark) take about as long as waking a parked thread, and on a
//! 2-core Xeon VM two threads ran `cluster-fig09` 0.95–1.08× as fast as
//! one. Boxes never observe each other between routed deliveries, so the
//! result is bit-identical to a serial run whichever thread runs which
//! box.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use indexserve::BoxSim;
use simcore::SimTime;

/// What a thread does to one box with work (injectable so tests can
/// exercise the pool's panic path without corrupting a real simulation).
type AdvanceFn = fn(&mut BoxSim, SimTime);

/// The production advance: run the box ahead to its horizon.
fn run_box_ahead(b: &mut BoxSim, horizon: SimTime) {
    b.run_ahead(horizon);
}

/// State shared by the caller and the helpers.
#[derive(Default)]
struct Shared {
    /// The live job's generation in the high 32 bits and its next
    /// unclaimed entry below: a claim only succeeds for the job a thread
    /// was handed, so a helper that wakes after its job ended claims
    /// nothing. The caller's `Release` store of a new job publishes the
    /// boxes' state (and the reset `done`) to every claim's `Acquire`.
    claim: AtomicU64,
    /// Entries the helpers finished in the live job. Each `Release`
    /// increment publishes the box it ran (and any `panicked` flag) to
    /// the caller's `Acquire` load.
    done: AtomicUsize,
    /// Set when a run-ahead panicked; ordered by `done`.
    panicked: AtomicBool,
}

/// One window's run-aheads: raw views of the box array and of the
/// `(box index, horizon)` entries to run.
#[derive(Clone, Copy)]
struct Job {
    generation: u32,
    boxes: *mut BoxSim,
    entries: *const (u32, SimTime),
    len: usize,
    advance: AdvanceFn,
}

// SAFETY: a `Job`'s pointers are only dereferenced for an entry claimed
// from `Shared::claim` under the job's generation, the caller stays in
// `WorkerPool::run_ahead` until every claimed entry is finished, and the
// entries name distinct boxes, so no box is ever aliased; the entries
// are only read. The other fields are plain values.
unsafe impl Send for Job {}

// The manual Send impl above erases the compiler's `BoxSim: Send` check;
// reinstate it so a future non-Send field inside BoxSim becomes a compile
// error instead of silent undefined behaviour.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BoxSim>()
};

impl Job {
    /// Claims and runs entries until none is left, and returns how many
    /// this thread ran. A panicking run-ahead is recorded in `shared`
    /// instead of unwinding, so claims and counts stay balanced.
    fn work(&self, shared: &Shared, count_done: bool) -> usize {
        let tag = u64::from(self.generation) << 32;
        let mut ran = 0;
        let mut cur = shared.claim.load(Ordering::Acquire);
        while cur & !u64::from(u32::MAX) == tag && ((cur as u32) as usize) < self.len {
            if let Err(actual) = shared.claim.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                cur = actual;
                continue;
            }
            let k = (cur as u32) as usize;
            // SAFETY: entry `k < len` of the live job is claimed by this
            // thread alone; `run_ahead_with` checked that it names a box in
            // range that no other entry names, and the caller leaves the
            // boxes alone until every claimed entry is finished.
            let (b, h) = unsafe {
                let (i, h) = *self.entries.add(k);
                (&mut *self.boxes.add(i as usize), h)
            };
            if catch_unwind(AssertUnwindSafe(|| (self.advance)(b, h))).is_err() {
                shared.panicked.store(true, Ordering::Relaxed);
            }
            if count_done {
                shared.done.fetch_add(1, Ordering::Release);
            }
            ran += 1;
            cur += 1;
        }
        ran
    }
}

/// The persistent pool. Dropping it shuts the helpers down.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Job>>,
    shared: Arc<Shared>,
    generation: u32,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool for `threads` threads in all: the caller plus
    /// `threads - 1` spawned helpers.
    pub(crate) fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let helpers = threads.saturating_sub(1);
        let mut senders = Vec::with_capacity(helpers);
        let mut handles = Vec::with_capacity(helpers);
        for _ in 0..helpers {
            let (tx, rx) = channel::<Job>();
            let shared = Arc::clone(&shared);
            senders.push(tx);
            handles.push(std::thread::spawn(move || helper_loop(&rx, &shared)));
        }
        WorkerPool {
            senders,
            shared,
            generation: 0,
            handles,
        }
    }

    /// Runs `boxes[i]` ahead to `h` for every `(i, h)` in `entries`, on
    /// the calling thread and the helpers, and returns once all of them
    /// are done. Blocks the calling thread for the whole run, which is
    /// what makes the raw pointer hand-off sound.
    ///
    /// # Panics
    ///
    /// Panics when an entry is out of range or two entries name the same
    /// box, and raises a fresh panic after the run when any run-ahead
    /// panicked, matching the fail-fast behaviour of a scoped-thread join.
    pub(crate) fn run_ahead(&mut self, boxes: &mut [BoxSim], entries: &[(u32, SimTime)]) {
        self.run_ahead_with(boxes, entries, run_box_ahead);
    }

    /// [`WorkerPool::run_ahead`] with an injectable per-box advance;
    /// tests use this to drive the panic path deterministically.
    fn run_ahead_with(
        &mut self,
        boxes: &mut [BoxSim],
        entries: &[(u32, SimTime)],
        advance: AdvanceFn,
    ) {
        assert!(
            entries.len() < u32::MAX as usize
                && entries.iter().all(|&(i, _)| (i as usize) < boxes.len())
                && entries.windows(2).all(|w| w[0].0 < w[1].0),
            "run-ahead entries must name distinct boxes in ascending order"
        );
        self.generation = self.generation.wrapping_add(1);
        let job = Job {
            generation: self.generation,
            boxes: boxes.as_mut_ptr(),
            entries: entries.as_ptr(),
            len: entries.len(),
            advance,
        };
        self.shared.done.store(0, Ordering::Relaxed);
        self.shared
            .claim
            .store(u64::from(job.generation) << 32, Ordering::Release);
        for tx in &self.senders {
            // A helper only stops when the pool drops; were one gone, the
            // caller would claim its share, so there is nothing to unwind.
            let _ = tx.send(job);
        }
        // Every entry is claimed once `work` returns; wait for the ones
        // the helpers are still running.
        let helped = entries.len() - job.work(&self.shared, false);
        let mut spins = 0u32;
        while self.shared.done.load(Ordering::Acquire) < helped {
            spins += 1;
            if spins < 1 << 10 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        assert!(
            !self.shared.panicked.swap(false, Ordering::Relaxed),
            "cluster pool worker panicked during a box run-ahead"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends the helper loops.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One helper thread: wait for a job, run what it can still claim.
fn helper_loop(rx: &Receiver<Job>, shared: &Shared) {
    while let Ok(job) = rx.recv() {
        job.work(shared, true);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use indexserve::{BoxConfig, SecondaryKind};
    use perfiso::PerfIsoConfig;

    use super::*;

    /// Boxes with a controller installed so poll timers guarantee every
    /// box has work due and workers actually run the run-ahead function.
    fn boxes(n: usize) -> Vec<BoxSim> {
        (0..n)
            .map(|i| {
                BoxSim::new(BoxConfig::paper_box(
                    SecondaryKind::none(),
                    Some(PerfIsoConfig::default()),
                    i as u64,
                ))
            })
            .collect()
    }

    static ADVANCED: AtomicUsize = AtomicUsize::new(0);

    fn counting_advance(b: &mut BoxSim, horizon: SimTime) {
        ADVANCED.fetch_add(1, Ordering::Relaxed);
        b.run_ahead(horizon);
    }

    /// A separate counter, so tests running concurrently cannot mix counts.
    static CLAIMED: AtomicUsize = AtomicUsize::new(0);

    fn counting_claims(b: &mut BoxSim, horizon: SimTime) {
        CLAIMED.fetch_add(1, Ordering::Relaxed);
        b.run_ahead(horizon);
    }

    fn panicking_advance(_b: &mut BoxSim, _horizon: SimTime) {
        panic!("injected box run-ahead failure");
    }

    /// The contract the Fig 9 main loop depends on: a panic inside a
    /// run-ahead must re-raise on the calling thread — not deadlock the
    /// completion wait, and not leave helpers hung — and the pool must
    /// still drop cleanly (joining every helper) afterwards.
    #[test]
    fn worker_panic_re_raises_on_caller_without_deadlock() {
        let mut pool = WorkerPool::new(3);
        let mut bs = boxes(4);
        let target = SimTime::from_millis(5);
        let all: Vec<(u32, SimTime)> = (0..4).map(|i| (i, target)).collect();

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_ahead_with(&mut bs, &all, panicking_advance);
        }));
        let payload = result.expect_err("a run-ahead panic must re-raise on the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("pool worker panicked"),
            "unexpected panic payload {msg:?}"
        );

        // No hung helpers: the pool accepts and completes fresh jobs.
        // (The panicking advance never touched a box, so they are intact.)
        // A box without an entry is skipped.
        ADVANCED.store(0, Ordering::Relaxed);
        let early: Vec<(u32, SimTime)> = (0..4).map(|i| (i, SimTime::from_millis(1))).collect();
        pool.run_ahead(&mut bs, &early);
        let some: Vec<(u32, SimTime)> = all.iter().copied().filter(|&(i, _)| i != 2).collect();
        pool.run_ahead_with(&mut bs, &some, counting_advance);
        assert_eq!(
            ADVANCED.load(Ordering::Relaxed),
            3,
            "every entry must be run exactly once after recovery"
        );
        for (i, b) in bs.iter().enumerate() {
            assert_eq!(
                b.next_event_time().is_some_and(|n| n > target),
                i != 2,
                "exactly the boxes with an entry are quiescent up to it"
            );
        }
        drop(pool); // must join, not hang
    }

    /// The claim guard a late helper relies on: a thread holding a job
    /// that has ended (an older generation) claims nothing, while the
    /// live job's entries each run exactly once.
    #[test]
    fn ended_job_claims_nothing() {
        let shared = Shared::default();
        let mut bs = boxes(3);
        let entries: Vec<(u32, SimTime)> = (0..3).map(|i| (i, SimTime::from_millis(1))).collect();
        let boxes = bs.as_mut_ptr();
        let job = |generation| Job {
            generation,
            boxes,
            entries: entries.as_ptr(),
            len: entries.len(),
            advance: counting_claims,
        };
        let (ended, live) = (job(1), job(2));
        shared.claim.store(2 << 32, Ordering::Release);
        assert_eq!(ended.work(&shared, true), 0);
        assert_eq!(CLAIMED.load(Ordering::Relaxed), 0);
        assert_eq!(live.work(&shared, true), 3);
        assert_eq!(live.work(&shared, true), 0, "every entry is claimed once");
        assert_eq!(CLAIMED.load(Ordering::Relaxed), 3);
        assert_eq!(shared.done.load(Ordering::Acquire), 3);
    }

    /// Dropping a pool mid-life joins every helper even if no job ran.
    #[test]
    fn idle_pool_drops_cleanly() {
        let pool = WorkerPool::new(2);
        let start = std::time::Instant::now();
        drop(pool);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must not hang on idle helpers"
        );
    }
}
