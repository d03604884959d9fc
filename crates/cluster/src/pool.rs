//! A persistent worker pool for the cluster's parallel box advances.
//!
//! The Fig 9 main loop advances many independent [`BoxSim`]s to the same
//! instant whenever controller poll ticks line up across machines. Doing
//! that with a fresh `thread::scope` per qualifying step pays thread
//! spawn/join latency thousands of times per run; this pool spawns the
//! workers once and hands them one [`Job`] per step instead.
//!
//! Workers claim fixed-size chunks of the box array through a shared
//! atomic cursor, so load balances freely while every box is still
//! advanced exactly once. Boxes never observe each other between routed
//! deliveries, so the result is bit-identical to a serial advance
//! regardless of which worker processes which chunk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use indexserve::BoxSim;
use simcore::SimTime;

/// What a worker does to one due box (injectable so tests can exercise
/// the pool's panic path without corrupting a real simulation).
type AdvanceFn = fn(&mut BoxSim, SimTime);

/// The production advance: catch the box up to the target instant.
fn advance_box(b: &mut BoxSim, target: SimTime) {
    b.advance_to(target);
}

/// One advance request: a raw view of the box array plus the target time.
#[derive(Clone, Copy)]
struct Job {
    boxes: *mut BoxSim,
    len: usize,
    chunk: usize,
    target: SimTime,
    advance: AdvanceFn,
}

// SAFETY: a `Job` is only live while `WorkerPool::advance_due` blocks the
// owning thread, and workers touch pairwise-disjoint chunks (claimed via
// the shared atomic cursor), so the aliasing rules hold.
unsafe impl Send for Job {}

// The manual Send impl above erases the compiler's `BoxSim: Send` check;
// reinstate it so a future non-Send field inside BoxSim becomes a compile
// error instead of silent undefined behaviour.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BoxSim>()
};

/// The persistent pool. Dropping it shuts the workers down.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Job>>,
    /// Per-job completion signals; `true` means that worker panicked.
    done_rx: Receiver<bool>,
    cursor: Arc<AtomicUsize>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (≥ 2 is useful; 1 still works) pool threads.
    pub(crate) fn new(workers: usize) -> Self {
        let cursor = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel::<bool>();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Job>();
            let cursor = Arc::clone(&cursor);
            let done = done_tx.clone();
            senders.push(tx);
            handles.push(std::thread::spawn(move || worker_loop(&rx, &cursor, &done)));
        }
        WorkerPool {
            senders,
            done_rx,
            cursor,
            handles,
        }
    }

    /// Advances every box with work due at or before `target`, in
    /// parallel, and returns once all of them are quiescent. Blocks the
    /// calling thread for the whole advance, which is what makes the raw
    /// pointer hand-off sound.
    ///
    /// # Panics
    ///
    /// Re-raises (as a fresh panic) any panic that occurred inside a
    /// worker, matching the fail-fast behaviour of a scoped-thread join.
    pub(crate) fn advance_due(&mut self, boxes: &mut [BoxSim], target: SimTime) {
        self.advance_due_with(boxes, target, advance_box);
    }

    /// [`WorkerPool::advance_due`] with an injectable per-box advance;
    /// tests use this to drive the panic path deterministically.
    fn advance_due_with(&mut self, boxes: &mut [BoxSim], target: SimTime, advance: AdvanceFn) {
        if boxes.is_empty() {
            return;
        }
        self.cursor.store(0, Ordering::Relaxed);
        let job = Job {
            boxes: boxes.as_mut_ptr(),
            len: boxes.len(),
            chunk: boxes.len().div_ceil(self.senders.len()),
            target,
            advance,
        };
        for tx in &self.senders {
            tx.send(job).expect("pool worker exited early");
        }
        let mut worker_panicked = false;
        for _ in 0..self.senders.len() {
            worker_panicked |= self.done_rx.recv().expect("pool worker exited early");
        }
        assert!(
            !worker_panicked,
            "cluster pool worker panicked during a box advance"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One pool thread: claim chunks, advance due boxes, signal completion.
///
/// A panic while advancing (a simulation invariant violation) is caught
/// so the done signal still reaches the submitter — which then re-raises
/// instead of deadlocking on a signal that would never come. The boxes
/// are never touched again after a panic: the submitter aborts the run.
fn worker_loop(rx: &Receiver<Job>, cursor: &AtomicUsize, done: &Sender<bool>) {
    while let Ok(job) = rx.recv() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            let start = cursor.fetch_add(1, Ordering::Relaxed) * job.chunk;
            if start >= job.len {
                break;
            }
            let end = (start + job.chunk).min(job.len);
            // SAFETY: `start..end` ranges from distinct cursor values are
            // disjoint, and the submitting thread blocks in `advance_due`
            // until every worker has signalled `done`, so no other code
            // aliases these boxes while we hold the slice.
            let boxes =
                unsafe { std::slice::from_raw_parts_mut(job.boxes.add(start), end - start) };
            for b in boxes {
                if b.next_event_time().is_some_and(|n| n <= job.target) {
                    (job.advance)(b, job.target);
                }
            }
        }));
        if done.send(result.is_err()).is_err() {
            return; // Pool dropped mid-job: nothing left to report to.
        }
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
    /// box has work due and workers actually run the advance function.
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

    fn counting_advance(b: &mut BoxSim, target: SimTime) {
        ADVANCED.fetch_add(1, Ordering::Relaxed);
        b.advance_to(target);
    }

    fn panicking_advance(_b: &mut BoxSim, _target: SimTime) {
        panic!("injected box-advance failure");
    }

    /// The contract the Fig 9 main loop depends on: a panic inside a
    /// worker must re-raise on the submitting thread — not deadlock the
    /// `done` rendezvous, and not leave workers hung — and the pool must
    /// still drop cleanly (joining every worker) afterwards.
    #[test]
    fn worker_panic_re_raises_on_caller_without_deadlock() {
        let mut pool = WorkerPool::new(3);
        let mut bs = boxes(4);
        let target = SimTime::from_millis(5);

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.advance_due_with(&mut bs, target, panicking_advance);
        }));
        let payload = result.expect_err("worker panic must re-raise on the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("pool worker panicked"),
            "unexpected panic payload {msg:?}"
        );

        // No hung workers: the pool accepts and completes a fresh job.
        // (The panicking advance never touched a box, so they are intact.)
        ADVANCED.store(0, Ordering::Relaxed);
        pool.advance_due(&mut bs, SimTime::from_millis(1));
        pool.advance_due_with(&mut bs, target, counting_advance);
        assert_eq!(
            ADVANCED.load(Ordering::Relaxed),
            4,
            "every due box must be advanced exactly once after recovery"
        );
        for b in &mut bs {
            assert!(
                b.next_event_time().is_some_and(|n| n > target),
                "boxes must be quiescent up to the target"
            );
        }
        drop(pool); // must join, not hang
    }

    /// Dropping a pool mid-life joins every worker even if no job ran.
    #[test]
    fn idle_pool_drops_cleanly() {
        let pool = WorkerPool::new(2);
        let start = std::time::Instant::now();
        drop(pool);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must not hang on idle workers"
        );
    }
}
