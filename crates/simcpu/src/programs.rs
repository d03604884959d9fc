//! Reusable [`ThreadProgram`] building blocks.

use simcore::{SimDuration, SimRng};

use crate::program::{Step, ThreadProgram};

/// Computes once for a fixed duration, then exits.
#[derive(Clone, Debug)]
pub struct ComputeOnce {
    duration: SimDuration,
    done: bool,
}

impl ComputeOnce {
    /// Creates a one-shot compute program.
    pub fn new(duration: SimDuration) -> Self {
        ComputeOnce {
            duration,
            done: false,
        }
    }
}

impl ThreadProgram for ComputeOnce {
    fn next_step(&mut self, _rng: &mut SimRng) -> Step {
        if self.done {
            Step::Exit
        } else {
            self.done = true;
            Step::Compute(self.duration)
        }
    }
}

/// Computes in fixed-size chunks forever (or until killed).
///
/// This is the heart of the CPU bully: each completed chunk is one unit of
/// "progress". The owner reads progress through the shared counter.
#[derive(Debug)]
pub struct ComputeLoop {
    chunk: SimDuration,
    progress: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ComputeLoop {
    /// Creates an infinite compute loop with the given chunk size; each
    /// completed chunk increments `progress`.
    pub fn new(chunk: SimDuration, progress: std::sync::Arc<std::sync::atomic::AtomicU64>) -> Self {
        ComputeLoop { chunk, progress }
    }
}

impl ThreadProgram for ComputeLoop {
    fn next_step(&mut self, _rng: &mut SimRng) -> Step {
        // The first call starts the first chunk; every subsequent call means
        // the previous chunk finished.
        self.progress
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Step::Compute(self.chunk)
    }
}

/// Runs a fixed sequence of steps, then exits.
#[derive(Clone, Debug)]
pub struct Script {
    steps: Vec<Step>,
    at: usize,
}

impl Script {
    /// Creates a program that replays `steps` in order and then exits.
    pub fn new(steps: Vec<Step>) -> Self {
        Script { steps, at: 0 }
    }
}

impl ThreadProgram for Script {
    fn next_step(&mut self, _rng: &mut SimRng) -> Step {
        let s = self.steps.get(self.at).copied().unwrap_or(Step::Exit);
        self.at += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn compute_once_exits() {
        let mut p = ComputeOnce::new(SimDuration::from_micros(5));
        let mut rng = SimRng::seed_from_u64(1);
        assert!(matches!(p.next_step(&mut rng), Step::Compute(_)));
        assert_eq!(p.next_step(&mut rng), Step::Exit);
        assert_eq!(p.next_step(&mut rng), Step::Exit);
    }

    #[test]
    fn compute_loop_counts_progress() {
        let progress = Arc::new(AtomicU64::new(0));
        let mut p = ComputeLoop::new(SimDuration::from_millis(1), progress.clone());
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..5 {
            assert!(matches!(p.next_step(&mut rng), Step::Compute(_)));
        }
        // First call starts chunk 1; 5 calls = 5 chunk starts, 4 completions
        // plus the initial one counted on start. The counter increments per
        // call by design; the owner interprets it as completed chunks.
        assert_eq!(progress.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn script_replays_then_exits() {
        let mut p = Script::new(vec![
            Step::Compute(SimDuration::from_micros(1)),
            Step::Block { token: 9 },
            Step::Sleep(SimDuration::from_micros(2)),
        ]);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(matches!(p.next_step(&mut rng), Step::Compute(_)));
        assert_eq!(p.next_step(&mut rng), Step::Block { token: 9 });
        assert!(matches!(p.next_step(&mut rng), Step::Sleep(_)));
        assert_eq!(p.next_step(&mut rng), Step::Exit);
    }
}
