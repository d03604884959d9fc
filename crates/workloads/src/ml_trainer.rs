//! The machine-learning training batch job (§6.2, Fig 10).
//!
//! The 650-machine production experiment colocates IndexServe with "a large
//! batch job executing the training phase of a machine-learning
//! computation". Modelled as data-parallel minibatch training: `workers`
//! threads each compute a minibatch, then synchronise at a barrier every
//! `steps_per_sync` steps (parameter exchange, modelled as a short sleep).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simcore::{SimDuration, SimRng, SimTime};
use simcpu::{JobId, Machine, Program, Step, ThreadId, ThreadProgram};

/// Thread tags `ML_TAG_BASE..` identify trainer threads.
pub const ML_TAG_BASE: u64 = 1 << 43;

/// The trainer configuration.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MlTrainer {
    /// Parallel worker threads.
    pub workers: u32,
    /// CPU time per minibatch.
    pub minibatch: SimDuration,
    /// Steps between synchronisation pauses.
    pub steps_per_sync: u32,
    /// Pause duration at each sync (parameter exchange).
    pub sync_pause: SimDuration,
}

impl Default for MlTrainer {
    fn default() -> Self {
        MlTrainer {
            workers: 40,
            minibatch: SimDuration::from_millis(2),
            steps_per_sync: 50,
            sync_pause: SimDuration::from_millis(3),
        }
    }
}

impl MlTrainer {
    /// Spawns the trainer into `job`; returns the progress counter handle.
    pub fn spawn(&self, machine: &mut Machine, job: JobId, now: SimTime) -> MlTrainerHandle {
        let progress = Arc::new(AtomicU64::new(0));
        let mut tids = Vec::with_capacity(self.workers as usize);
        for i in 0..self.workers {
            let program = TrainerWorker {
                minibatch: self.minibatch,
                steps_per_sync: self.steps_per_sync,
                sync_pause: self.sync_pause,
                step: 0,
                in_compute: false,
                progress: progress.clone(),
            };
            // The trainer is stateful (barrier counting), so it rides the
            // `Dyn` escape hatch — one box per worker at setup, not per step.
            tids.push(machine.spawn_program(
                now,
                job,
                Program::from(program),
                ML_TAG_BASE + i as u64,
            ));
        }
        MlTrainerHandle { progress, tids }
    }
}

/// A running trainer.
#[derive(Clone, Debug)]
pub struct MlTrainerHandle {
    progress: Arc<AtomicU64>,
    /// Worker thread handles.
    pub tids: Vec<ThreadId>,
}

impl MlTrainerHandle {
    /// Completed minibatches across all workers.
    pub fn minibatches(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct TrainerWorker {
    minibatch: SimDuration,
    steps_per_sync: u32,
    sync_pause: SimDuration,
    step: u32,
    in_compute: bool,
    progress: Arc<AtomicU64>,
}

impl ThreadProgram for TrainerWorker {
    fn next_step(&mut self, _rng: &mut SimRng) -> Step {
        if self.in_compute {
            // A minibatch just finished.
            self.progress.fetch_add(1, Ordering::Relaxed);
            self.step += 1;
            if self.step.is_multiple_of(self.steps_per_sync) {
                self.in_compute = false;
                return Step::Sleep(self.sync_pause);
            }
        }
        self.in_compute = true;
        Step::Compute(self.minibatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::CoreMask;
    use simcpu::MachineConfig;
    use telemetry::TenantClass;

    #[test]
    fn trainer_makes_progress() {
        let mut m = Machine::new(MachineConfig::small(8));
        let job = m.create_job(TenantClass::Secondary, CoreMask::all(8));
        let h = MlTrainer {
            workers: 8,
            ..Default::default()
        }
        .spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_secs(1));
        // 8 workers * ~1s / 2ms ≈ 4000 minus sync pauses (~3%).
        let p = h.minibatches();
        assert!((3_500..=4_000).contains(&p), "minibatches {p}");
    }

    #[test]
    fn sync_pauses_leave_idle_gaps() {
        let mut m = Machine::new(MachineConfig::small(2));
        let job = m.create_job(TenantClass::Secondary, CoreMask::all(2));
        let _h = MlTrainer {
            workers: 2,
            minibatch: SimDuration::from_millis(1),
            steps_per_sync: 2,
            sync_pause: SimDuration::from_millis(2),
        }
        .spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_secs(1));
        let b = m.breakdown();
        // Duty cycle 2ms compute : 2ms pause = 50%.
        let frac = b.fraction(TenantClass::Secondary);
        assert!((frac - 0.5).abs() < 0.05, "trainer duty {frac}");
    }

    #[test]
    fn restricting_affinity_slows_training() {
        let mut m1 = Machine::new(MachineConfig::small(8));
        let j1 = m1.create_job(TenantClass::Secondary, CoreMask::all(8));
        let h1 = MlTrainer {
            workers: 8,
            ..Default::default()
        }
        .spawn(&mut m1, j1, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::small(8));
        let j2 = m2.create_job(TenantClass::Secondary, CoreMask::range(0, 2));
        let h2 = MlTrainer {
            workers: 8,
            ..Default::default()
        }
        .spawn(&mut m2, j2, SimTime::ZERO);
        m1.advance_to(SimTime::from_secs(1));
        m2.advance_to(SimTime::from_secs(1));
        assert!(h1.minibatches() > h2.minibatches() * 3);
    }
}
