//! The CPU bully (§5.3).
//!
//! "A multi-threaded program with each worker thread computing the sum of
//! several integer values. The number of worker threads is configurable and
//! we vary it up to the total number of logical cores ... The bully
//! maximizes CPU utilization since there are very few memory or external
//! storage accesses."
//!
//! Progress is counted in completed compute chunks, which is how the paper
//! reports "bully absolute progress" (Fig 8c) and the §6.1.4 percentages.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simcore::{SimDuration, SimTime};
use simcpu::{JobId, Machine, Program, ThreadId};

/// The paper's two bully sizings on a 48-logical-core box.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BullyIntensity {
    /// 24 worker threads ("mid").
    Mid,
    /// 48 worker threads ("high").
    High,
    /// A custom thread count.
    Custom(u32),
}

impl BullyIntensity {
    /// The thread count on a machine with `cores` logical cores.
    pub fn threads(self, cores: u32) -> u32 {
        match self {
            BullyIntensity::Mid => cores / 2,
            BullyIntensity::High => cores,
            BullyIntensity::Custom(n) => n,
        }
    }
}

/// Configuration for the CPU bully.
#[derive(Clone, Debug)]
pub struct CpuBully {
    /// Worker-thread count.
    pub threads: u32,
    /// Compute chunk per progress increment.
    pub chunk: SimDuration,
}

/// The bully's progress-accounting chunk.
///
/// A real bully is a tight loop that never yields; the simulated program
/// therefore computes in segments much longer than the scheduler quantum,
/// so a bully thread loses its core only at quantum expiries (or resched
/// IPIs) — exactly like the integer-summing loop of §5.3. The chunk size
/// only sets the granularity of the progress counter; prefer
/// [`Machine::job_cpu_time`](simcpu::Machine::job_cpu_time) (exposed as
/// `secondary_cpu` in box reports) for progress comparisons.
pub const BULLY_PROGRESS_CHUNK: SimDuration = SimDuration::from_millis(250);

impl CpuBully {
    /// A bully with the given intensity on a `cores`-core machine.
    pub fn new(intensity: BullyIntensity, cores: u32) -> Self {
        CpuBully {
            threads: intensity.threads(cores),
            chunk: BULLY_PROGRESS_CHUNK,
        }
    }

    /// Spawns the bully's threads into `job` on `machine`.
    ///
    /// The returned handle exposes the shared progress counter.
    pub fn spawn(&self, machine: &mut Machine, job: JobId, now: SimTime) -> CpuBullyHandle {
        let progress = Arc::new(AtomicU64::new(0));
        let mut tids = Vec::with_capacity(self.threads as usize);
        for i in 0..self.threads {
            let tid = machine.spawn_program(
                now,
                job,
                Program::compute_loop(self.chunk, progress.clone()),
                CPU_BULLY_TAG_BASE + i as u64,
            );
            tids.push(tid);
        }
        CpuBullyHandle { progress, tids }
    }
}

/// Thread tags `CPU_BULLY_TAG_BASE..` identify bully threads in machine
/// outputs.
pub const CPU_BULLY_TAG_BASE: u64 = 1 << 40;

/// A running CPU bully.
#[derive(Clone, Debug)]
pub struct CpuBullyHandle {
    progress: Arc<AtomicU64>,
    /// Spawned thread handles (for killing the bully).
    pub tids: Vec<ThreadId>,
}

impl CpuBullyHandle {
    /// Completed compute chunks ("absolute progress", Fig 8c).
    ///
    /// The loop program increments at each chunk *start*; the first start
    /// per thread is subtracted so this counts completions.
    pub fn progress_chunks(&self) -> u64 {
        self.progress
            .load(Ordering::Relaxed)
            .saturating_sub(self.tids.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::CoreMask;
    use simcpu::MachineConfig;
    use telemetry::TenantClass;

    #[test]
    fn intensity_scales_with_cores() {
        assert_eq!(BullyIntensity::Mid.threads(48), 24);
        assert_eq!(BullyIntensity::High.threads(48), 48);
        assert_eq!(BullyIntensity::Custom(7).threads(48), 7);
    }

    #[test]
    fn bully_saturates_unrestricted_machine() {
        let mut m = Machine::new(MachineConfig::small(4));
        let job = m.create_job(TenantClass::Secondary, CoreMask::all(4));
        let bully = CpuBully {
            threads: 4,
            chunk: SimDuration::from_millis(1),
        };
        let h = bully.spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_millis(100));
        assert_eq!(m.idle_core_mask().count(), 0);
        // 4 cores * 100ms = 400 chunks of 1ms (minus in-flight).
        let p = h.progress_chunks();
        assert!((390..=400).contains(&p), "progress {p}");
        let b = m.breakdown();
        assert!(b.fraction(TenantClass::Secondary) > 0.95);
    }

    #[test]
    fn restricted_bully_makes_less_progress() {
        let mut m = Machine::new(MachineConfig::small(4));
        let job = m.create_job(TenantClass::Secondary, CoreMask::range(0, 1));
        let h = CpuBully {
            threads: 4,
            chunk: SimDuration::from_millis(1),
        }
        .spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_millis(100));
        let p = h.progress_chunks();
        assert!((95..=100).contains(&p), "1 core => ~100 chunks, got {p}");
    }

    #[test]
    fn killed_bully_stops() {
        let mut m = Machine::new(MachineConfig::small(2));
        let job = m.create_job(TenantClass::Secondary, CoreMask::all(2));
        let h = CpuBully {
            threads: 2,
            chunk: SimDuration::from_millis(1),
        }
        .spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_millis(10));
        for &tid in &h.tids {
            m.kill_thread(SimTime::from_millis(10), tid);
        }
        let at_kill = h.progress_chunks();
        m.advance_to(SimTime::from_millis(50));
        assert_eq!(h.progress_chunks(), at_kill);
        assert_eq!(m.idle_core_mask().count(), 2);
    }
}
