//! The CPU bully (§5.3).
//!
//! "A multi-threaded program with each worker thread computing the sum of
//! several integer values. The number of worker threads is configurable and
//! we vary it up to the total number of logical cores ... The bully
//! maximizes CPU utilization since there are very few memory or external
//! storage accesses."
//!
//! Progress is the secondary job's CPU time
//! ([`Machine::job_cpu_time`], `secondary_cpu` in box reports), which is how
//! the paper reports "bully absolute progress" (Fig 8c) and the §6.1.4
//! percentages.

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
    /// Compute segment length of each worker's loop.
    pub chunk: SimDuration,
}

/// The bully's compute segment length.
///
/// A real bully is a tight loop that never yields; the simulated program
/// therefore computes in segments much longer than the scheduler quantum,
/// so a bully thread loses its core only at quantum expiries (or resched
/// IPIs) — exactly like the integer-summing loop of §5.3.
pub const BULLY_PROGRESS_CHUNK: SimDuration = SimDuration::from_millis(250);

impl CpuBully {
    /// A bully with the given intensity on a `cores`-core machine.
    pub fn new(intensity: BullyIntensity, cores: u32) -> Self {
        CpuBully {
            threads: intensity.threads(cores),
            chunk: BULLY_PROGRESS_CHUNK,
        }
    }

    /// Spawns the bully's threads into `job` on `machine` and returns their
    /// handles (for killing the bully).
    pub fn spawn(&self, machine: &mut Machine, job: JobId, now: SimTime) -> Vec<ThreadId> {
        (0..self.threads)
            .map(|i| {
                machine.spawn_program(
                    now,
                    job,
                    Program::compute_loop(self.chunk),
                    CPU_BULLY_TAG_BASE + i as u64,
                )
            })
            .collect()
    }
}

/// Thread tags `CPU_BULLY_TAG_BASE..` identify bully threads in machine
/// outputs.
pub const CPU_BULLY_TAG_BASE: u64 = 1 << 40;

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::CoreMask;
    use simcpu::MachineConfig;
    use telemetry::TenantClass;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

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
        bully.spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_millis(100));
        assert_eq!(m.idle_core_mask().count(), 0);
        // 4 cores * 100ms = 400ms of CPU (minus in-flight chunks and OS
        // costs).
        let cpu = m.job_cpu_time(job);
        assert!((ms(390)..=ms(400)).contains(&cpu), "progress {cpu:?}");
        let b = m.breakdown();
        assert!(b.fraction(TenantClass::Secondary) > 0.95);
    }

    #[test]
    fn restricted_bully_makes_less_progress() {
        let mut m = Machine::new(MachineConfig::small(4));
        let job = m.create_job(TenantClass::Secondary, CoreMask::range(0, 1));
        CpuBully {
            threads: 4,
            chunk: SimDuration::from_millis(1),
        }
        .spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_millis(100));
        let cpu = m.job_cpu_time(job);
        assert!(
            (ms(95)..=ms(100)).contains(&cpu),
            "1 core => ~100ms of CPU, got {cpu:?}"
        );
    }

    #[test]
    fn killed_bully_stops() {
        let mut m = Machine::new(MachineConfig::small(2));
        let job = m.create_job(TenantClass::Secondary, CoreMask::all(2));
        let tids = CpuBully {
            threads: 2,
            chunk: SimDuration::from_millis(1),
        }
        .spawn(&mut m, job, SimTime::ZERO);
        m.advance_to(SimTime::from_millis(10));
        for tid in tids {
            m.kill_thread(SimTime::from_millis(10), tid);
        }
        let at_kill = m.job_cpu_time(job);
        assert!(at_kill > SimDuration::ZERO);
        m.advance_to(SimTime::from_millis(50));
        assert_eq!(m.job_cpu_time(job), at_kill);
        assert_eq!(m.idle_core_mask().count(), 2);
    }
}
