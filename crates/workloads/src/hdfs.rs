//! HDFS DataNode and client traffic models (§5.3).
//!
//! "Each IndexServe machine also runs an HDFS client because many batch
//! jobs ... rely on HDFS for storage access. ... data replication is
//! limited to 20 MB/s, and HDFS clients are limited to 60 MB/s. All I/O
//! operations done by HDFS are unbuffered." The HDFS client also "takes up
//! to 5 % of total CPU time" (§6.2).
//!
//! The model offers Poisson-gap chunked transfers on the shared HDD volume
//! (PerfIso's token buckets then cap them) plus a light duty-cycle CPU
//! program for the daemon overhead.

use serde::{Deserialize, Serialize};
use simcore::dist::{Exp, Sample};
use simcore::{SimDuration, SimRng, SimTime};
use simcpu::{Step, ThreadProgram};
use simdisk::{AccessPattern, IoKind};

use crate::disk_bully::DiskOp;

/// The two HDFS traffic streams the paper throttles differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HdfsTrafficKind {
    /// Block replication between DataNodes (capped at 20 MB/s).
    Replication,
    /// Client reads/writes for batch jobs (capped at 60 MB/s).
    Client,
}

/// An HDFS traffic source: offered load before PerfIso's caps.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HdfsNode {
    /// Which stream this node generates.
    pub kind: HdfsTrafficKind,
    /// Offered (uncapped) bandwidth in bytes/second.
    pub offered_bytes_per_sec: u64,
    /// Chunk size per operation (HDFS packets are large).
    pub chunk_bytes: u64,
}

impl HdfsNode {
    /// A replication stream offering 40 MB/s (the cap will halve it).
    pub fn replication() -> Self {
        HdfsNode {
            kind: HdfsTrafficKind::Replication,
            offered_bytes_per_sec: 40 << 20,
            chunk_bytes: 1 << 20,
        }
    }

    /// A client stream offering 100 MB/s (capped to 60).
    pub fn client() -> Self {
        HdfsNode {
            kind: HdfsTrafficKind::Client,
            offered_bytes_per_sec: 100 << 20,
            chunk_bytes: 1 << 20,
        }
    }

    /// Mean gap between chunk submissions at the offered rate.
    pub fn mean_gap(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.chunk_bytes as f64 / self.offered_bytes_per_sec as f64)
    }

    /// Samples the next submission `(time, op)` after `now`.
    pub fn next_submission(&self, now: SimTime, rng: &mut SimRng) -> (SimTime, DiskOp) {
        let gap = Exp::from_mean(self.mean_gap().as_secs_f64()).sample(rng);
        let kind = match self.kind {
            // Replication is write-heavy; clients mostly read inputs.
            HdfsTrafficKind::Replication => {
                if rng.bernoulli(0.9) {
                    IoKind::Write
                } else {
                    IoKind::Read
                }
            }
            HdfsTrafficKind::Client => {
                if rng.bernoulli(0.7) {
                    IoKind::Read
                } else {
                    IoKind::Write
                }
            }
        };
        (
            now + SimDuration::from_secs_f64(gap),
            DiskOp {
                kind,
                bytes: self.chunk_bytes,
                access: AccessPattern::Sequential,
            },
        )
    }
}

/// Thread tags `HDFS_TAG_BASE..` identify HDFS daemon threads.
pub const HDFS_TAG_BASE: u64 = 1 << 42;

/// The HDFS daemon's CPU footprint: a duty-cycle program that consumes a
/// configurable fraction of one core (the paper observed up to 5 % of the
/// whole machine across daemons).
#[derive(Clone, Debug)]
pub struct HdfsCpuProgram {
    busy: SimDuration,
    idle: SimDuration,
    toggle: bool,
}

impl HdfsCpuProgram {
    /// A program consuming `duty` fraction of one core in 50 ms cycles.
    ///
    /// # Panics
    ///
    /// Panics unless `duty` is in `(0, 1)`.
    pub fn new(duty: f64) -> Self {
        assert!(duty > 0.0 && duty < 1.0, "duty must be in (0,1): {duty}");
        let cycle = SimDuration::from_millis(50);
        HdfsCpuProgram {
            busy: cycle.mul_f64(duty),
            idle: cycle.mul_f64(1.0 - duty),
            toggle: false,
        }
    }
}

impl ThreadProgram for HdfsCpuProgram {
    fn next_step(&mut self, _rng: &mut SimRng) -> Step {
        self.toggle = !self.toggle;
        if self.toggle {
            Step::Compute(self.busy)
        } else {
            Step::Sleep(self.idle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_rate_matches_submissions() {
        let node = HdfsNode::replication();
        let mut rng = SimRng::seed_from_u64(11);
        let mut t = SimTime::ZERO;
        let mut bytes = 0u64;
        while t < SimTime::from_secs(10) {
            let (next, op) = node.next_submission(t, &mut rng);
            t = next;
            bytes += op.bytes;
        }
        let rate = bytes as f64 / 10.0 / (1 << 20) as f64;
        assert!((rate - 40.0).abs() < 4.0, "offered {rate} MB/s");
    }

    #[test]
    fn replication_is_write_heavy() {
        let node = HdfsNode::replication();
        let mut rng = SimRng::seed_from_u64(12);
        let mut writes = 0;
        for _ in 0..10_000 {
            let (_, op) = node.next_submission(SimTime::ZERO, &mut rng);
            if op.kind == IoKind::Write {
                writes += 1;
            }
        }
        assert!(writes > 8_500, "writes {writes}");
    }

    #[test]
    fn cpu_program_duty_cycle() {
        use simcore::CoreMask;
        use simcpu::{Machine, MachineConfig};
        use telemetry::TenantClass;

        let mut m = Machine::new(MachineConfig::small(2));
        let job = m.create_job(TenantClass::Secondary, CoreMask::all(2));
        m.spawn_program(
            SimTime::ZERO,
            job,
            simcpu::Program::from(HdfsCpuProgram::new(0.1)),
            HDFS_TAG_BASE,
        );
        m.advance_to(SimTime::from_secs(2));
        let b = m.breakdown();
        let frac = b.fraction(TenantClass::Secondary);
        // 10% of one core on a 2-core machine = 5% of capacity.
        assert!((frac - 0.05).abs() < 0.01, "duty fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn bad_duty_rejected() {
        let _ = HdfsCpuProgram::new(1.5);
    }
}
