//! The disk bully (§5.3): a DiskSPD-style I/O antagonist.
//!
//! "We setup DiskSPD to create an I/O bound workload on the HDD strip of
//! each machine. We perform a mixed read-write workload, with 33 % reads
//! and 67 % writes, with sequential accesses and synchronous I/O
//! operations."
//!
//! The bully runs `depth` synchronous worker threads; each issues one
//! operation, blocks until completion, then issues the next. The CPU side
//! is a [`simcpu::ThreadProgram`] alternating a tiny prep burst with a
//! block; the machine driver resolves each block into a `simdisk` request
//! drawn from [`DiskBully::sample_op`].

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimRng};
use simcpu::{Step, ThreadProgram};
use simdisk::{AccessPattern, IoKind};

/// One sampled disk operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskOp {
    /// Read or write.
    pub kind: IoKind,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Access pattern.
    pub access: AccessPattern,
}

/// The disk bully configuration and op sampler.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiskBully {
    /// Fraction of reads (the paper uses 0.33).
    pub read_fraction: f64,
    /// Per-operation transfer size in bytes.
    pub chunk_bytes: u64,
    /// Number of synchronous worker threads (queue depth).
    pub depth: u32,
}

impl Default for DiskBully {
    fn default() -> Self {
        DiskBully {
            read_fraction: 0.33,
            chunk_bytes: 256 << 10,
            depth: 4,
        }
    }
}

impl DiskBully {
    /// Samples the next operation (33/67 read/write split, sequential).
    pub fn sample_op(&self, rng: &mut SimRng) -> DiskOp {
        let kind = if rng.bernoulli(self.read_fraction) {
            IoKind::Read
        } else {
            IoKind::Write
        };
        DiskOp {
            kind,
            bytes: self.chunk_bytes,
            access: AccessPattern::Sequential,
        }
    }

    /// Builds the worker-thread program for worker `idx`.
    pub fn worker_program(&self, idx: u32) -> DiskBullyWorker {
        DiskBullyWorker {
            token_base: (idx as u64) << 32,
            count: 0,
            compute_next: true,
        }
    }
}

/// Thread tags `DISK_BULLY_TAG_BASE..` identify disk-bully threads.
pub const DISK_BULLY_TAG_BASE: u64 = 1 << 41;

/// A synchronous disk-bully worker: prep burst, then block on I/O, forever.
#[derive(Clone, Debug)]
pub struct DiskBullyWorker {
    token_base: u64,
    count: u64,
    compute_next: bool,
}

impl ThreadProgram for DiskBullyWorker {
    fn next_step(&mut self, _rng: &mut SimRng) -> Step {
        if self.compute_next {
            self.compute_next = false;
            Step::Compute(SimDuration::from_micros(20))
        } else {
            self.compute_next = true;
            self.count += 1;
            Step::Block {
                token: self.token_base + self.count,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_configuration() {
        let b = DiskBully::default();
        let mut rng = SimRng::seed_from_u64(5);
        let n = 100_000;
        let reads = (0..n)
            .filter(|_| b.sample_op(&mut rng).kind == IoKind::Read)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.33).abs() < 0.01, "read fraction {frac}");
    }

    #[test]
    fn ops_are_sequential_and_sized() {
        let b = DiskBully::default();
        let mut rng = SimRng::seed_from_u64(6);
        let op = b.sample_op(&mut rng);
        assert_eq!(op.access, AccessPattern::Sequential);
        assert_eq!(op.bytes, 256 << 10);
    }

    #[test]
    fn worker_alternates_compute_and_block() {
        let mut w = DiskBully::default().worker_program(0);
        let mut rng = SimRng::seed_from_u64(7);
        assert!(matches!(w.next_step(&mut rng), Step::Compute(_)));
        assert!(matches!(w.next_step(&mut rng), Step::Block { .. }));
        assert!(matches!(w.next_step(&mut rng), Step::Compute(_)));
        assert!(matches!(w.next_step(&mut rng), Step::Block { .. }));
    }

    #[test]
    fn workers_have_distinct_tokens() {
        let mut rng = SimRng::seed_from_u64(8);
        let mut w0 = DiskBully::default().worker_program(0);
        let mut w1 = DiskBully::default().worker_program(1);
        w0.next_step(&mut rng);
        w1.next_step(&mut rng);
        let t0 = match w0.next_step(&mut rng) {
            Step::Block { token } => token,
            _ => panic!(),
        };
        let t1 = match w1.next_step(&mut rng) {
            Step::Block { token } => token,
            _ => panic!(),
        };
        assert_ne!(t0, t1);
    }
}
