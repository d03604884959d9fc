//! Multicore machine simulator.
//!
//! This crate models the only part of the OS that PerfIso's *CPU blind
//! isolation* interacts with: a multicore, work-conserving, quantum-based
//! thread scheduler with
//!
//! - per-job **affinity masks** (the Windows Job Object / Linux cpuset
//!   mechanism PerfIso uses to restrict secondary tenants),
//! - per-job **CPU-rate quotas** (the Job Object CPU rate control / cgroups
//!   `cpu.cfs_quota_us` mechanism evaluated as a failing alternative in
//!   §6.1.4 of the paper),
//! - an **idle-core bitmask** query (the low-latency system call that blind
//!   isolation polls, §3.1.1), and
//! - full CPU-time accounting into Primary/Secondary/OS/Idle buckets.
//!
//! Both tenants run at the same priority: the paper treats the primary as a
//! black box and never touches scheduling policy, so a woken thread that
//! finds no idle core in its affinity mask must *wait for a quantum to end*.
//! That waiting is the entire phenomenon the paper is about.
//!
//! The simulator is deterministic: all randomness comes from an explicit
//! [`simcore::SimRng`], and simultaneous events are processed in a fixed
//! order.
//!
//! # Examples
//!
//! ```
//! use simcore::{SimDuration, SimTime};
//! use simcpu::{CoreMask, Machine, MachineConfig, Program};
//! use telemetry::TenantClass;
//!
//! let mut m = Machine::new(MachineConfig::small(4));
//! let job = m.create_job(TenantClass::Primary, CoreMask::all(4));
//! m.spawn_program(SimTime::ZERO, job, Program::compute_once(SimDuration::from_millis(1)), 7);
//! m.advance_to(SimTime::from_millis(2));
//! let mut out = Vec::new();
//! m.drain_outputs_into(&mut out);
//! assert!(out.iter().any(|o| matches!(o, simcpu::MachineOutput::ThreadExited { tag: 7, .. })));
//! ```

pub mod arena;
pub mod config;
pub mod machine;
pub mod program;
pub mod programs;
pub mod quota;

pub use arena::{ArenaStats, Program, StepArena, StepRange};
pub use config::MachineConfig;
pub use machine::{Machine, MachineOutput, ScriptWriter};
pub use program::{Step, ThreadProgram};
pub use quota::CpuRateQuota;
pub use simcore::ids::{CoreId, JobId, ThreadId};
pub use simcore::mask::CoreMask;
