//! # PerfIso: performance isolation for latency-sensitive services
//!
//! A reproduction of the isolation framework from *"PerfIso: Performance
//! Isolation for Commercial Latency-Sensitive Services"* (Iorgulescu et al.,
//! USENIX ATC 2018), deployed on Microsoft Bing for years across 90 000+
//! servers.
//!
//! PerfIso colocates best-effort batch jobs (*secondary tenants*) with a
//! latency-sensitive service (*primary tenant*) without degrading the
//! primary's tail latency. The primary is a black box: no SLO numbers, no
//! instrumentation, no scheduler changes. Its mechanisms:
//!
//! - **CPU blind isolation** ([`blind`]) — poll the OS idle-core mask in a
//!   tight loop and size the secondary's affinity mask so the primary always
//!   keeps a buffer of idle cores to absorb thread bursts.
//! - **DWRR I/O throttling** ([`dwrr`]) — deficit-weighted round-robin
//!   priority adjustment from per-drive IOPS and per-process demand.
//! - **Memory watchdog** ([`memory`]) — cap the secondary's footprint and
//!   kill it when machine memory runs very low.
//! - **Operations** ([`controller`], [`recovery`]) — kill switch, runtime
//!   commands, crash recovery from persisted state.
//!
//! The paper's egress throttling (secondary traffic marked low-priority and
//! rate-capped) is not modelled: no simulated secondary sends on the fabric.
//!
//! The controller talks to the OS through [`system::SystemInterface`], so
//! the same logic drives the discrete-event simulator (crate `scenarios`)
//! and the unit tests' [`system::MockSystem`].
//!
//! # Quickstart
//!
//! ```
//! use perfiso::{config::PerfIsoConfig, controller::PerfIso, system::MockSystem};
//! use simcore::{CoreMask, SimTime};
//!
//! let mut sys = MockSystem::new(48);
//! // The machine is idle: the secondary may take everything but the buffer.
//! sys.idle = CoreMask::all(48);
//! let mut ctl = PerfIso::new(PerfIsoConfig::default());
//! ctl.install(&mut sys);
//! ctl.poll_cpu(SimTime::ZERO, &mut sys);
//! assert_eq!(sys.secondary_affinity.count(), 48 - 8);
//! ```

#![forbid(unsafe_code)]

pub mod blind;
pub mod config;
pub mod controller;
pub mod dwrr;
pub mod memory;
pub mod recovery;
pub mod system;

pub use blind::BlindIsolation;
pub use config::{CpuPolicy, PerfIsoConfig, TenantLimitConfig};
pub use controller::{Command, PerfIso};
pub use dwrr::{DwrrConfig, DwrrThrottler, TenantIoConfig};
pub use memory::{MemoryAction, MemoryWatchdog};
pub use system::{IoLimit, IoTenant, IoTenantStats, SystemInterface};
