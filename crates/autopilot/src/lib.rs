//! Autopilot-style cluster management substrate.
//!
//! The paper deploys PerfIso under Autopilot (§4.2): Autopilot distributes
//! cluster-wide configuration files, tracks which services run with which
//! process ids (sparing PerfIso from PID discovery), and restarts crashed
//! services — PerfIso "is fully recoverable ... in the event of a crash,
//! Autopilot will bring it up again, and PerfIso will resume its function by
//! loading its state from disk."
//!
//! This crate reproduces the two parts a simulated run drives, in memory:
//!
//! - [`ConfigStore`] — versioned cluster-wide configuration documents.
//! - [`ServiceManager`] — crash reporting and restart with bounded backoff.
//!
//! PID tracking is not modelled: the simulated controller addresses the
//! secondary through its machine job, not through process ids.

pub mod config_store;
pub mod manager;

pub use config_store::ConfigStore;
pub use manager::{RestartDecision, RestartPolicy, ServiceManager};
