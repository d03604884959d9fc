//! PerfIso reproduction — umbrella crate.
//!
//! This root package re-exports the workspace crates so that the
//! integration tests in `tests/` and the runnable examples in `examples/`
//! can exercise the whole stack through a single dependency. The actual
//! implementation lives in the `crates/` members:
//!
//! - [`perfiso`] — the paper's contribution: the isolation controller
//!   (CPU blind isolation, DWRR disk throttling, memory watchdog,
//!   egress shaping, kill switch, crash recovery).
//! - [`simcpu`] / [`simdisk`] / [`simnet`] — the simulated machine
//!   substrate (multicore scheduler with affinity + quotas, striped
//!   SSD/HDD volumes, two-priority egress links).
//! - [`indexserve`] — the primary-tenant model calibrated to the paper's
//!   standalone profile, plus the single-box experiment driver.
//! - [`workloads`] — secondary tenants: CPU bully, disk bully, HDFS
//!   client model, ML-trainer batch job.
//! - [`cluster`] — the 75-node TLA/MLA topology and the 650-node fleet.
//! - [`scenarios`] — the declarative scenario specs, the registry of
//!   paper figures (each with its grid as a sweep) and the `perfiso-run`
//!   CLI that runs them; tests and examples build on the same specs.

pub use autopilot;
pub use cluster;
pub use indexserve;
pub use perfiso;
pub use qtrace;
pub use scenarios;
pub use simcore;
pub use simcpu;
pub use simdisk;
pub use simnet;
pub use telemetry;
pub use workloads;
