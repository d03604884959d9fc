//! Measurement and reporting toolkit for the PerfIso reproduction.
//!
//! Everything the paper's evaluation reports flows through this crate:
//!
//! - [`LatencyRecorder`] — query-latency percentiles (p50/p95/p99), exact
//!   by default or sketch-backed via [`TelemetryMode`].
//! - [`Sketch`] — mergeable bounded-memory quantile sketch with a
//!   guaranteed relative error, for production-scale fleets.
//! - [`CpuBreakdown`] — the Primary/Secondary/OS/Idle utilization split shown
//!   in every CPU-utilization bar chart (Figs 4b–8b).
//! - [`TimeSeries`] — bucketed series for the Fig 10 production timeline.
//! - [`RunStats`] — mean/std/CI across repeated runs (the paper runs each
//!   cluster experiment 8 times).
//! - [`table::Table`] — plain-text tables for the CLI and example output.
//! - [`slo`] — the paper's SLO definition: p99 within 1 ms of standalone.

pub mod accounting;
pub mod recorder;
pub mod resilience;
pub mod runstats;
pub mod series;
pub mod sketch;
pub mod slo;
pub mod table;

pub use accounting::{CpuBreakdown, TenantClass};
pub use recorder::{LatencyRecorder, TelemetryMode};
pub use resilience::ResilienceStats;
pub use runstats::RunStats;
pub use series::TimeSeries;
pub use sketch::{Sketch, SketchSummary};
