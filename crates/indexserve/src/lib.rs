//! IndexServe: the latency-sensitive primary-tenant model.
//!
//! Models the Bing web-index serving component the paper evaluates (§2.1,
//! §5.3): a highly multi-threaded, bursty query processor with
//! millisecond-scale latency and an SLO of *p99 within 1 ms of standalone*.
//!
//! # Query anatomy
//!
//! Each query runs a four-stage pipeline on fresh short-lived threads:
//!
//! 1. **Parse** — one short CPU burst.
//! 2. **Fan-out** — 8–15 matcher workers woken *within microseconds* (the
//!    burst the buffer cores exist to absorb); each worker alternates CPU
//!    bursts with SSD index reads on cache misses.
//! 3. **Rank** — CPU bursts interleaved with index reads.
//! 4. **Aggregate** — a final CPU burst, then the response is sent.
//!
//! Under load pressure IndexServe *compensates* by raising per-query
//! parallelism (the paper observes its CPU utilization inflating from 20 %
//! to ~40 % under a mid-size bully; Bing's target-driven parallelism \[15\]
//! behaves this way), which is also the positive-feedback loop behind the
//! 29× tail collapse with an unrestricted bully.
//!
//! Admission control bounds concurrent queries; arrivals beyond the bound
//! queue (open loop) and are dropped when their deadline passes — matching
//! the paper's reported timeout-drop percentages.
//!
//! [`boxsim::BoxSim`] drives one machine end to end: CPU simulator, SSD and
//! HDD volumes, workload models, and the PerfIso controller.

pub mod boxsim;
pub mod cache;
pub mod chaos;
pub mod port;
pub mod service;
pub mod tags;

pub use boxsim::{
    BoxConfig, BoxEvent, BoxReport, BoxSim, HostedSpec, SecondaryKind, ServicePlan, ServiceReport,
    IO_TENANT_SERVICES,
};
pub use cache::CacheModel;
pub use chaos::{FaultPlan, FaultRecord, PlannedFault, PlannedFaultKind};
pub use port::{BlockedAction, GraphPort, ServicePort};
pub use service::{IndexServe, ServiceConfig};
