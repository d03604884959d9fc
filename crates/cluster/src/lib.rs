//! IndexServe cluster simulation (Figs 3, 9, 10).
//!
//! Reproduces the 75-machine production setup of §5.3:
//!
//! - the index is split into **22 columns** replicated across **2 rows** —
//!   44 index-serving machines, each holding one partition;
//! - **31 separate TLA machines** accept client queries and round-robin
//!   them across the two rows;
//! - for each request the TLA picks an index machine of the chosen row to
//!   act as **MLA**; the MLA queries all 22 columns of its row (including
//!   itself), aggregates, and answers the TLA;
//! - every index machine also runs an HDFS client, and PerfIso enforces the
//!   §5.3 static disk limits (replication 20 MB/s, clients 60 MB/s).
//!
//! Latency is measured at all three layers — local IndexServe, MLA, TLA —
//! exactly like Fig 9. The [`fleet`] module scales the methodology to the
//! 650-machine production experiment of Fig 10 by per-minute steady-state
//! sampling.

#![forbid(unsafe_code)]

pub mod clustersim;
pub mod fleet;
pub mod report;
pub mod topology;

pub use clustersim::{ClusterConfig, ClusterSim};
pub use fleet::{FleetConfig, FleetReport};
pub use report::{BoxFaults, ClusterReport, LayerStats};
pub use topology::{BoxShape, Topology};
