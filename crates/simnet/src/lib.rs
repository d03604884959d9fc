//! Network simulator.
//!
//! Models what the paper's cluster experiments need from the fabric:
//!
//! - point-to-point messages with serialization (10 GbE NICs) and
//!   datacenter-scale propagation latency with jitter, and
//! - PerfIso's **egress throttling** (§3.2): secondary traffic is marked
//!   low-priority and rate-capped at the sender NIC so that the primary's
//!   query fan-out and responses never queue behind batch replication.
//!
//! The shaper is strict-priority: a high-priority message never waits behind
//! a low-priority one that has not started serializing yet.

pub mod shaper;
pub mod sim;

pub use shaper::{EgressShaper, TrafficClass};
pub use sim::{Delivery, NetConfig, NetSim, NodeId};
