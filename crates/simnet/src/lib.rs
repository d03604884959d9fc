//! Network simulator.
//!
//! Models what the paper's cluster experiments need from the fabric:
//! point-to-point messages with serialization (10 GbE NICs, each sending
//! from one FIFO queue) and datacenter-scale propagation latency with
//! jitter.
//!
//! PerfIso's egress throttling (§3.2), which marks secondary traffic
//! low-priority and rate-caps it at the sender NIC, is not modelled: no
//! simulated secondary sends on the fabric.

pub mod sim;

pub use sim::{Delivery, NetConfig, NetSim, NodeId};
