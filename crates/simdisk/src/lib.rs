//! Storage simulator.
//!
//! Models the paper's storage layout (§5.2–5.3): a striped SSD volume that
//! the primary uses exclusively for index reads, and a striped HDD volume
//! shared between primary logging and the secondary's batch I/O. Provides
//! the control surface PerfIso's I/O throttling needs (§4.1):
//!
//! - per-owner **I/O priorities** (adjusted by the DWRR controller),
//! - per-owner **token-bucket rate limits** (bandwidth and IOPS caps, e.g.
//!   HDFS replication at 20 MB/s),
//! - per-device **completed-IOPS statistics** over a moving window — the
//!   paper's monitoring is per-device, *not* per-process, which is exactly
//!   why DWRR needs the demand estimate.
//!
//! Requests are submitted with an opaque token; completions echo it so the
//! embedding simulation can wake the blocked thread.

pub mod bucket;
pub mod device;
pub mod request;
pub mod sim;
pub mod window;

pub use bucket::TokenBucket;
pub use device::{DeviceKind, DeviceSpec};
pub use request::{AccessPattern, IoCompletion, IoKind, IoPriority, OwnerId, VolumeId};
pub use sim::{DiskSim, OwnerIoStats, RateLimit, VolumeSpec};
