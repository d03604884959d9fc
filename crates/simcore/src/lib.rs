//! Discrete-event simulation (DES) engine shared by every simulator crate in
//! the PerfIso reproduction.
//!
//! The crate deliberately stays small, with serde as its only dependency:
//! it provides virtual time ([`SimTime`], [`SimDuration`]), a
//! deterministic event queue ([`queue::EventQueue`]), a seeded RNG wrapper
//! ([`rng::SimRng`]), the statistical distributions used to model
//! workloads ([`dist`]), and the dense-id request table whose memory
//! follows in-flight work ([`table::RequestTable`]).
//!
//! Higher-level simulators (CPU, disk, network, cluster) define their own
//! event payload types and drive their own loops; `simcore` only guarantees
//! deterministic ordering and reproducible randomness.
//!
//! # Examples
//!
//! ```
//! use simcore::{queue::EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(2), "second");
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_micros(1_000));
//! ```

pub mod dist;
pub mod ids;
pub mod mask;
pub mod queue;
pub mod rng;
pub mod table;
pub mod time;
pub(crate) mod wheel;

pub use ids::{CoreId, JobId, ThreadId};
pub use mask::CoreMask;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use table::RequestTable;
pub use time::{SimDuration, SimTime};
