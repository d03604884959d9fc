//! Secondary-tenant workloads.
//!
//! The paper's evaluation uses purpose-built antagonists:
//!
//! - [`CpuBully`] (§5.3) — a multi-threaded integer-summing program sized to
//!   soak every cycle the system permits ("mid" = 24 threads, "high" = 48).
//! - [`DiskBully`] (§5.3) — a DiskSPD-style mixed workload: 33 % reads /
//!   67 % writes, sequential, synchronous, aimed at the shared HDD stripe.
//! - [`hdfs`] (§5.3) — DataNode replication and client traffic plus its
//!   small CPU footprint ("the HDFS client takes up to 5 % of total CPU").
//! - [`MlTrainer`] (§6.2) — the machine-learning training computation from
//!   the 650-machine production experiment.
//!
//! CPU-side behaviour plugs into `simcpu` as [`simcpu::ThreadProgram`]s;
//! I/O-side behaviour is expressed as operation generators the machine
//! driver submits to `simdisk`.
//!
//! Beyond the paper's antagonists, [`service_graph`] adds a *primary*
//! workload class: microservice chains expressed as DAGs of compute
//! stages connected by `simnet` hops, for scenarios the paper's
//! single-service setup cannot express.

pub mod cpu_bully;
pub mod disk_bully;
pub mod hdfs;
pub mod ml_trainer;
pub mod resilience;
pub mod service_graph;

pub use cpu_bully::{BullyIntensity, CpuBully};
pub use disk_bully::{DiskBully, DiskOp};
pub use hdfs::{HdfsNode, HdfsTrafficKind};
pub use ml_trainer::MlTrainer;
pub use resilience::{
    AdmissionPolicy, BreakerPolicy, BreakerState, CircuitBreaker, HedgePolicy, ResiliencePolicy,
    RetryPolicy,
};
pub use service_graph::{GraphEdge, GraphEngine, GraphOutcome, GraphStage, GraphWorkload};
