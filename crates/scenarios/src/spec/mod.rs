//! The unified, declarative experiment API.
//!
//! Every experiment in the workspace — a paper figure and its grid, an
//! integration test, an example, or an ad-hoc sweep — is described by one
//! [`ScenarioSpec`]: a workload (offered load + measurement window), a
//! secondary tenant mix, an isolation [`Policy`], and a [`TargetSpec`]
//! selecting the single-box driver, the 75-machine cluster, or the fleet
//! sweep. Specs are fully serde-serializable, so they round-trip through
//! JSON files and the `perfiso-run` CLI.
//!
//! The pieces:
//!
//! - [`ScenarioSpec::builder`] — typed construction with validation
//!   ([`SpecError`]) at [`ScenarioBuilder::build`] time.
//! - [`registry`] — the named paper scenarios (`fig04`–`fig10`,
//!   `quickstart`, `io-throttle`, …).
//! - [`run_spec`] — executes a spec over one or more seeds, fanning the
//!   repetitions out across worker threads exactly like the fleet sweep
//!   fans out slices; the parallel report is bit-identical to the serial
//!   one because every seed is an independent simulation and the
//!   reduction runs in seed order.
//! - [`Report`] — the unified result envelope (per-seed reports plus
//!   cross-seed [`telemetry::RunStats`]), JSON-serializable via the
//!   vendored serde.
//!
//! Embedding experiments (the ops kill-switch example, fleetbench's
//! allocation profile) obtain their simulators through
//! [`ScenarioSpec::box_sim`] / [`ScenarioSpec::cluster_sim`] so that even
//! manually-driven runs share the one description of "what is on the
//! machine".
//!
//! # Examples
//!
//! ```
//! use scenarios::spec::{self, RunOptions, ScenarioSpec};
//! use scenarios::Policy;
//!
//! let spec = ScenarioSpec::builder("demo")
//!     .single_box(1_000.0)
//!     .cpu_bully(workloads::BullyIntensity::High)
//!     .policy(Policy::Blind { buffer_cores: 8 })
//!     .custom_scale(200, 400)
//!     .build()
//!     .unwrap();
//! let report = spec::run_spec(&spec, &RunOptions::serial()).unwrap();
//! assert_eq!(report.runs.len(), 1);
//! ```

mod controller;
mod fault;
mod graph;
mod registry;
mod resilience;
mod runner;

pub use controller::{
    ControllerSpec, SweepAxis, SweepCell, SweepSpec, TenantLimitSpec, MAX_SWEEP_CELLS,
};
pub use fault::{FaultEvent, FaultSpec, RestartSpec};
pub use graph::{EdgeSpec, ServiceGraphSpec, StageSpec, WorkloadSpec};
pub use registry::{named, names, registry};
pub use resilience::{AdmissionSpec, BreakerSpec, HedgeSpec, ResilienceSpec, RetrySpec};
pub use runner::{
    run_spec, run_sweep, Report, RunOptions, SeedReport, Summary, SweepCellReport, SweepReport,
    SweepRow,
};
/// A spec's latency-recording backend (`"telemetry": "Sketch"` in JSON):
/// the spec-layer name of [`telemetry::TelemetryMode`].
pub use telemetry::TelemetryMode as TelemetrySpec;

use perfiso::{CpuPolicy, PerfIsoConfig};

use cluster::fleet::FleetConfig;
use cluster::{BoxShape, ClusterConfig, ClusterSim, Topology};
use indexserve::boxsim::{RunPlan, ServicePlan};
use indexserve::tags::MAX_SERVICES;
use indexserve::{BoxConfig, BoxSim, HostedSpec, SecondaryKind, ServiceConfig};

use qtrace::{DiurnalCurve, OpenLoopClient, TraceConfig};
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use workloads::{BullyIntensity, DiskBully, MlTrainer};

use crate::Policy;

/// Paper-server core count, used by policy validation.
const PAPER_CORES: u32 = 48;

/// Paper-server physical memory in megabytes, used by roster validation.
const PAPER_MEMORY_MB: u64 = 128 * 1024;

/// The paper's Fig 10 fleet size, a fleet target's default display size.
const PAPER_FLEET_MACHINES: u32 = 650;

/// Megabytes reserved for the secondary tenants when sizing a roster.
const SECONDARY_RESERVE_MB: u64 = 2 * 1024;

/// Why a spec is not runnable.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// Scenario names must be non-empty, without whitespace.
    InvalidName(String),
    /// Offered load must be positive and finite.
    InvalidQps(f64),
    /// At least one seed repetition is required.
    ZeroSeeds,
    /// The measurement window (or a fleet slice) is degenerate or runs
    /// past the simulated clock's range.
    InvalidScale(String),
    /// The policy parameters are out of range for the paper server.
    InvalidPolicy(String),
    /// The cluster topology is degenerate.
    InvalidTopology(String),
    /// The fleet sweep parameters are degenerate.
    InvalidFleet(String),
    /// The controller-knob overrides are out of range or target the wrong
    /// policy.
    InvalidController(String),
    /// The parameter sweep is degenerate or expands to an invalid cell.
    InvalidSweep(String),
    /// `Policy::Standalone` means "primary alone": no secondary allowed.
    StandaloneWithSecondary,
    /// Fleet runs colocate the ML trainer; extra secondaries are not
    /// supported by the sweep driver.
    FleetSecondaryUnsupported,
    /// Fleet runs require an installed controller (the sweep measures
    /// colocation under isolation, not the no-isolation baseline).
    FleetNeedsController,
    /// A helper was called on the wrong target kind.
    TargetMismatch {
        /// What the helper needed.
        expected: &'static str,
        /// What the spec declared.
        found: &'static str,
    },
    /// The fault-injection timeline is degenerate or targets components
    /// the scenario does not run.
    InvalidFault(String),
    /// The primary workload declaration (service graph or multi-box
    /// roster) is malformed or incompatible with the target.
    InvalidWorkload(String),
    /// The overload-resilience policy is degenerate or incompatible with
    /// the workload.
    InvalidResilience(String),
    /// No scenario with this name in the registry.
    UnknownScenario(String),
    /// A JSON spec file failed to load or parse.
    InvalidSpecFile(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::InvalidName(n) => {
                write!(
                    f,
                    "invalid scenario name {n:?}: must be non-empty, no whitespace"
                )
            }
            SpecError::InvalidQps(q) => write!(f, "offered load must be positive, got {q}"),
            SpecError::ZeroSeeds => write!(f, "at least one seed repetition is required"),
            SpecError::InvalidScale(m) => write!(f, "invalid scale: {m}"),
            SpecError::InvalidPolicy(m) => write!(f, "invalid policy: {m}"),
            SpecError::InvalidTopology(m) => write!(f, "invalid topology: {m}"),
            SpecError::InvalidFleet(m) => write!(f, "invalid fleet parameters: {m}"),
            SpecError::InvalidController(m) => write!(f, "invalid controller overrides: {m}"),
            SpecError::InvalidSweep(m) => write!(f, "invalid sweep: {m}"),
            SpecError::StandaloneWithSecondary => {
                write!(
                    f,
                    "Policy::Standalone runs the primary alone; remove the secondary"
                )
            }
            SpecError::FleetSecondaryUnsupported => {
                write!(
                    f,
                    "fleet runs colocate the ML trainer; remove the extra secondary"
                )
            }
            SpecError::FleetNeedsController => {
                write!(f, "fleet runs need an isolation policy with a controller")
            }
            SpecError::TargetMismatch { expected, found } => {
                write!(
                    f,
                    "this operation needs a {expected} target, spec declares {found}"
                )
            }
            SpecError::InvalidFault(m) => write!(f, "invalid fault timeline: {m}"),
            SpecError::InvalidWorkload(m) => write!(f, "invalid workload: {m}"),
            SpecError::InvalidResilience(m) => write!(f, "invalid resilience policy: {m}"),
            SpecError::UnknownScenario(n) => write!(f, "unknown scenario {n:?} (try `list`)"),
            SpecError::InvalidSpecFile(m) => write!(f, "cannot load spec file: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// [`ScaleSpec::Bench`]'s warm-up, in milliseconds.
const BENCH_WARMUP_MS: u64 = 500;

/// [`ScaleSpec::Bench`]'s measured window, in milliseconds.
const BENCH_MEASURE_MS: u64 = 6_000;

/// The longest run a spec may declare, in milliseconds: half the simulated
/// clock's range, leaving the other half for the drain the drivers add
/// past a run's end.
const MAX_RUN_MS: u64 = SimTime::MAX.as_millis() / 2;

/// Concrete run lengths, resolved from a [`ScaleSpec`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Warm-up excluded from statistics.
    pub warmup: SimDuration,
    /// Measured window.
    pub measure: SimDuration,
}

/// Measurement-window selection.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ScaleSpec {
    /// Short windows for tests: 400 ms warm-up, 1.6 s measured.
    Quick,
    /// Paper-figure windows: 500 ms warm-up, 6 s measured. On a fleet
    /// target, which runs per-minute slices instead of one window, `Bench`
    /// marks the slices that [`ScenarioSpec::scaled`] (`perfiso-run run
    /// --scale`) rescales.
    Bench,
    /// Explicit warm-up and measured window, in milliseconds.
    Custom {
        /// Warm-up excluded from statistics.
        warmup_ms: u64,
        /// Measured window.
        measure_ms: u64,
    },
}

impl ScaleSpec {
    /// The concrete run lengths.
    pub fn to_scale(self) -> Scale {
        let (warmup_ms, measure_ms) = match self {
            ScaleSpec::Quick => (400, 1_600),
            ScaleSpec::Bench => (BENCH_WARMUP_MS, BENCH_MEASURE_MS),
            ScaleSpec::Custom {
                warmup_ms,
                measure_ms,
            } => (warmup_ms, measure_ms),
        };
        Scale {
            warmup: SimDuration::from_millis(warmup_ms),
            measure: SimDuration::from_millis(measure_ms),
        }
    }
}

/// The fleet load curve, by name.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CurveSpec {
    /// The paper's Fig 10 hour: drifting load with a mid-hour surge.
    PaperHour,
    /// A full 24-hour production day: early-morning trough, broad evening
    /// crest, morning-ramp and evening surges.
    ProductionDay,
    /// Constant per-machine load (control runs).
    Flat {
        /// QPS per machine.
        qps: f64,
    },
}

impl CurveSpec {
    /// The concrete curve.
    pub fn to_curve(self) -> DiurnalCurve {
        match self {
            CurveSpec::PaperHour => DiurnalCurve::paper_hour(),
            CurveSpec::ProductionDay => DiurnalCurve::production_day(),
            CurveSpec::Flat { qps } => DiurnalCurve::flat(qps),
        }
    }
}

/// Production-scale extensions of the fleet sweep: strided minutes (a
/// 24-hour day in 1440/stride slices), a heterogeneous hardware roster,
/// and deterministic tenant churn.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FleetProductionSpec {
    /// Wall minutes each sampled slice represents (≥ 1).
    pub minute_stride: u32,
    /// Cycle the sampled machines through the three-generation
    /// [`cluster::topology::BoxShape::production_shapes`] roster instead
    /// of the uniform paper server.
    pub heterogeneous_shapes: bool,
    /// Deterministically reschedule the batch trainer per machine-minute
    /// (evictions and 0.5–1.5× worker rescales).
    pub tenant_churn: bool,
}

/// One latency-sensitive service of a multi-primary box: its display
/// name, its own open-loop offered load, and its declared footprint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceLoadSpec {
    /// Service display name (report rows; unique within the roster).
    pub name: String,
    /// Offered load in queries/second.
    pub qps: f64,
    /// Declared resident working set, megabytes.
    pub working_set_mb: u64,
}

/// Which driver executes the scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TargetSpec {
    /// One production server ([`indexserve::boxsim::run_multi`] with one
    /// service).
    SingleBox {
        /// Offered load in queries/second.
        qps: f64,
    },
    /// One production server hosting several latency-sensitive services
    /// that PerfIso must arbitrate between
    /// ([`indexserve::boxsim::run_multi`]).
    MultiBox {
        /// The service roster, in slot order.
        services: Vec<ServiceLoadSpec>,
    },
    /// The Fig 9 TLA/MLA/IndexServe cluster ([`ClusterSim`]).
    Cluster {
        /// Index partitions per row.
        columns: u32,
        /// Replicated rows.
        rows: u32,
        /// Top-level aggregator machines.
        tlas: u32,
        /// Total offered load across the cluster.
        qps_total: f64,
    },
    /// The Fig 10 per-minute fleet sweep ([`cluster::fleet::run_fleet`]).
    Fleet {
        /// Extrapolated fleet size, shown in tables; the sweep simulates
        /// only `sampled_machines`.
        fleet_machines: u32,
        /// Machines actually simulated per minute.
        sampled_machines: u32,
        /// Experiment length in minutes.
        minutes: u32,
        /// Per-minute DES slice, in milliseconds.
        slice_ms: u64,
        /// The load curve.
        curve: CurveSpec,
        /// The colocated ML trainer.
        trainer: MlTrainer,
        /// Production-scale extensions (absent in older spec files = the
        /// classic per-minute sweep; `None` is never serialized, keeping
        /// pre-production fleet fixtures byte-stable).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        production: Option<FleetProductionSpec>,
    },
}

impl TargetSpec {
    /// Short kind name for errors and tables.
    pub fn kind(&self) -> &'static str {
        match self {
            TargetSpec::SingleBox { .. } => "single-box",
            TargetSpec::MultiBox { .. } => "multi-box",
            TargetSpec::Cluster { .. } => "cluster",
            TargetSpec::Fleet { .. } => "fleet",
        }
    }

    /// One-line shape summary for tables.
    pub fn describe(&self) -> String {
        match self {
            TargetSpec::SingleBox { qps } => format!("single-box @ {qps:.0} qps"),
            TargetSpec::MultiBox { services } => {
                let roster: Vec<String> = services
                    .iter()
                    .map(|s| format!("{}@{:.0}", s.name, s.qps))
                    .collect();
                format!("multi-box [{}] qps", roster.join(" + "))
            }
            TargetSpec::Cluster {
                columns,
                rows,
                tlas,
                qps_total,
            } => format!("cluster {columns}x{rows}+{tlas} @ {qps_total:.0} qps"),
            TargetSpec::Fleet {
                fleet_machines,
                sampled_machines,
                minutes,
                slice_ms,
                ..
            } => format!(
                "fleet {fleet_machines} ({minutes} min x {sampled_machines}, {slice_ms} ms slices)"
            ),
        }
    }
}

/// One fully-described experiment.
///
/// See the [module docs](self) for the surrounding machinery; the
/// interesting invariants live in [`ScenarioSpec::validate`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (registry key, report label).
    pub name: String,
    /// Human-readable purpose.
    pub description: String,
    /// Which driver runs it, with its load.
    pub target: TargetSpec,
    /// The primary workload class (absent in older spec files =
    /// IndexServe; the default is never serialized, keeping pre-workload
    /// fixtures byte-stable).
    #[serde(default, skip_serializing_if = "WorkloadSpec::is_index_serve")]
    pub workload: WorkloadSpec,
    /// Secondary tenants on each simulated machine.
    pub secondary: SecondaryKind,
    /// The isolation policy under test.
    pub policy: Policy,
    /// Controller-knob overrides applied on top of the policy's base
    /// [`PerfIsoConfig`] (absent in older spec files = no overrides).
    #[serde(default)]
    pub controller: ControllerSpec,
    /// Optional parameter sweep expanding this scenario into a grid of
    /// cells (absent in older spec files = no sweep).
    #[serde(default)]
    pub sweep: Option<SweepSpec>,
    /// Fault-injection timeline (absent in older spec files = no chaos;
    /// the default, an empty timeline under the default restart policy,
    /// is not serialized, keeping old fixtures valid).
    #[serde(default, skip_serializing_if = "FaultSpec::is_default")]
    pub fault: FaultSpec,
    /// Latency-recording backend (absent in older spec files = exact;
    /// the default is never serialized, keeping pre-sketch fixtures
    /// byte-stable).
    #[serde(default, skip_serializing_if = "TelemetrySpec::is_exact")]
    pub telemetry: TelemetrySpec,
    /// Overload-resilience policy (absent in older spec files = none; a
    /// disabled spec is never serialized, keeping pre-resilience fixtures
    /// byte-stable).
    #[serde(default, skip_serializing_if = "ResilienceSpec::is_disabled")]
    pub resilience: ResilienceSpec,
    /// Measurement window.
    pub scale: ScaleSpec,
    /// Base RNG seed; repetition `i` runs with `seed + i`.
    pub seed: u64,
    /// Seed repetitions (the paper runs cluster experiments 8 times).
    pub seeds: u32,
}

impl ScenarioSpec {
    /// Starts a builder with test-friendly defaults: single box at
    /// 2 000 QPS, no secondary, standalone policy, quick scale, seed 42,
    /// one repetition.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.to_string(),
                description: String::new(),
                target: TargetSpec::SingleBox { qps: 2_000.0 },
                workload: WorkloadSpec::IndexServe,
                secondary: SecondaryKind::none(),
                policy: Policy::Standalone,
                controller: ControllerSpec::default(),
                sweep: None,
                fault: FaultSpec::default(),
                telemetry: TelemetrySpec::default(),
                resilience: ResilienceSpec::default(),
                scale: ScaleSpec::Quick,
                seed: 42,
                seeds: 1,
            },
        }
    }

    /// Checks every invariant the drivers rely on.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() || self.name.chars().any(char::is_whitespace) {
            return Err(SpecError::InvalidName(self.name.clone()));
        }
        if self.seeds == 0 {
            return Err(SpecError::ZeroSeeds);
        }
        if let ScaleSpec::Custom {
            warmup_ms,
            measure_ms,
        } = self.scale
        {
            if measure_ms == 0 {
                return Err(SpecError::InvalidScale("measured window is zero".into()));
            }
            if warmup_ms
                .checked_add(measure_ms)
                .is_none_or(|ms| ms > MAX_RUN_MS)
            {
                return Err(SpecError::InvalidScale(format!(
                    "a {warmup_ms} + {measure_ms} ms window runs past the simulated clock's \
                     range (at most {MAX_RUN_MS} ms)"
                )));
            }
        }
        match self.policy {
            Policy::Blind { buffer_cores } if buffer_cores == 0 || buffer_cores >= PAPER_CORES => {
                return Err(SpecError::InvalidPolicy(format!(
                    "blind isolation needs 1..{PAPER_CORES} buffer cores, got {buffer_cores}"
                )));
            }
            Policy::StaticCores(n) if n == 0 || n > PAPER_CORES => {
                return Err(SpecError::InvalidPolicy(format!(
                    "static restriction needs 1..={PAPER_CORES} cores, got {n}"
                )));
            }
            Policy::CycleCap(f) if !(f > 0.0 && f <= 1.0) => {
                return Err(SpecError::InvalidPolicy(format!(
                    "cycle cap must be in (0, 1], got {f}"
                )));
            }
            Policy::Standalone if self.secondary != SecondaryKind::none() => {
                return Err(SpecError::StandaloneWithSecondary);
            }
            _ => {}
        }
        if !self.controller.is_default() {
            self.controller
                .check_ranges()
                .map_err(SpecError::InvalidController)?;
            let Some(base) = self.policy.perfiso_config() else {
                return Err(SpecError::InvalidController(format!(
                    "controller overrides need a policy with a controller, not {}",
                    self.policy.label()
                )));
            };
            if self.controller.buffer_cores.is_some()
                && !matches!(base.cpu, CpuPolicy::Blind { .. })
            {
                return Err(SpecError::InvalidController(format!(
                    "buffer_cores override needs a blind-isolation policy, not {}",
                    self.policy.label()
                )));
            }
            let mut services = std::collections::HashSet::new();
            for t in &self.controller.tenant_limits {
                if !services.insert(t.service.as_str()) {
                    return Err(SpecError::InvalidController(format!(
                        "duplicate tenant limit override for {:?}",
                        t.service
                    )));
                }
                // A name the box never registers would be silently inert
                // and turn a sweep into identical cells — reject it.
                if !indexserve::boxsim::IO_TENANT_SERVICES.contains(&t.service.as_str()) {
                    return Err(SpecError::InvalidController(format!(
                        "unknown I/O tenant service {:?} (known: {})",
                        t.service,
                        indexserve::boxsim::IO_TENANT_SERVICES.join(", ")
                    )));
                }
            }
            self.controller
                .apply(&base)
                .validate(PAPER_CORES)
                .map_err(SpecError::InvalidController)?;
        }
        if !self.resilience.is_disabled() {
            self.resilience
                .check_shape()
                .map_err(SpecError::InvalidResilience)?;
            if self.resilience.hedge.is_some() {
                if let WorkloadSpec::ServiceGraph(g) = &self.workload {
                    // The hedge bit halves the per-stage worker-index
                    // space; a wider stage could not tag its hedges.
                    let cap = workloads::service_graph::MAX_HEDGED_FAN_OUT;
                    if let Some(s) = g.stages.iter().find(|s| s.fan_out > cap) {
                        return Err(SpecError::InvalidResilience(format!(
                            "hedging caps stage fan-out at {cap}; stage {:?} declares {}",
                            s.name, s.fan_out
                        )));
                    }
                }
            }
        }
        if !self.fault.is_empty() {
            self.fault.check_shape().map_err(SpecError::InvalidFault)?;
            if matches!(self.target, TargetSpec::Fleet { .. }) {
                return Err(SpecError::InvalidFault(
                    "the fleet sweep driver does not execute fault timelines".into(),
                ));
            }
            let effective = self.effective_perfiso();
            for ev in &self.fault.events {
                match ev {
                    FaultEvent::ControllerCrash { .. } if effective.is_none() => {
                        return Err(SpecError::InvalidFault(format!(
                            "controller crash needs a policy with a controller, not {}",
                            self.policy.label()
                        )));
                    }
                    FaultEvent::SecondaryRestart { .. }
                        if self.secondary == SecondaryKind::none() =>
                    {
                        return Err(SpecError::InvalidFault(
                            "secondary restart needs a secondary tenant".into(),
                        ));
                    }
                    FaultEvent::ChurnStorm { .. } if self.secondary == SecondaryKind::none() => {
                        return Err(SpecError::InvalidFault(
                            "churn storm needs a secondary tenant to churn".into(),
                        ));
                    }
                    FaultEvent::ConfigRollout { doc, .. } => {
                        let Some(base) = &effective else {
                            return Err(SpecError::InvalidFault(format!(
                                "config rollout needs a policy with a controller, not {}",
                                self.policy.label()
                            )));
                        };
                        // The rolled-out document must itself be a valid
                        // controller configuration.
                        doc.check_ranges()
                            .map_err(|e| SpecError::InvalidFault(format!("rollout doc: {e}")))?;
                        doc.apply(base)
                            .validate(PAPER_CORES)
                            .map_err(|e| SpecError::InvalidFault(format!("rollout doc: {e}")))?;
                    }
                    _ => {}
                }
            }
            // A crash stays down for at least `downtime_polls` CPU polls at
            // the interval in force when it fires, which a rollout may
            // have lengthened: bound it by the longest reachable interval.
            if let Some(base) = &effective {
                let longest_poll = self
                    .fault
                    .events
                    .iter()
                    .filter_map(|ev| match ev {
                        FaultEvent::ConfigRollout { doc, .. } => {
                            Some(doc.apply(base).cpu_poll_interval)
                        }
                        _ => None,
                    })
                    .fold(base.cpu_poll_interval, SimDuration::max);
                for ev in &self.fault.events {
                    let FaultEvent::ControllerCrash { downtime_polls, .. } = ev else {
                        continue;
                    };
                    let floor_ns = longest_poll
                        .as_nanos()
                        .checked_mul(u64::from(*downtime_polls));
                    if floor_ns
                        .is_none_or(|ns| ns > SimDuration::from_millis(MAX_RUN_MS).as_nanos())
                    {
                        return Err(SpecError::InvalidFault(format!(
                            "controller-crash downtime_polls {downtime_polls} at a {} us CPU poll \
                             interval runs past the simulated clock's range (at most {MAX_RUN_MS} ms)",
                            longest_poll.as_micros()
                        )));
                    }
                }
            }
        }
        if let Some(sweep) = &self.sweep {
            sweep.check_shape().map_err(SpecError::InvalidSweep)?;
            // A fault axis over a timeline with no controller crash would
            // expand into identical cells — reject it like an inert knob.
            if sweep
                .axes
                .iter()
                .any(|a| matches!(a, SweepAxis::FaultDowntimePolls(_)))
                && !self
                    .fault
                    .events
                    .iter()
                    .any(|e| matches!(e, FaultEvent::ControllerCrash { .. }))
            {
                return Err(SpecError::InvalidSweep(
                    "fault_downtime_polls axis needs a controller-crash fault event".into(),
                ));
            }
            // Only a single-box target has one offered load to rewrite.
            if sweep.axes.iter().any(|a| matches!(a, SweepAxis::Qps(_)))
                && !matches!(self.target, TargetSpec::SingleBox { .. })
            {
                return Err(SpecError::InvalidSweep(format!(
                    "qps axis needs a single-box target, not {}",
                    self.target.kind()
                )));
            }
            for cell in sweep.expand(self) {
                cell.spec
                    .validate()
                    .map_err(|e| SpecError::InvalidSweep(format!("cell [{}]: {e}", cell.label)))?;
            }
        }
        if let WorkloadSpec::ServiceGraph(g) = &self.workload {
            g.check_shape().map_err(SpecError::InvalidWorkload)?;
            if !matches!(self.target, TargetSpec::SingleBox { .. }) {
                return Err(SpecError::InvalidWorkload(format!(
                    "service-graph workloads run on a single-box target, not {}",
                    self.target.kind()
                )));
            }
            let total_mb = g.working_set_mb();
            if total_mb.is_none_or(|mb| mb > PAPER_MEMORY_MB - SECONDARY_RESERVE_MB) {
                return Err(SpecError::InvalidWorkload(format!(
                    "graph working set {} MB leaves no room for secondaries on a \
                     {PAPER_MEMORY_MB} MB box",
                    total_mb.map_or_else(|| "over u64::MAX".into(), |mb| mb.to_string())
                )));
            }
        }
        match &self.target {
            TargetSpec::SingleBox { qps } => {
                if !(qps.is_finite() && *qps > 0.0) {
                    return Err(SpecError::InvalidQps(*qps));
                }
            }
            TargetSpec::MultiBox { services } => {
                if !self.workload.is_index_serve() {
                    return Err(SpecError::InvalidWorkload(
                        "multi-box rosters host IndexServe services; graph workloads \
                         use a single-box target"
                            .into(),
                    ));
                }
                if services.is_empty() || services.len() > MAX_SERVICES {
                    return Err(SpecError::InvalidWorkload(format!(
                        "multi-box rosters host 1..={MAX_SERVICES} services, got {}",
                        services.len()
                    )));
                }
                let mut names = std::collections::HashSet::new();
                let mut total_mb = 0u64;
                for s in services {
                    if s.name.is_empty() || s.name.chars().any(char::is_whitespace) {
                        return Err(SpecError::InvalidWorkload(format!(
                            "service name {:?} must be non-empty, no whitespace",
                            s.name
                        )));
                    }
                    if !names.insert(s.name.as_str()) {
                        return Err(SpecError::InvalidWorkload(format!(
                            "duplicate service name {:?}",
                            s.name
                        )));
                    }
                    if !(s.qps.is_finite() && s.qps > 0.0) {
                        return Err(SpecError::InvalidQps(s.qps));
                    }
                    if s.working_set_mb == 0 {
                        return Err(SpecError::InvalidWorkload(format!(
                            "service {:?} declares an empty working set",
                            s.name
                        )));
                    }
                    total_mb = total_mb
                        .checked_add(s.working_set_mb)
                        .filter(|&mb| mb <= PAPER_MEMORY_MB - SECONDARY_RESERVE_MB)
                        .ok_or_else(|| {
                            SpecError::InvalidWorkload(format!(
                                "roster working sets through {:?} total more than {} MB; \
                                 with the secondary reserve that exceeds the \
                                 {PAPER_MEMORY_MB} MB box",
                                s.name,
                                PAPER_MEMORY_MB - SECONDARY_RESERVE_MB
                            ))
                        })?;
                }
            }
            TargetSpec::Cluster {
                columns,
                rows,
                tlas,
                qps_total,
            } => {
                if !(qps_total.is_finite() && *qps_total > 0.0) {
                    return Err(SpecError::InvalidQps(*qps_total));
                }
                let topo = Topology {
                    columns: *columns,
                    rows: *rows,
                    tlas: *tlas,
                };
                topo.validate().map_err(SpecError::InvalidTopology)?;
            }
            TargetSpec::Fleet {
                sampled_machines,
                minutes,
                slice_ms,
                curve,
                trainer,
                production,
                ..
            } => {
                if *minutes == 0 || *sampled_machines == 0 {
                    return Err(SpecError::InvalidFleet(
                        "need at least one minute and one sampled machine".into(),
                    ));
                }
                if *slice_ms == 0 {
                    return Err(SpecError::InvalidFleet("zero-length slice".into()));
                }
                if *slice_ms > MAX_RUN_MS {
                    return Err(SpecError::InvalidScale(format!(
                        "a {slice_ms} ms fleet slice runs past the simulated clock's range \
                         (at most {MAX_RUN_MS} ms)"
                    )));
                }
                if let Some(p) = production {
                    if p.minute_stride == 0 {
                        return Err(SpecError::InvalidFleet(
                            "minute_stride must be at least 1".into(),
                        ));
                    }
                }
                if let CurveSpec::Flat { qps } = curve {
                    if !(qps.is_finite() && *qps > 0.0) {
                        return Err(SpecError::InvalidQps(*qps));
                    }
                }
                if trainer.workers == 0 {
                    return Err(SpecError::InvalidFleet("trainer needs workers".into()));
                }
                if self.secondary != SecondaryKind::none() {
                    return Err(SpecError::FleetSecondaryUnsupported);
                }
                if self.policy.perfiso_config().is_none() {
                    return Err(SpecError::FleetNeedsController);
                }
            }
        }
        Ok(())
    }

    /// The concrete measurement window.
    pub fn run_scale(&self) -> Scale {
        self.scale.to_scale()
    }

    /// This spec with its [`ScaleSpec::Bench`] run length multiplied by
    /// `factor`, as `perfiso-run run --scale` runs it: the window becomes
    /// `Custom { warmup_ms: 500, measure_ms: 6000 × max(factor, 0.1) }`
    /// and a fleet's slice `max(slice_ms × factor, 1)` ms, truncated to
    /// whole milliseconds. The result is no longer `Bench`, so a report's
    /// embedded spec is the run that produced it.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidScale`] when `factor` is not positive and
    /// finite or the spec has no `Bench` run length; otherwise the
    /// result's first validation error, which is `InvalidScale` too when a
    /// rescaled length runs past the simulated clock's range.
    pub fn scaled(&self, factor: f64) -> Result<ScenarioSpec, SpecError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(SpecError::InvalidScale(format!(
                "the multiplier must be positive and finite, got {factor}"
            )));
        }
        if self.scale != ScaleSpec::Bench {
            return Err(SpecError::InvalidScale(format!(
                "{} has no Bench run length to rescale (its scale is {:?})",
                self.name, self.scale
            )));
        }
        let mut spec = self.clone();
        let measure_ms = (BENCH_MEASURE_MS as f64 * factor.max(0.1)) as u64;
        spec.scale = ScaleSpec::Custom {
            warmup_ms: BENCH_WARMUP_MS,
            measure_ms,
        };
        // `as` saturates, so a huge factor lands past the clock's range,
        // which `validate` rejects, rather than wrapping.
        if let TargetSpec::Fleet { slice_ms, .. } = &mut spec.target {
            *slice_ms = ((*slice_ms as f64 * factor) as u64).max(1);
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The controller configuration the drivers install: the policy's
    /// base [`PerfIsoConfig`] with this spec's [`ControllerSpec`]
    /// overrides applied (`None` when the policy runs no controller).
    pub fn effective_perfiso(&self) -> Option<PerfIsoConfig> {
        self.policy
            .perfiso_config()
            .map(|base| self.controller.apply(&base))
    }

    /// Expands this spec's sweep into its grid cells, in run order.
    ///
    /// # Errors
    ///
    /// Fails on validation errors or when the spec declares no sweep.
    pub fn expand_sweep(&self) -> Result<Vec<SweepCell>, SpecError> {
        self.validate()?;
        let Some(sweep) = &self.sweep else {
            return Err(SpecError::InvalidSweep(format!(
                "scenario {:?} declares no sweep",
                self.name
            )));
        };
        Ok(sweep.expand(self))
    }

    /// The seeds a run covers: `seed..seed + seeds`.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..u64::from(self.seeds))
            .map(|i| self.seed.wrapping_add(i))
            .collect()
    }

    /// The single-box replay plan.
    ///
    /// # Errors
    ///
    /// Fails on validation errors or a non-single-box target.
    pub fn run_plan(&self) -> Result<RunPlan, SpecError> {
        self.validate()?;
        let TargetSpec::SingleBox { qps } = self.target else {
            return Err(SpecError::TargetMismatch {
                expected: "single-box",
                found: self.target.kind(),
            });
        };
        let scale = self.run_scale();
        Ok(RunPlan {
            qps,
            warmup: scale.warmup,
            measure: scale.measure,
            trace: TraceConfig::default(),
        })
    }

    /// The single-box machine configuration for one seed.
    ///
    /// # Errors
    ///
    /// Fails on validation errors or a non-single-box target.
    pub fn box_config(&self, seed: u64) -> Result<BoxConfig, SpecError> {
        self.validate()?;
        if !matches!(
            self.target,
            TargetSpec::SingleBox { .. } | TargetSpec::MultiBox { .. }
        ) {
            return Err(SpecError::TargetMismatch {
                expected: "single-box or multi-box",
                found: self.target.kind(),
            });
        }
        // validate() already guarantees a Standalone spec has no secondary.
        let effective = self.effective_perfiso();
        let fault = self
            .fault
            .to_plan(effective.as_ref())
            .map(std::sync::Arc::new);
        let mut cfg = BoxConfig::paper_box(self.secondary.clone(), effective, seed);
        cfg.fault = fault;
        cfg.hosted = self.hosted_roster()?;
        cfg.telemetry = self.telemetry;
        cfg.resilience = self.resilience.to_policy();
        Ok(cfg)
    }

    /// The service roster [`box_config`](Self::box_config) installs:
    /// empty for the classic single-IndexServe box (bit-identical to the
    /// pre-roster driver), one graph slot for service-graph workloads,
    /// one sized IndexServe slot per [`ServiceLoadSpec`] for multi-box
    /// targets.
    fn hosted_roster(&self) -> Result<Vec<HostedSpec>, SpecError> {
        match (&self.target, &self.workload) {
            (TargetSpec::MultiBox { services }, _) => Ok(services
                .iter()
                .map(|s| HostedSpec::IndexServe {
                    name: s.name.clone(),
                    service: std::sync::Arc::new(ServiceConfig {
                        working_set_bytes: Some(s.working_set_mb << 20),
                        ..ServiceConfig::default()
                    }),
                })
                .collect()),
            (_, WorkloadSpec::ServiceGraph(g)) => Ok(vec![HostedSpec::Graph {
                name: "graph".to_string(),
                graph: std::sync::Arc::new(g.to_workload().map_err(SpecError::InvalidWorkload)?),
            }]),
            (_, WorkloadSpec::IndexServe) => Ok(Vec::new()),
        }
    }

    /// A live [`BoxSim`] for embedding-style experiments (runtime
    /// commands, manual stepping); the simulator is configured exactly as
    /// [`run_spec`] would configure it for this seed.
    ///
    /// # Errors
    ///
    /// Fails on validation errors or a non-single-box target.
    pub fn box_sim(&self, seed: u64) -> Result<BoxSim, SpecError> {
        Ok(BoxSim::new(self.box_config(seed)?))
    }

    /// An open-loop client replaying this spec's single-box workload —
    /// the same trace `run_spec` would generate for this seed.
    ///
    /// # Errors
    ///
    /// Fails on validation errors or a non-single-box target.
    pub fn open_loop_client(&self, seed: u64) -> Result<OpenLoopClient, SpecError> {
        let plan = self.run_plan()?;
        let service = ServicePlan { qps: plan.qps };
        Ok(service.client(plan.warmup + plan.measure, seed))
    }

    /// The cluster configuration for one seed.
    ///
    /// The cluster runs on one thread. `_threads` is unused; it stays only
    /// because the benchmark replay (`e2ebench/src/replay.rs`) passes it,
    /// and goes with the benchmark's next change.
    ///
    /// # Errors
    ///
    /// Fails on validation errors or a non-cluster target.
    pub fn cluster_config(&self, seed: u64, _threads: usize) -> Result<ClusterConfig, SpecError> {
        self.validate()?;
        let TargetSpec::Cluster {
            columns,
            rows,
            tlas,
            qps_total,
        } = self.target
        else {
            return Err(SpecError::TargetMismatch {
                expected: "cluster",
                found: self.target.kind(),
            });
        };
        let scale = self.run_scale();
        let effective = self.effective_perfiso();
        Ok(ClusterConfig {
            topology: Topology {
                columns,
                rows,
                tlas,
            },
            qps_total,
            warmup: scale.warmup,
            measure: scale.measure,
            fault: self
                .fault
                .to_plan(effective.as_ref())
                .map(std::sync::Arc::new),
            perfiso: effective,
            telemetry: self.telemetry,
            resilience: self.resilience.to_policy(),
            ..ClusterConfig::paper_cluster(self.secondary.clone(), seed)
        })
    }

    /// A live [`ClusterSim`] (diagnostics, traced runs).
    ///
    /// # Errors
    ///
    /// Fails on validation errors or a non-cluster target.
    pub fn cluster_sim(&self, seed: u64) -> Result<ClusterSim, SpecError> {
        Ok(ClusterSim::new(self.cluster_config(seed, 1)?))
    }

    /// The fleet-sweep configuration for one seed.
    ///
    /// # Errors
    ///
    /// Fails on validation errors or a non-fleet target.
    pub fn fleet_config(&self, seed: u64, threads: usize) -> Result<FleetConfig, SpecError> {
        self.validate()?;
        let TargetSpec::Fleet {
            sampled_machines,
            minutes,
            slice_ms,
            curve,
            ref trainer,
            production,
            ..
        } = self.target
        else {
            return Err(SpecError::TargetMismatch {
                expected: "fleet",
                found: self.target.kind(),
            });
        };
        Ok(FleetConfig {
            sampled_machines,
            minutes,
            slice: SimDuration::from_millis(slice_ms),
            curve: curve.to_curve(),
            trainer: trainer.clone(),
            perfiso: self
                .effective_perfiso()
                .expect("validated: fleet policy has a controller"),
            seed,
            threads,
            minute_stride: production.map_or(1, |p| p.minute_stride),
            shapes: if production.is_some_and(|p| p.heterogeneous_shapes) {
                BoxShape::roster(&BoxShape::production_shapes())
            } else {
                FleetConfig::default().shapes
            },
            churn: production.is_some_and(|p| p.tenant_churn),
            telemetry: self.telemetry,
            resilience: self.resilience.to_policy(),
        })
    }

    /// Serializes the spec as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec is serializable")
    }

    /// Parses a spec from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or an invalid spec.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| SpecError::InvalidSpecFile(format!("{e:?}")))?;
        spec.validate()?;
        Ok(spec)
    }
}

/// Builder for [`ScenarioSpec`]; see [`ScenarioSpec::builder`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Sets the human-readable description.
    pub fn describe(mut self, description: &str) -> Self {
        self.spec.description = description.to_string();
        self
    }

    /// Targets one production server at the given load.
    pub fn single_box(mut self, qps: f64) -> Self {
        self.spec.target = TargetSpec::SingleBox { qps };
        self
    }

    /// Appends one service to the multi-box roster (converting a
    /// single-box target into a multi-box one if needed).
    pub fn hosted_service(mut self, name: &str, qps: f64, working_set_mb: u64) -> Self {
        let entry = ServiceLoadSpec {
            name: name.to_string(),
            qps,
            working_set_mb,
        };
        match &mut self.spec.target {
            TargetSpec::MultiBox { services } => services.push(entry),
            _ => {
                self.spec.target = TargetSpec::MultiBox {
                    services: vec![entry],
                };
            }
        }
        self
    }

    /// Sets the primary workload class wholesale.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Runs a service-graph primary instead of IndexServe.
    pub fn graph(mut self, graph: ServiceGraphSpec) -> Self {
        self.spec.workload = WorkloadSpec::ServiceGraph(graph);
        self
    }

    /// Targets a TLA/MLA cluster of the given shape and total load.
    pub fn cluster(mut self, topology: Topology, qps_total: f64) -> Self {
        self.spec.target = TargetSpec::Cluster {
            columns: topology.columns,
            rows: topology.rows,
            tlas: topology.tlas,
            qps_total,
        };
        self
    }

    /// Targets the per-minute fleet sweep (paper-hour curve, default
    /// trainer and fleet size; refine with [`ScenarioBuilder::curve`] and
    /// [`ScenarioBuilder::trainer`]).
    pub fn fleet(mut self, minutes: u32, sampled_machines: u32, slice_ms: u64) -> Self {
        let defaults = FleetConfig::default();
        self.spec.target = TargetSpec::Fleet {
            fleet_machines: PAPER_FLEET_MACHINES,
            sampled_machines,
            minutes,
            slice_ms,
            curve: CurveSpec::PaperHour,
            trainer: defaults.trainer,
            production: None,
        };
        self
    }

    /// Sets the extrapolated fleet size (fleet targets only; no-op
    /// otherwise).
    pub fn fleet_machines(mut self, n: u32) -> Self {
        if let TargetSpec::Fleet {
            ref mut fleet_machines,
            ..
        } = self.spec.target
        {
            *fleet_machines = n;
        }
        self
    }

    /// Enables the production-scale fleet extensions (fleet targets only;
    /// no-op otherwise).
    pub fn production(mut self, p: FleetProductionSpec) -> Self {
        if let TargetSpec::Fleet {
            ref mut production, ..
        } = self.spec.target
        {
            *production = Some(p);
        }
        self
    }

    /// Sets the fleet load curve (fleet targets only; no-op otherwise).
    pub fn curve(mut self, c: CurveSpec) -> Self {
        if let TargetSpec::Fleet { ref mut curve, .. } = self.spec.target {
            *curve = c;
        }
        self
    }

    /// Sets the colocated trainer (fleet targets only; no-op otherwise).
    pub fn trainer(mut self, t: MlTrainer) -> Self {
        if let TargetSpec::Fleet {
            ref mut trainer, ..
        } = self.spec.target
        {
            *trainer = t;
        }
        self
    }

    /// Sets the full secondary mix.
    pub fn secondary(mut self, secondary: SecondaryKind) -> Self {
        self.spec.secondary = secondary;
        self
    }

    /// Adds a CPU bully of the given intensity.
    pub fn cpu_bully(mut self, intensity: BullyIntensity) -> Self {
        self.spec.secondary.cpu_bully = Some(intensity);
        self
    }

    /// Adds a DiskSPD-style disk bully.
    pub fn disk_bully(mut self, bully: DiskBully) -> Self {
        self.spec.secondary.disk_bully = Some(bully);
        self
    }

    /// Adds HDFS DataNode + client traffic.
    pub fn hdfs(mut self) -> Self {
        self.spec.secondary.hdfs = true;
        self
    }

    /// Sets the isolation policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.spec.policy = policy;
        self
    }

    /// Sets the controller-knob overrides wholesale.
    pub fn controller(mut self, controller: ControllerSpec) -> Self {
        self.spec.controller = controller;
        self
    }

    /// Edits the controller-knob overrides in place.
    pub fn tune(mut self, f: impl FnOnce(&mut ControllerSpec)) -> Self {
        f(&mut self.spec.controller);
        self
    }

    /// Attaches a parameter sweep.
    pub fn sweep(mut self, sweep: SweepSpec) -> Self {
        self.spec.sweep = Some(sweep);
        self
    }

    /// Adds one sweep axis (creating the sweep if needed).
    pub fn sweep_axis(mut self, axis: SweepAxis) -> Self {
        self.spec
            .sweep
            .get_or_insert_with(|| SweepSpec { axes: Vec::new() })
            .axes
            .push(axis);
        self
    }

    /// Sets the fault-injection timeline wholesale.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.spec.fault = fault;
        self
    }

    /// Appends one fault event to the timeline.
    pub fn fault_event(mut self, event: FaultEvent) -> Self {
        self.spec.fault.events.push(event);
        self
    }

    /// Sets the Autopilot restart policy for fault scenarios.
    pub fn restart(mut self, restart: RestartSpec) -> Self {
        self.spec.fault.restart = restart;
        self
    }

    /// Selects the latency-recording backend.
    pub fn telemetry(mut self, t: TelemetrySpec) -> Self {
        self.spec.telemetry = t;
        self
    }

    /// Edits the overload-resilience policy in place.
    pub fn resilient(mut self, f: impl FnOnce(&mut ResilienceSpec)) -> Self {
        f(&mut self.spec.resilience);
        self
    }

    /// Sets the measurement window.
    pub fn scale(mut self, scale: ScaleSpec) -> Self {
        self.spec.scale = scale;
        self
    }

    /// Sets an explicit warm-up + measured window, in milliseconds.
    pub fn custom_scale(mut self, warmup_ms: u64, measure_ms: u64) -> Self {
        self.spec.scale = ScaleSpec::Custom {
            warmup_ms,
            measure_ms,
        };
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the repetition count (seeds `seed..seed + n`).
    pub fn seeds(mut self, n: u32) -> Self {
        self.spec.seeds = n;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn build(self) -> Result<ScenarioSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::controller::{MAX_MIB, MAX_POLL_INTERVAL_US};
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let spec = ScenarioSpec::builder("ok").build().unwrap();
        assert_eq!(spec.target.kind(), "single-box");
        assert_eq!(spec.seed_list(), vec![42]);
        assert_eq!(
            ScenarioSpec { seeds: 3, ..spec }.seed_list(),
            vec![42, 43, 44]
        );
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(matches!(
            ScenarioSpec::builder("bad name").build(),
            Err(SpecError::InvalidName(_))
        ));
        assert!(matches!(
            ScenarioSpec::builder("x").single_box(0.0).build(),
            Err(SpecError::InvalidQps(_))
        ));
        assert!(matches!(
            ScenarioSpec::builder("x").seeds(0).build(),
            Err(SpecError::ZeroSeeds)
        ));
        assert!(matches!(
            ScenarioSpec::builder("x")
                .policy(Policy::CycleCap(1.5))
                .build(),
            Err(SpecError::InvalidPolicy(_))
        ));
        assert!(matches!(
            ScenarioSpec::builder("x")
                .cpu_bully(BullyIntensity::High)
                .policy(Policy::Standalone)
                .build(),
            Err(SpecError::StandaloneWithSecondary)
        ));
        assert!(matches!(
            ScenarioSpec::builder("x")
                .cluster(
                    Topology {
                        columns: 0,
                        rows: 1,
                        tlas: 1
                    },
                    100.0
                )
                .build(),
            Err(SpecError::InvalidTopology(_))
        ));
    }

    #[test]
    fn target_mismatch_is_reported() {
        let spec = ScenarioSpec::builder("x")
            .cluster(Topology::small(), 600.0)
            .policy(Policy::FullPerfIso)
            .build()
            .unwrap();
        assert!(matches!(
            spec.run_plan(),
            Err(SpecError::TargetMismatch { .. })
        ));
        assert!(spec.cluster_config(1, 1).is_ok());
    }

    #[test]
    fn spec_json_round_trip() {
        let spec = ScenarioSpec::builder("rt")
            .describe("round trip")
            .single_box(1_234.0)
            .cpu_bully(BullyIntensity::Custom(13))
            .disk_bully(DiskBully::default())
            .hdfs()
            .policy(Policy::Blind { buffer_cores: 6 })
            .custom_scale(100, 300)
            .seed(7)
            .seeds(4)
            .build()
            .unwrap();
        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn controller_overrides_reach_every_target() {
        let tuned = |b: ScenarioBuilder| {
            b.policy(Policy::Blind { buffer_cores: 8 })
                .tune(|c| {
                    c.buffer_cores = Some(4);
                    c.cpu_poll_interval_us = Some(5_000);
                    c.memory_kill_watermark = Some(0.8);
                })
                .cpu_bully(BullyIntensity::Mid)
        };
        let single = tuned(ScenarioSpec::builder("s")).build().unwrap();
        let cfg = single.box_config(1).unwrap();
        let p = cfg.perfiso.expect("controller installed");
        assert_eq!(p.cpu, perfiso::CpuPolicy::Blind { buffer_cores: 4 });
        assert_eq!(p.cpu_poll_interval, SimDuration::from_micros(5_000));
        assert_eq!(p.memory_kill_watermark, 0.8);

        let cluster = tuned(ScenarioSpec::builder("c").cluster(Topology::small(), 600.0))
            .build()
            .unwrap();
        let p = cluster.cluster_config(1, 1).unwrap().perfiso.unwrap();
        assert_eq!(p.cpu, perfiso::CpuPolicy::Blind { buffer_cores: 4 });

        let fleet = ScenarioSpec::builder("f")
            .fleet(2, 1, 100)
            .policy(Policy::Blind { buffer_cores: 8 })
            .tune(|c| c.cpu_poll_interval_us = Some(2_000))
            .build()
            .unwrap();
        let p = fleet.fleet_config(1, 1).unwrap().perfiso;
        assert_eq!(p.cpu_poll_interval, SimDuration::from_micros(2_000));
    }

    #[test]
    fn controller_validation_rejects_bad_overrides() {
        // Overrides without a controller-bearing policy.
        let err = ScenarioSpec::builder("x")
            .policy(Policy::NoIsolation)
            .cpu_bully(BullyIntensity::Mid)
            .tune(|c| c.cpu_poll_interval_us = Some(1_000))
            .build();
        assert!(
            matches!(err, Err(SpecError::InvalidController(_))),
            "{err:?}"
        );
        // buffer_cores on a non-blind CPU mechanism.
        let err = ScenarioSpec::builder("x")
            .policy(Policy::StaticCores(8))
            .cpu_bully(BullyIntensity::Mid)
            .tune(|c| c.buffer_cores = Some(4))
            .build();
        assert!(
            matches!(err, Err(SpecError::InvalidController(_))),
            "{err:?}"
        );
        // Out-of-range knobs bubble up from PerfIsoConfig::validate.
        let bads: [&dyn Fn(&mut ControllerSpec); 7] = [
            &|c| c.cpu_poll_interval_us = Some(0),
            &|c| c.io_poll_interval_us = Some(0),
            &|c| c.memory_poll_interval_us = Some(0),
            &|c| c.memory_kill_watermark = Some(0.0),
            &|c| c.memory_kill_watermark = Some(1.5),
            &|c| c.buffer_cores = Some(48),
            &|c| {
                c.tenant_limits = vec![TenantLimitSpec {
                    service: String::new(),
                    mbps: Some(10),
                    iops: None,
                }]
            },
        ];
        for bad in bads {
            let err = ScenarioSpec::builder("x")
                .policy(Policy::Blind { buffer_cores: 8 })
                .cpu_bully(BullyIntensity::Mid)
                .tune(|c| bad(c))
                .build();
            assert!(
                matches!(err, Err(SpecError::InvalidController(_))),
                "{err:?}"
            );
        }
        // Duplicate tenant overrides.
        let err = ScenarioSpec::builder("x")
            .policy(Policy::FullPerfIso)
            .cpu_bully(BullyIntensity::Mid)
            .tune(|c| {
                c.tenant_limits = vec![
                    TenantLimitSpec {
                        service: "hdfs-client".into(),
                        mbps: Some(10),
                        iops: None,
                    },
                    TenantLimitSpec {
                        service: "hdfs-client".into(),
                        mbps: Some(20),
                        iops: None,
                    },
                ]
            })
            .build();
        assert!(
            matches!(err, Err(SpecError::InvalidController(_))),
            "{err:?}"
        );
        // Typo'd service names would be silently inert at run time.
        let err = ScenarioSpec::builder("x")
            .policy(Policy::FullPerfIso)
            .cpu_bully(BullyIntensity::Mid)
            .tune(|c| {
                c.tenant_limits = vec![TenantLimitSpec {
                    service: "hdfs_client".into(), // underscore typo
                    mbps: Some(10),
                    iops: None,
                }]
            })
            .build();
        assert!(
            matches!(err, Err(SpecError::InvalidController(_))),
            "{err:?}"
        );
        let err = ScenarioSpec::builder("x")
            .policy(Policy::FullPerfIso)
            .cpu_bully(BullyIntensity::Mid)
            .sweep_axis(SweepAxis::TenantIoMbps {
                service: "hdfs_client".into(),
                mbps: vec![10],
            })
            .build();
        assert!(matches!(err, Err(SpecError::InvalidSweep(_))), "{err:?}");
    }

    #[test]
    fn sweep_validation_covers_cells() {
        // A sweep whose cells are all valid builds fine.
        let spec = ScenarioSpec::builder("ok")
            .policy(Policy::Blind { buffer_cores: 8 })
            .cpu_bully(BullyIntensity::Mid)
            .sweep_axis(SweepAxis::BufferCores(vec![1, 2, 4]))
            .build()
            .unwrap();
        assert_eq!(spec.expand_sweep().unwrap().len(), 3);
        // A sweep containing one invalid cell is rejected with its label.
        let err = ScenarioSpec::builder("bad")
            .policy(Policy::Blind { buffer_cores: 8 })
            .cpu_bully(BullyIntensity::Mid)
            .sweep_axis(SweepAxis::BufferCores(vec![4, 48]))
            .build();
        match err {
            Err(SpecError::InvalidSweep(msg)) => assert!(
                msg.contains("buffer_cores=48"),
                "label missing from {msg:?}"
            ),
            other => panic!("expected InvalidSweep, got {other:?}"),
        }
        // expand_sweep on a sweep-free spec is an error.
        let plain = ScenarioSpec::builder("plain").build().unwrap();
        assert!(matches!(
            plain.expand_sweep(),
            Err(SpecError::InvalidSweep(_))
        ));
    }

    #[test]
    fn controller_and_sweep_round_trip_through_json() {
        let spec = ScenarioSpec::builder("rt-ctl")
            .describe("controller round trip")
            .policy(Policy::FullPerfIso)
            .cpu_bully(BullyIntensity::Mid)
            .hdfs()
            .tune(|c| {
                c.cpu_poll_interval_us = Some(2_000);
                c.secondary_memory_limit_mb = Some(4_096);
                c.tenant_limits = vec![TenantLimitSpec {
                    service: "hdfs-client".into(),
                    mbps: Some(30),
                    iops: Some(500),
                }];
            })
            .sweep_axis(SweepAxis::CpuPollIntervalUs(vec![1_000, 2_000]))
            .sweep_axis(SweepAxis::TenantIoMbps {
                service: "hdfs-client".into(),
                mbps: vec![10, 60],
            })
            .custom_scale(100, 300)
            .build()
            .unwrap();
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // A pre-ControllerSpec spec file (no `controller`/`sweep` keys)
        // still loads, with no overrides and no sweep.
        let legacy = r#"{
            "name": "legacy", "description": "",
            "target": {"SingleBox": {"qps": 2000.0}},
            "secondary": {"cpu_bully": null, "disk_bully": null, "hdfs": false},
            "policy": "Standalone", "scale": "Quick", "seed": 42, "seeds": 1
        }"#;
        let legacy_spec = ScenarioSpec::from_json(legacy).unwrap();
        assert!(legacy_spec.controller.is_default());
        assert!(legacy_spec.sweep.is_none());
    }

    #[test]
    fn scaled_rewrites_bench_run_lengths() {
        let standalone = named("standalone").unwrap();
        let production = named("fleet-production").unwrap();
        // F = 0.05 hits the 0.1 window floor; the slice has no such floor.
        for (factor, measure_ms, slice) in [
            (0.05, 600, 15),
            (0.1, 600, 30),
            (0.2, 1_200, 60),
            (4.0, 24_000, 1_200),
        ] {
            let scale = ScaleSpec::Custom {
                warmup_ms: 500,
                measure_ms,
            };
            let want = ScenarioSpec {
                scale,
                ..standalone.clone()
            };
            assert_eq!(standalone.scaled(factor).unwrap(), want, "F = {factor}");
            let mut want = ScenarioSpec {
                scale,
                ..production.clone()
            };
            if let TargetSpec::Fleet { slice_ms, .. } = &mut want.target {
                *slice_ms = slice;
            }
            assert_eq!(production.scaled(factor).unwrap(), want, "F = {factor}");
        }
        // A slice never shrinks below 1 ms.
        let short = ScenarioSpec::builder("short-slices")
            .fleet(2, 1, 10)
            .policy(Policy::Blind { buffer_cores: 8 })
            .scale(ScaleSpec::Bench)
            .build()
            .unwrap();
        let scaled = short.scaled(0.05).unwrap();
        assert!(
            matches!(scaled.target, TargetSpec::Fleet { slice_ms: 1, .. }),
            "{:?}",
            scaled.target
        );
        assert_eq!(
            scaled.fleet_config(1, 1).unwrap().slice,
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn run_lengths_past_the_clock_are_rejected() {
        // A window of exactly half the clock's range runs; one more
        // millisecond, or a sum that overflows, is a labelled error.
        let window = |warmup_ms, measure_ms| {
            ScenarioSpec::builder("x")
                .custom_scale(warmup_ms, measure_ms)
                .build()
        };
        let longest = window(0, MAX_RUN_MS).expect("half the clock runs");
        assert_eq!(
            longest.run_scale().measure,
            SimDuration::from_millis(MAX_RUN_MS)
        );
        for (warmup_ms, measure_ms) in [(1, MAX_RUN_MS), (500, u64::MAX), (u64::MAX, 1)] {
            let err = window(warmup_ms, measure_ms);
            assert!(
                matches!(err, Err(SpecError::InvalidScale(_))),
                "{warmup_ms} + {measure_ms} ms: {err:?}"
            );
        }
        let text = longest.to_json().replace(
            &format!("\"measure_ms\": {MAX_RUN_MS}"),
            &format!("\"measure_ms\": {}", u64::MAX),
        );
        assert!(text.contains(&u64::MAX.to_string()), "{text}");
        let err = ScenarioSpec::from_json(&text);
        assert!(matches!(err, Err(SpecError::InvalidScale(_))), "{err:?}");

        let fleet = |slice_ms| {
            ScenarioSpec::builder("f")
                .fleet(2, 1, slice_ms)
                .policy(Policy::Blind { buffer_cores: 8 })
                .build()
        };
        assert!(fleet(MAX_RUN_MS).is_ok());
        let err = fleet(MAX_RUN_MS + 1);
        assert!(matches!(err, Err(SpecError::InvalidScale(_))), "{err:?}");
    }

    #[test]
    fn poll_intervals_past_the_clock_are_rejected() {
        let knobs: [fn(&mut ControllerSpec, u64); 3] = [
            |c, us| c.cpu_poll_interval_us = Some(us),
            |c, us| c.io_poll_interval_us = Some(us),
            |c, us| c.memory_poll_interval_us = Some(us),
        ];
        for knob in knobs {
            let spec = |us| {
                ScenarioSpec::builder("x")
                    .policy(Policy::Blind { buffer_cores: 8 })
                    .tune(|c| knob(c, us))
                    .build()
            };
            let longest = spec(MAX_POLL_INTERVAL_US).expect("largest interval in range");
            assert!(longest.effective_perfiso().is_some());
            for us in [MAX_POLL_INTERVAL_US + 1, u64::MAX] {
                let err = spec(us);
                assert!(
                    matches!(err, Err(SpecError::InvalidController(_))),
                    "{us} us: {err:?}"
                );
            }
        }
    }

    #[test]
    fn memory_caps_whose_bytes_overflow_are_rejected() {
        let spec = |mb| {
            ScenarioSpec::builder("x")
                .policy(Policy::Blind { buffer_cores: 8 })
                .tune(|c| c.secondary_memory_limit_mb = Some(mb))
                .build()
        };
        let largest = spec(MAX_MIB).expect("largest cap in range");
        assert_eq!(
            largest.effective_perfiso().unwrap().secondary_memory_limit,
            Some(MAX_MIB << 20)
        );
        // 2^44 MiB would wrap to 0 bytes and 2^44 + 1 MiB to 1 MiB.
        for mb in [1 << 44, (1 << 44) + 1, u64::MAX] {
            let err = spec(mb);
            assert!(
                matches!(&err, Err(SpecError::InvalidController(m)) if m.contains("more bytes")),
                "{mb} MiB: {err:?}"
            );
        }
        let mbps = |mbps| {
            ScenarioSpec::builder("x")
                .policy(Policy::Blind { buffer_cores: 8 })
                .tune(|c| {
                    c.tenant_limits.push(TenantLimitSpec {
                        service: "hdfs-client".into(),
                        mbps: Some(mbps),
                        iops: None,
                    })
                })
                .build()
        };
        assert!(mbps(MAX_MIB).is_ok());
        let err = mbps(MAX_MIB + 1);
        assert!(
            matches!(err, Err(SpecError::InvalidController(_))),
            "{err:?}"
        );
    }

    #[test]
    fn fault_times_past_the_clock_are_rejected() {
        let crash = |at_ms| {
            let mut s = named("chaos-controller-crash").unwrap();
            s.fault.events[0] = FaultEvent::ControllerCrash {
                at_ms,
                downtime_polls: 5,
            };
            s
        };
        let latest = crash(MAX_RUN_MS);
        assert!(latest.validate().is_ok());
        assert!(latest.box_config(1).is_ok());
        for at_ms in [MAX_RUN_MS + 1, u64::MAX] {
            let err = crash(at_ms).validate();
            assert!(
                matches!(&err, Err(SpecError::InvalidFault(m)) if m.contains("at_ms")),
                "{at_ms} ms: {err:?}"
            );
            let text = crash(at_ms).to_json();
            assert!(matches!(
                ScenarioSpec::from_json(&text),
                Err(SpecError::InvalidFault(_))
            ));
        }
        // A rollout document's knobs pass through `apply` as well.
        let mut rollout = named("chaos-controller-crash").unwrap();
        rollout.fault.events.push(FaultEvent::ConfigRollout {
            at_ms: 150,
            key: "perfiso".into(),
            doc: ControllerSpec {
                secondary_memory_limit_mb: Some((1 << 44) + 1),
                ..Default::default()
            },
            staged_pct: 100,
            rollback_p99_ms: None,
        });
        let err = rollout.validate();
        assert!(
            matches!(&err, Err(SpecError::InvalidFault(m)) if m.starts_with("rollout doc")),
            "{err:?}"
        );
    }

    #[test]
    fn crash_downtime_floors_past_the_clock_are_rejected() {
        let crash = |cpu_poll_interval_us, downtime_polls| {
            let mut s = named("chaos-controller-crash").unwrap();
            s.controller.cpu_poll_interval_us = Some(cpu_poll_interval_us);
            s.fault.events[0] = FaultEvent::ControllerCrash {
                at_ms: 500,
                downtime_polls,
            };
            s
        };
        // 2 s × (2^32 - 1) polls fits the clock; 5 s × 4e9 overflows `u64`.
        let longest = crash(2_000_000, u32::MAX);
        assert!(longest.validate().is_ok());
        assert!(longest.box_config(1).is_ok());
        let err = crash(5_000_000, 4_000_000_000).validate();
        assert!(
            matches!(&err, Err(SpecError::InvalidFault(m)) if m.contains("downtime_polls")),
            "{err:?}"
        );
        // A rollout that lengthens the poll interval counts as well.
        let mut rolled = crash(5_000, 4_000_000_000);
        assert!(rolled.validate().is_ok());
        rolled.fault.events.push(FaultEvent::ConfigRollout {
            at_ms: 100,
            key: "perfiso".into(),
            doc: ControllerSpec {
                cpu_poll_interval_us: Some(5_000_000),
                ..Default::default()
            },
            staged_pct: 100,
            rollback_p99_ms: None,
        });
        let err = rolled.validate();
        assert!(
            matches!(&err, Err(SpecError::InvalidFault(m)) if m.contains("downtime_polls")),
            "{err:?}"
        );
    }

    #[test]
    fn scaled_rejects_explicit_run_lengths_and_bad_factors() {
        let standalone = named("standalone").unwrap();
        // Only a Bench run length rescales: Quick, Custom and an already
        // scaled spec are rejected.
        for spec in [
            ScenarioSpec::builder("quick").build().unwrap(),
            named("chaos-connection-flood").unwrap(),
            standalone.scaled(0.1).unwrap(),
        ] {
            let err = spec.scaled(0.1);
            assert!(
                matches!(err, Err(SpecError::InvalidScale(_))),
                "{}: {err:?}",
                spec.name
            );
        }
        for spec in [standalone, named("fleet-production").unwrap()] {
            for factor in [0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e12] {
                let err = spec.scaled(factor);
                assert!(
                    matches!(err, Err(SpecError::InvalidScale(_))),
                    "{} at F = {factor}: {err:?}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn policy_to_secondary_mapping() {
        let spec = ScenarioSpec::builder("standalone")
            .single_box(500.0)
            .policy(Policy::Standalone)
            .custom_scale(200, 400)
            .seed(1)
            .build()
            .unwrap();
        let report = run_spec(&spec, &RunOptions::serial()).unwrap();
        assert_eq!(
            report.box_reports()[0].secondary_cpu,
            SimDuration::ZERO,
            "standalone has no bully"
        );
    }

    #[test]
    fn figure_axes_rewrite_only_their_field() {
        let base = ScenarioSpec::builder("axes")
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .build()
            .unwrap();
        let axes = [
            SweepAxis::Qps(vec![1_000.0, 4_000.0]),
            SweepAxis::Policy(vec![Policy::NoIsolation, Policy::CycleCap(0.25)]),
            SweepAxis::Secondary(vec![
                SecondaryKind::cpu(BullyIntensity::Mid),
                SecondaryKind::disk(DiskBully::default()),
            ]),
        ];
        for axis in &axes {
            let swept = ScenarioSpec {
                sweep: Some(SweepSpec::one(axis.clone())),
                ..base.clone()
            };
            assert_eq!(ScenarioSpec::from_json(&swept.to_json()).unwrap(), swept);
            let cells = swept.expand_sweep().expect("every cell validates");
            assert_eq!(cells.len(), 2);
            for (i, cell) in cells.iter().enumerate() {
                let mut spec = cell.spec.clone();
                match axis {
                    SweepAxis::Qps(v) => {
                        assert_eq!(spec.target, TargetSpec::SingleBox { qps: v[i] });
                        spec.target = base.target.clone();
                    }
                    SweepAxis::Policy(v) => {
                        assert_eq!(spec.policy, v[i]);
                        spec.policy = base.policy;
                    }
                    SweepAxis::Secondary(v) => {
                        assert_eq!(spec.secondary, v[i]);
                        spec.secondary = base.secondary.clone();
                    }
                    _ => unreachable!(),
                }
                assert_eq!(spec, base, "[{}] rewrote another field", cell.label);
            }
        }
    }

    #[test]
    fn figure_axes_reject_invalid_cells_and_targets() {
        let err = ScenarioSpec::builder("x")
            .cpu_bully(BullyIntensity::High)
            .policy(Policy::Blind { buffer_cores: 8 })
            .sweep_axis(SweepAxis::Policy(vec![
                Policy::Blind { buffer_cores: 8 },
                Policy::Standalone,
            ]))
            .build();
        match err {
            Err(SpecError::InvalidSweep(msg)) => {
                assert!(msg.contains("cell [policy=standalone]"), "{msg:?}")
            }
            other => panic!("expected InvalidSweep, got {other:?}"),
        }
        let cluster = ScenarioSpec::builder("c").cluster(Topology::small(), 600.0);
        let fleet = ScenarioSpec::builder("f").fleet(2, 1, 100);
        for b in [cluster, fleet] {
            let err = b
                .policy(Policy::Blind { buffer_cores: 8 })
                .sweep_axis(SweepAxis::Qps(vec![1_000.0, 2_000.0]))
                .build();
            match err {
                Err(SpecError::InvalidSweep(msg)) => {
                    assert!(
                        msg.starts_with("qps axis needs a single-box target"),
                        "{msg:?}"
                    )
                }
                other => panic!("expected InvalidSweep, got {other:?}"),
            }
        }
    }

    #[test]
    fn fleet_requires_controller_and_clean_secondary() {
        let err = ScenarioSpec::builder("f")
            .fleet(2, 1, 100)
            .policy(Policy::NoIsolation)
            .build();
        assert!(matches!(err, Err(SpecError::FleetNeedsController)));
        let err = ScenarioSpec::builder("f")
            .fleet(2, 1, 100)
            .cpu_bully(BullyIntensity::Mid)
            .policy(Policy::Blind { buffer_cores: 8 })
            .build();
        assert!(matches!(err, Err(SpecError::FleetSecondaryUnsupported)));
    }
}
