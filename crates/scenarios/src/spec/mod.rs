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

use perfiso::{CpuPolicy, PerfIsoConfig};

use cluster::fleet::FleetConfig;
use cluster::{BoxShape, ClusterConfig, ClusterSim, Topology};
use indexserve::boxsim::RunPlan;
use indexserve::tags::MAX_SERVICES;
use indexserve::{BoxConfig, BoxSim, HostedSpec, SecondaryKind, ServiceConfig};
use std::sync::OnceLock;

use qtrace::{DiurnalCurve, OpenLoopClient, TraceConfig, TraceGenerator};
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use workloads::{BullyIntensity, DiskBully, MlTrainer};

use crate::Policy;

/// Paper-server core count, used by policy validation.
const PAPER_CORES: u32 = 48;

/// Paper-server physical memory in megabytes, used by roster validation.
const PAPER_MEMORY_MB: u64 = 128 * 1024;

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
    /// The measurement window is degenerate.
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

/// The cached `PERFISO_SCALE` multiplier.
static SCALE_MULTIPLIER: OnceLock<f64> = OnceLock::new();

/// The `PERFISO_SCALE` run-length multiplier, parsed once per process.
///
/// # Panics
///
/// Panics (once, with the offending value) when the variable is set but
/// is not a positive finite number — a silent fallback to 1.0 would make
/// a typo in an invocation indistinguishable from the default.
pub fn scale_multiplier() -> f64 {
    *SCALE_MULTIPLIER.get_or_init(|| match std::env::var("PERFISO_SCALE") {
        Err(_) => 1.0,
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(m) if m.is_finite() && m > 0.0 => m,
            _ => panic!(
                "invalid PERFISO_SCALE value {v:?}: expected a positive finite \
                 multiplier (e.g. 0.5 or 4)"
            ),
        },
    })
}

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
    /// Paper-figure windows: 500 ms warm-up, 6 s measured times the
    /// `PERFISO_SCALE` multiplier (see [`scale_multiplier`]; floored at
    /// 0.1 so a tiny multiplier cannot produce a degenerate window).
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
            ScaleSpec::Bench => (500, (6_000.0 * scale_multiplier().max(0.1)) as u64),
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

/// Latency-recording backend selection: the exact recorder keeps every
/// sample (bit-stable percentiles, the historical default), the sketch
/// recorder keeps log-spaced bucket counters with a guaranteed relative
/// error ([`telemetry::Sketch::RELATIVE_ERROR`]) and constant memory —
/// the only affordable choice at production fleet scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetrySpec {
    /// Keep every sample (exact percentiles).
    Exact,
    /// Mergeable log-bucketed percentile sketch (bounded memory).
    Sketch,
}

// The vendored serde_derive does not parse the `#[default]` variant
// attribute, so this cannot be `#[derive(Default)]`.
#[allow(clippy::derivable_impls)]
impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec::Exact
    }
}

impl TelemetrySpec {
    /// True for the default exact backend (serde skip predicate: the
    /// default is never serialized, keeping pre-sketch fixtures stable).
    pub fn is_exact(&self) -> bool {
        matches!(self, TelemetrySpec::Exact)
    }

    /// The concrete recorder mode.
    pub fn mode(&self) -> telemetry::TelemetryMode {
        match self {
            TelemetrySpec::Exact => telemetry::TelemetryMode::Exact,
            TelemetrySpec::Sketch => telemetry::TelemetryMode::Sketch,
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
        /// Extrapolated fleet size.
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
    /// empty timelines are not serialized, keeping old fixtures valid).
    #[serde(default, skip_serializing_if = "FaultSpec::is_empty")]
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
        if let ScaleSpec::Custom { measure_ms, .. } = self.scale {
            if measure_ms == 0 {
                return Err(SpecError::InvalidScale("measured window is zero".into()));
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
                        doc.apply(base)
                            .validate(PAPER_CORES)
                            .map_err(|e| SpecError::InvalidFault(format!("rollout doc: {e}")))?;
                    }
                    _ => {}
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
            if g.working_set_mb() + SECONDARY_RESERVE_MB > PAPER_MEMORY_MB {
                return Err(SpecError::InvalidWorkload(format!(
                    "graph working set {} MB leaves no room for secondaries on a \
                     {PAPER_MEMORY_MB} MB box",
                    g.working_set_mb()
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
                    total_mb += s.working_set_mb;
                }
                if total_mb + SECONDARY_RESERVE_MB > PAPER_MEMORY_MB {
                    return Err(SpecError::InvalidWorkload(format!(
                        "roster working sets total {total_mb} MB; with the secondary \
                         reserve that exceeds the {PAPER_MEMORY_MB} MB box"
                    )));
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

    /// The seeds a run covers: `seed..seed + repetitions`, optionally
    /// overriding the repetition count (the CLI's `--seeds`).
    pub fn seed_list(&self, override_seeds: Option<u32>) -> Vec<u64> {
        let n = override_seeds.unwrap_or(self.seeds).max(1);
        (0..n as u64).map(|i| self.seed.wrapping_add(i)).collect()
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
        cfg.telemetry = self.telemetry.mode();
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
        let total = plan.warmup + plan.measure;
        let n_queries = (plan.qps * total.as_secs_f64() * 1.05) as usize + 16;
        let trace = TraceGenerator::new(TraceConfig {
            queries: n_queries,
            ..plan.trace.clone()
        })
        .generate(seed ^ 0x7ACE);
        Ok(OpenLoopClient::new(trace, plan.qps, seed ^ 0xC1))
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
            telemetry: self.telemetry.mode(),
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
            fleet_machines,
            sampled_machines,
            minutes,
            slice_ms,
            curve,
            ref trainer,
            production,
        } = self.target
        else {
            return Err(SpecError::TargetMismatch {
                expected: "fleet",
                found: self.target.kind(),
            });
        };
        // `PERFISO_SCALE` shrinks (or stretches) bench-scale fleet slices
        // the same way it scales single-box bench windows, so the full
        // production day stays affordable in CI.
        let slice_ms = if self.scale == ScaleSpec::Bench {
            ((slice_ms as f64 * scale_multiplier()) as u64).max(1)
        } else {
            slice_ms
        };
        Ok(FleetConfig {
            fleet_machines,
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
            telemetry: self.telemetry.mode(),
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
            fleet_machines: defaults.fleet_machines,
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

    /// Sets the overload-resilience policy wholesale.
    pub fn resilience(mut self, r: ResilienceSpec) -> Self {
        self.spec.resilience = r;
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
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let spec = ScenarioSpec::builder("ok").build().unwrap();
        assert_eq!(spec.target.kind(), "single-box");
        assert_eq!(spec.seed_list(None), vec![42]);
        assert_eq!(spec.seed_list(Some(3)), vec![42, 43, 44]);
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
    fn scale_env_var_is_honoured() {
        // No env var in the test environment: default 6s.
        let s = ScaleSpec::Bench.to_scale();
        assert!(s.measure >= SimDuration::from_millis(500));
        // And the multiplier is cached: repeated calls agree bit-for-bit.
        assert_eq!(scale_multiplier().to_bits(), scale_multiplier().to_bits());
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
