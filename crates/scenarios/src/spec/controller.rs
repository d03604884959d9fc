//! Spec-expressible controller knobs and parameter sweeps.
//!
//! [`ControllerSpec`] makes every [`PerfIsoConfig`] knob — the poll
//! intervals, buffer-core count, memory watermarks, and per-tenant I/O
//! limits — declarative: a spec carries *overrides* that
//! are applied on top of whatever base configuration its
//! [`Policy`](crate::Policy) produces, so `"policy": "FullPerfIso"` plus
//! `"cpu_poll_interval_us": 5000` means "the production controller, but
//! polling at 5 ms". Overrides validate through
//! [`PerfIsoConfig::validate`] at spec-validation time, so a bad knob is a
//! [`SpecError`](super::SpecError) long before a simulator is built.
//!
//! [`SweepSpec`] turns one scenario into a grid: each [`SweepAxis`] names
//! a knob (a controller override, the fault downtime, or the load,
//! policy or secondary mix a paper figure varies) and the values to try,
//! and the cross product expands into one cell per combination (first
//! axis slowest, row-major), each cell being a full [`ScenarioSpec`] with
//! the corresponding values written in. `run --sweep` in `perfiso-run`
//! executes every cell over every seed and emits per-cell reports plus a
//! cross-cell summary table.

use indexserve::SecondaryKind;
use perfiso::{CpuPolicy, IoLimit, PerfIsoConfig, TenantLimitConfig};
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use workloads::BullyIntensity;

use super::{FaultEvent, ScenarioSpec, TargetSpec};
use crate::Policy;

/// Grid-size cap: a sweep larger than this is almost certainly a typo
/// (e.g. a microseconds value in a milliseconds axis).
pub const MAX_SWEEP_CELLS: usize = 1_024;

/// The longest controller poll interval, in microseconds, whose
/// nanoseconds fit the simulated clock.
pub(super) const MAX_POLL_INTERVAL_US: u64 = u64::MAX / 1_000;

/// The largest size in MiB (a memory cap, or a bandwidth cap in MB/s)
/// whose byte count fits a `u64`.
pub(super) const MAX_MIB: u64 = u64::MAX >> 20;

/// A static I/O limit override for one named secondary tenant.
///
/// Setting neither cap *removes* the base configuration's limit for this
/// service (an explicit "uncap hdfs-client" cell in a sweep).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantLimitSpec {
    /// Service name as registered with Autopilot ("hdfs-client", ...).
    pub service: String,
    /// Bandwidth cap in MB/s (`None` = no bandwidth cap).
    pub mbps: Option<u64>,
    /// Operations cap in IOPS (`None` = no IOPS cap).
    pub iops: Option<u64>,
}

impl TenantLimitSpec {
    /// The concrete limit, or `None` when this entry removes the limit.
    pub fn to_limit(&self) -> Option<IoLimit> {
        if self.mbps.is_none() && self.iops.is_none() {
            return None;
        }
        Some(IoLimit {
            bytes_per_sec: self.mbps.map(|m| m << 20),
            iops: self.iops,
        })
    }
}

/// Declarative overrides over the policy's base [`PerfIsoConfig`].
///
/// Every field is optional; `ControllerSpec::default()` changes nothing.
/// Overrides are applied by [`ControllerSpec::apply`] and validated (via
/// [`PerfIsoConfig::validate`]) by
/// [`ScenarioSpec::validate`](super::ScenarioSpec::validate).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerSpec {
    /// Buffer-core count for blind isolation (§4.1; requires a policy
    /// whose CPU mechanism is [`CpuPolicy::Blind`]).
    pub buffer_cores: Option<u32>,
    /// CPU poll interval (the 1 ms tight loop, §4.1), in microseconds.
    pub cpu_poll_interval_us: Option<u64>,
    /// I/O controller period (DWRR evaluation), in microseconds.
    pub io_poll_interval_us: Option<u64>,
    /// Memory watchdog period, in microseconds.
    pub memory_poll_interval_us: Option<u64>,
    /// Secondary memory footprint cap, in MiB.
    pub secondary_memory_limit_mb: Option<u64>,
    /// Kill secondaries when machine memory use exceeds this fraction of
    /// total, in `(0, 1]`.
    pub memory_kill_watermark: Option<f64>,
    /// Per-tenant static I/O limit overrides, matched by service name
    /// against the base configuration (replace or append; an empty limit
    /// removes the base entry).
    pub tenant_limits: Vec<TenantLimitSpec>,
}

impl ControllerSpec {
    /// True when no knob is overridden (the spec runs the policy's base
    /// configuration untouched).
    pub fn is_default(&self) -> bool {
        *self == ControllerSpec::default()
    }

    /// Rejects an override whose unit conversion in
    /// [`ControllerSpec::apply`] would overflow: a poll interval whose
    /// nanoseconds run past the simulated clock, or a memory or bandwidth
    /// cap whose bytes do not fit a `u64`.
    pub(super) fn check_ranges(&self) -> Result<(), String> {
        for (knob, us) in [
            ("cpu_poll_interval_us", self.cpu_poll_interval_us),
            ("io_poll_interval_us", self.io_poll_interval_us),
            ("memory_poll_interval_us", self.memory_poll_interval_us),
        ] {
            if let Some(us) = us.filter(|&us| us > MAX_POLL_INTERVAL_US) {
                return Err(format!(
                    "{knob} {us} runs past the simulated clock's range \
                     (at most {MAX_POLL_INTERVAL_US} us)"
                ));
            }
        }
        if let Some(mb) = self.secondary_memory_limit_mb.filter(|&mb| mb > MAX_MIB) {
            return Err(format!(
                "secondary_memory_limit_mb {mb} has more bytes than a u64 holds \
                 (at most {MAX_MIB} MiB)"
            ));
        }
        for t in &self.tenant_limits {
            if let Some(mbps) = t.mbps.filter(|&mbps| mbps > MAX_MIB) {
                return Err(format!(
                    "{:?} limit of {mbps} MB/s has more bytes than a u64 holds \
                     (at most {MAX_MIB} MB/s)",
                    t.service
                ));
            }
        }
        Ok(())
    }

    /// The base configuration with every override applied.
    pub fn apply(&self, base: &PerfIsoConfig) -> PerfIsoConfig {
        let mut cfg = base.clone();
        if let Some(b) = self.buffer_cores {
            if matches!(cfg.cpu, CpuPolicy::Blind { .. }) {
                cfg.cpu = CpuPolicy::Blind { buffer_cores: b };
            }
        }
        if let Some(us) = self.cpu_poll_interval_us {
            cfg.cpu_poll_interval = SimDuration::from_micros(us);
        }
        if let Some(us) = self.io_poll_interval_us {
            cfg.io_poll_interval = SimDuration::from_micros(us);
        }
        if let Some(us) = self.memory_poll_interval_us {
            cfg.memory_poll_interval = SimDuration::from_micros(us);
        }
        if let Some(mb) = self.secondary_memory_limit_mb {
            cfg.secondary_memory_limit = Some(mb << 20);
        }
        if let Some(w) = self.memory_kill_watermark {
            cfg.memory_kill_watermark = w;
        }
        for t in &self.tenant_limits {
            cfg.tenant_limits.retain(|e| e.service != t.service);
            if let Some(limit) = t.to_limit() {
                cfg.tenant_limits.push(TenantLimitConfig {
                    service: t.service.clone(),
                    limit,
                });
            }
        }
        cfg
    }

    /// The overridden knobs as `(key, value)` pairs, for labels and the
    /// `show` grid.
    pub fn overrides(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut push = |k: &str, v: Option<String>| {
            if let Some(v) = v {
                out.push((k.to_string(), v));
            }
        };
        push("buffer_cores", self.buffer_cores.map(|v| v.to_string()));
        push(
            "cpu_poll_us",
            self.cpu_poll_interval_us.map(|v| v.to_string()),
        );
        push(
            "io_poll_us",
            self.io_poll_interval_us.map(|v| v.to_string()),
        );
        push(
            "mem_poll_us",
            self.memory_poll_interval_us.map(|v| v.to_string()),
        );
        push(
            "secondary_mem_mb",
            self.secondary_memory_limit_mb.map(|v| v.to_string()),
        );
        push(
            "kill_watermark",
            self.memory_kill_watermark.map(|v| v.to_string()),
        );
        for t in &self.tenant_limits {
            let v = match (t.mbps, t.iops) {
                (None, None) => "uncapped".to_string(),
                (Some(m), None) => format!("{m}MB/s"),
                (None, Some(i)) => format!("{i}iops"),
                (Some(m), Some(i)) => format!("{m}MB/s+{i}iops"),
            };
            out.push((format!("io[{}]", t.service), v));
        }
        out
    }
}

/// One sweep dimension: a spec field and the values to try.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Buffer-core counts for blind isolation.
    BufferCores(Vec<u32>),
    /// CPU poll intervals, in microseconds.
    CpuPollIntervalUs(Vec<u64>),
    /// I/O controller periods, in microseconds.
    IoPollIntervalUs(Vec<u64>),
    /// Memory watchdog periods, in microseconds.
    MemoryPollIntervalUs(Vec<u64>),
    /// Secondary memory caps, in MiB.
    SecondaryMemoryLimitMb(Vec<u64>),
    /// Memory kill watermarks, in `(0, 1]`.
    MemoryKillWatermark(Vec<f64>),
    /// Bandwidth caps for one named tenant, in MB/s.
    TenantIoMbps {
        /// Service name matched against the base tenant limits.
        service: String,
        /// Bandwidth caps to try.
        mbps: Vec<u64>,
    },
    /// Controller-crash downtimes, in CPU-poll periods: each cell rewrites
    /// the `downtime_polls` of every `ControllerCrash` event in the
    /// scenario's fault timeline.
    FaultDowntimePolls(Vec<u32>),
    /// Offered loads in queries/second (single-box targets only).
    Qps(Vec<f64>),
    /// Isolation policies, replacing the scenario's policy.
    Policy(Vec<Policy>),
    /// Secondary tenant mixes, replacing the scenario's secondary.
    Secondary(Vec<SecondaryKind>),
}

impl SweepAxis {
    /// The axis key used in cell labels and tables.
    pub fn key(&self) -> String {
        match self {
            SweepAxis::BufferCores(_) => "buffer_cores".into(),
            SweepAxis::CpuPollIntervalUs(_) => "cpu_poll_us".into(),
            SweepAxis::IoPollIntervalUs(_) => "io_poll_us".into(),
            SweepAxis::MemoryPollIntervalUs(_) => "mem_poll_us".into(),
            SweepAxis::SecondaryMemoryLimitMb(_) => "secondary_mem_mb".into(),
            SweepAxis::MemoryKillWatermark(_) => "kill_watermark".into(),
            SweepAxis::TenantIoMbps { service, .. } => format!("io_mbps[{service}]"),
            SweepAxis::FaultDowntimePolls(_) => "fault_downtime_polls".into(),
            SweepAxis::Qps(_) => "qps".into(),
            SweepAxis::Policy(_) => "policy".into(),
            SweepAxis::Secondary(_) => "secondary".into(),
        }
    }

    /// Number of values along this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::BufferCores(v) | SweepAxis::FaultDowntimePolls(v) => v.len(),
            SweepAxis::CpuPollIntervalUs(v)
            | SweepAxis::IoPollIntervalUs(v)
            | SweepAxis::MemoryPollIntervalUs(v)
            | SweepAxis::SecondaryMemoryLimitMb(v) => v.len(),
            SweepAxis::MemoryKillWatermark(v) | SweepAxis::Qps(v) => v.len(),
            SweepAxis::TenantIoMbps { mbps, .. } => mbps.len(),
            SweepAxis::Policy(v) => v.len(),
            SweepAxis::Secondary(v) => v.len(),
        }
    }

    /// True when the axis has no values (rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value rendered for labels.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn value_label(&self, i: usize) -> String {
        match self {
            SweepAxis::BufferCores(v) | SweepAxis::FaultDowntimePolls(v) => v[i].to_string(),
            SweepAxis::CpuPollIntervalUs(v)
            | SweepAxis::IoPollIntervalUs(v)
            | SweepAxis::MemoryPollIntervalUs(v)
            | SweepAxis::SecondaryMemoryLimitMb(v) => v[i].to_string(),
            SweepAxis::MemoryKillWatermark(v) | SweepAxis::Qps(v) => format!("{}", v[i]),
            SweepAxis::TenantIoMbps { mbps, .. } => mbps[i].to_string(),
            SweepAxis::Policy(v) => v[i].label(),
            SweepAxis::Secondary(v) => secondary_label(&v[i]),
        }
    }

    /// Writes the `i`-th value into the field of `spec` this axis sweeps.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn apply(&self, i: usize, spec: &mut ScenarioSpec) {
        let ctl = &mut spec.controller;
        match self {
            SweepAxis::BufferCores(v) => ctl.buffer_cores = Some(v[i]),
            SweepAxis::CpuPollIntervalUs(v) => ctl.cpu_poll_interval_us = Some(v[i]),
            SweepAxis::IoPollIntervalUs(v) => ctl.io_poll_interval_us = Some(v[i]),
            SweepAxis::MemoryPollIntervalUs(v) => ctl.memory_poll_interval_us = Some(v[i]),
            SweepAxis::SecondaryMemoryLimitMb(v) => ctl.secondary_memory_limit_mb = Some(v[i]),
            SweepAxis::MemoryKillWatermark(v) => ctl.memory_kill_watermark = Some(v[i]),
            SweepAxis::TenantIoMbps { service, mbps } => {
                ctl.tenant_limits.retain(|t| &t.service != service);
                ctl.tenant_limits.push(TenantLimitSpec {
                    service: service.clone(),
                    mbps: Some(mbps[i]),
                    iops: None,
                });
            }
            SweepAxis::FaultDowntimePolls(v) => {
                for ev in &mut spec.fault.events {
                    if let FaultEvent::ControllerCrash { downtime_polls, .. } = ev {
                        *downtime_polls = v[i];
                    }
                }
            }
            // `ScenarioSpec::validate` rejects this axis on other targets.
            SweepAxis::Qps(v) => {
                if let TargetSpec::SingleBox { qps } = &mut spec.target {
                    *qps = v[i];
                }
            }
            SweepAxis::Policy(v) => spec.policy = v[i],
            SweepAxis::Secondary(v) => spec.secondary = v[i].clone(),
        }
    }
}

/// A short label for a secondary mix, e.g. `cpu-high+hdfs`.
fn secondary_label(s: &SecondaryKind) -> String {
    let mut parts = Vec::new();
    match s.cpu_bully {
        Some(BullyIntensity::Mid) => parts.push("cpu-mid".to_string()),
        Some(BullyIntensity::High) => parts.push("cpu-high".to_string()),
        Some(BullyIntensity::Custom(n)) => parts.push(format!("cpu-{n}")),
        None => {}
    }
    if let Some(d) = &s.disk_bully {
        parts.push(format!("disk-q{}", d.depth));
    }
    if s.hdfs {
        parts.push("hdfs".to_string());
    }
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join("+")
    }
}

/// A parameter grid over spec fields.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The sweep dimensions; the grid is their cross product.
    pub axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// A single-axis sweep.
    pub fn one(axis: SweepAxis) -> Self {
        SweepSpec { axes: vec![axis] }
    }

    /// Total number of grid cells (product of axis lengths).
    pub fn cell_count(&self) -> usize {
        self.axes
            .iter()
            .map(SweepAxis::len)
            .fold(1usize, |a, b| a.saturating_mul(b))
    }

    /// Structural checks that do not need the surrounding spec: non-empty
    /// axes with distinct keys and a bounded grid. Per-cell knob validity
    /// is checked by [`ScenarioSpec::validate`](super::ScenarioSpec) on
    /// every expanded cell.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.axes.is_empty() {
            return Err("a sweep needs at least one axis".into());
        }
        for axis in &self.axes {
            if axis.is_empty() {
                return Err(format!("axis {} has no values", axis.key()));
            }
            if let SweepAxis::TenantIoMbps { service, .. } = axis {
                if service.is_empty() {
                    return Err("tenant I/O axis needs a service name".into());
                }
            }
        }
        let keys: std::collections::HashSet<String> =
            self.axes.iter().map(SweepAxis::key).collect();
        if keys.len() != self.axes.len() {
            return Err("sweep axes must target distinct knobs".into());
        }
        let cells = self.cell_count();
        if cells > MAX_SWEEP_CELLS {
            return Err(format!(
                "sweep expands to {cells} cells (max {MAX_SWEEP_CELLS})"
            ));
        }
        Ok(())
    }

    /// Expands the grid over `base` in row-major order (first axis
    /// slowest). Each cell is `base` with the axis values written in (see
    /// [`SweepAxis::apply`]) and the sweep itself removed; callers validate
    /// the cells.
    pub fn expand(&self, base: &ScenarioSpec) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.cell_count());
        let mut idx = vec![0usize; self.axes.len()];
        loop {
            let mut spec = base.clone();
            spec.sweep = None;
            let mut params = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(idx.iter()) {
                axis.apply(i, &mut spec);
                params.push((axis.key(), axis.value_label(i)));
            }
            let label = params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            cells.push(SweepCell {
                label,
                params,
                spec,
            });
            // Odometer increment, last axis fastest.
            let mut pos = self.axes.len();
            loop {
                if pos == 0 {
                    return cells;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < self.axes[pos].len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }
}

/// One expanded grid cell: a runnable spec plus its axis coordinates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Human-readable cell coordinates, `"key=value key=value"`.
    pub label: String,
    /// The axis coordinates as `(key, value)` pairs.
    pub params: Vec<(String, String)>,
    /// The fully-merged, sweep-free spec for this cell.
    pub spec: ScenarioSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_controller_changes_nothing() {
        let base = PerfIsoConfig::paper_cluster();
        let ctl = ControllerSpec::default();
        assert!(ctl.is_default());
        let applied = ctl.apply(&base);
        assert_eq!(applied.cpu, base.cpu);
        assert_eq!(applied.cpu_poll_interval, base.cpu_poll_interval);
        assert_eq!(applied.tenant_limits, base.tenant_limits);
        assert!(ctl.overrides().is_empty());
    }

    #[test]
    fn overrides_apply_on_top_of_base() {
        let ctl = ControllerSpec {
            buffer_cores: Some(4),
            cpu_poll_interval_us: Some(5_000),
            memory_kill_watermark: Some(0.8),
            secondary_memory_limit_mb: Some(2_048),
            tenant_limits: vec![
                TenantLimitSpec {
                    service: "hdfs-client".into(),
                    mbps: Some(10),
                    iops: None,
                },
                TenantLimitSpec {
                    service: "hdfs-replication".into(),
                    mbps: None,
                    iops: None,
                },
            ],
            ..Default::default()
        };
        let cfg = ctl.apply(&PerfIsoConfig::paper_cluster());
        assert_eq!(cfg.cpu, CpuPolicy::Blind { buffer_cores: 4 });
        assert_eq!(cfg.cpu_poll_interval, SimDuration::from_micros(5_000));
        assert_eq!(cfg.memory_kill_watermark, 0.8);
        assert_eq!(cfg.secondary_memory_limit, Some(2_048 << 20));
        // hdfs-client replaced, hdfs-replication removed.
        assert_eq!(cfg.tenant_limits.len(), 1);
        assert_eq!(cfg.tenant_limits[0].service, "hdfs-client");
        assert_eq!(cfg.tenant_limits[0].limit.bytes_per_sec, Some(10 << 20));
        assert!(cfg.validate(48).is_ok());
    }

    #[test]
    fn buffer_cores_override_leaves_non_blind_policies_alone() {
        let base = PerfIsoConfig {
            cpu: CpuPolicy::StaticCores(8),
            ..PerfIsoConfig::default()
        };
        let ctl = ControllerSpec {
            buffer_cores: Some(4),
            ..Default::default()
        };
        assert_eq!(ctl.apply(&base).cpu, CpuPolicy::StaticCores(8));
    }

    #[test]
    fn sweep_expands_row_major() {
        let sweep = SweepSpec {
            axes: vec![
                SweepAxis::CpuPollIntervalUs(vec![1_000, 5_000]),
                SweepAxis::BufferCores(vec![2, 4, 8]),
            ],
        };
        assert_eq!(sweep.cell_count(), 6);
        sweep.check_shape().unwrap();
        let base = ScenarioSpec::builder("sweep-test")
            .cpu_bully(workloads::BullyIntensity::Mid)
            .policy(crate::Policy::Blind { buffer_cores: 8 })
            .build()
            .unwrap();
        let cells = sweep.expand(&base);
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].label, "cpu_poll_us=1000 buffer_cores=2");
        assert_eq!(cells[2].label, "cpu_poll_us=1000 buffer_cores=8");
        assert_eq!(cells[3].label, "cpu_poll_us=5000 buffer_cores=2");
        for cell in &cells {
            assert!(cell.spec.sweep.is_none());
            cell.spec.validate().expect("cells validate");
        }
        assert_eq!(cells[5].spec.controller.buffer_cores, Some(8));
        assert_eq!(cells[5].spec.controller.cpu_poll_interval_us, Some(5_000));
    }

    #[test]
    fn shape_checks_reject_degenerate_sweeps() {
        assert!(SweepSpec { axes: vec![] }.check_shape().is_err());
        assert!(SweepSpec::one(SweepAxis::BufferCores(vec![]))
            .check_shape()
            .is_err());
        assert!(SweepSpec {
            axes: vec![
                SweepAxis::BufferCores(vec![1]),
                SweepAxis::BufferCores(vec![2]),
            ],
        }
        .check_shape()
        .is_err());
        assert!(SweepSpec::one(SweepAxis::TenantIoMbps {
            service: String::new(),
            mbps: vec![10],
        })
        .check_shape()
        .is_err());
        let huge = SweepSpec {
            axes: vec![
                SweepAxis::CpuPollIntervalUs((0..64).map(|i| 1_000 + i).collect()),
                SweepAxis::IoPollIntervalUs((0..64).map(|i| 1_000 + i).collect()),
            ],
        };
        assert!(huge.check_shape().is_err());
    }
}
