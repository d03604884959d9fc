//! PerfIso configuration.
//!
//! In production these values arrive as cluster-wide configuration files
//! through Autopilot and may be altered at runtime by command (§4); the
//! struct is fully serde-serialisable for exactly that path.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;

use crate::system::IoLimit;

/// Which CPU isolation mechanism to run.
///
/// `Blind` is PerfIso's contribution; the others are the alternatives the
/// paper evaluates (§6.1.4) and production OSes ship.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CpuPolicy {
    /// No CPU isolation at all (the paper's "No isolation" baseline).
    NoIsolation,
    /// Statically restrict the secondary to the given number of cores.
    StaticCores(u32),
    /// Statically cap the secondary's CPU cycles at this fraction of total
    /// machine CPU, in `(0, 1]`.
    CycleCap(f64),
    /// CPU blind isolation with the given buffer-core count.
    Blind {
        /// Idle cores reserved for primary bursts.
        buffer_cores: u32,
    },
}

impl CpuPolicy {
    /// The paper's recommended production setting for IndexServe-class
    /// machines: 8 buffer logical cores (§4.1, §6.1.3).
    pub fn paper_default() -> Self {
        CpuPolicy::Blind { buffer_cores: 8 }
    }
}

/// A static I/O limit for one named secondary tenant.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantLimitConfig {
    /// Service name as registered with Autopilot ("hdfs-datanode", ...).
    pub service: String,
    /// The static limit.
    pub limit: IoLimit,
}

/// Full controller configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfIsoConfig {
    /// The CPU isolation policy.
    pub cpu: CpuPolicy,
    /// CPU poll interval (the tight loop, §4.1). 1 ms by default.
    pub cpu_poll_interval: SimDuration,
    /// I/O controller period (DWRR demand/deficit evaluation).
    pub io_poll_interval: SimDuration,
    /// Memory watchdog period.
    pub memory_poll_interval: SimDuration,
    /// Secondary memory cap in bytes (`None` = uncapped): the memory
    /// watchdog kills the secondary's processes once they use more.
    pub secondary_memory_limit: Option<u64>,
    /// Kill secondaries when machine memory use exceeds this fraction.
    pub memory_kill_watermark: f64,
    /// Static I/O limits per secondary service (e.g. HDFS replication at
    /// 20 MB/s and HDFS clients at 60 MB/s, §5.3).
    pub tenant_limits: Vec<TenantLimitConfig>,
}

impl Default for PerfIsoConfig {
    fn default() -> Self {
        PerfIsoConfig {
            cpu: CpuPolicy::paper_default(),
            cpu_poll_interval: SimDuration::from_millis(1),
            io_poll_interval: SimDuration::from_millis(100),
            memory_poll_interval: SimDuration::from_secs(1),
            secondary_memory_limit: None,
            memory_kill_watermark: 0.95,
            tenant_limits: Vec::new(),
        }
    }
}

impl PerfIsoConfig {
    /// The cluster-experiment configuration from §5.3: HDFS replication
    /// capped at 20 MB/s and HDFS clients at 60 MB/s.
    pub fn paper_cluster() -> Self {
        PerfIsoConfig {
            tenant_limits: vec![
                TenantLimitConfig {
                    service: "hdfs-replication".into(),
                    limit: IoLimit {
                        bytes_per_sec: Some(20 << 20),
                        iops: None,
                    },
                },
                TenantLimitConfig {
                    service: "hdfs-client".into(),
                    limit: IoLimit {
                        bytes_per_sec: Some(60 << 20),
                        iops: None,
                    },
                },
            ],
            ..PerfIsoConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, total_cores: u32) -> Result<(), String> {
        match self.cpu {
            CpuPolicy::Blind { buffer_cores }
                if buffer_cores == 0 || buffer_cores >= total_cores =>
            {
                return Err(format!(
                    "blind isolation needs 1..{total_cores} buffer cores, got {buffer_cores}"
                ));
            }
            CpuPolicy::StaticCores(n) if n > total_cores => {
                return Err(format!("static core count {n} exceeds {total_cores}"));
            }
            CpuPolicy::CycleCap(f) if !(0.0..=1.0).contains(&f) || f == 0.0 => {
                return Err(format!("cycle cap {f} must be in (0, 1]"));
            }
            _ => {}
        }
        if self.cpu_poll_interval.is_zero() {
            return Err("cpu_poll_interval must be positive".into());
        }
        if self.io_poll_interval.is_zero() {
            return Err("io_poll_interval must be positive".into());
        }
        if self.memory_poll_interval.is_zero() {
            return Err("memory_poll_interval must be positive".into());
        }
        if !(self.memory_kill_watermark > 0.0 && self.memory_kill_watermark <= 1.0) {
            return Err(format!(
                "memory_kill_watermark {} must be in (0, 1]",
                self.memory_kill_watermark
            ));
        }
        if self.secondary_memory_limit == Some(0) {
            return Err(
                "secondary_memory_limit of zero bytes kills every secondary; \
                        use the kill watermark instead"
                    .into(),
            );
        }
        for t in &self.tenant_limits {
            if t.service.is_empty() {
                return Err("tenant_limits entries need a service name".into());
            }
            if t.limit.bytes_per_sec.is_none() && t.limit.iops.is_none() {
                return Err(format!(
                    "tenant limit for {:?} caps neither bytes/s nor IOPS",
                    t.service
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PerfIsoConfig::default();
        assert_eq!(c.cpu, CpuPolicy::Blind { buffer_cores: 8 });
        assert!(c.validate(48).is_ok());
    }

    #[test]
    fn cluster_config_has_hdfs_limits() {
        let c = PerfIsoConfig::paper_cluster();
        assert_eq!(c.tenant_limits.len(), 2);
        assert_eq!(c.tenant_limits[0].limit.bytes_per_sec, Some(20 << 20));
        assert_eq!(c.tenant_limits[1].limit.bytes_per_sec, Some(60 << 20));
    }

    #[test]
    fn validation_rejects_bad_policies() {
        let mut c = PerfIsoConfig {
            cpu: CpuPolicy::Blind { buffer_cores: 48 },
            ..Default::default()
        };
        assert!(c.validate(48).is_err());
        c.cpu = CpuPolicy::StaticCores(64);
        assert!(c.validate(48).is_err());
        c.cpu = CpuPolicy::CycleCap(0.0);
        assert!(c.validate(48).is_err());
        c.cpu = CpuPolicy::CycleCap(1.5);
        assert!(c.validate(48).is_err());
        c.cpu = CpuPolicy::CycleCap(0.05);
        assert!(c.validate(48).is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_knobs() {
        let base = PerfIsoConfig::default;
        for bad in [
            PerfIsoConfig {
                cpu: CpuPolicy::Blind { buffer_cores: 0 },
                ..base()
            },
            PerfIsoConfig {
                cpu_poll_interval: SimDuration::ZERO,
                ..base()
            },
            PerfIsoConfig {
                io_poll_interval: SimDuration::ZERO,
                ..base()
            },
            PerfIsoConfig {
                memory_poll_interval: SimDuration::ZERO,
                ..base()
            },
            PerfIsoConfig {
                memory_kill_watermark: 0.0,
                ..base()
            },
            PerfIsoConfig {
                memory_kill_watermark: 1.5,
                ..base()
            },
            PerfIsoConfig {
                secondary_memory_limit: Some(0),
                ..base()
            },
            PerfIsoConfig {
                tenant_limits: vec![TenantLimitConfig {
                    service: String::new(),
                    limit: IoLimit {
                        bytes_per_sec: Some(1),
                        iops: None,
                    },
                }],
                ..base()
            },
            PerfIsoConfig {
                tenant_limits: vec![TenantLimitConfig {
                    service: "hdfs-client".into(),
                    limit: IoLimit::default(),
                }],
                ..base()
            },
        ] {
            assert!(bad.validate(48).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn serde_roundtrip() {
        let c = PerfIsoConfig::paper_cluster();
        let json = serde_json::to_string(&c).unwrap();
        let back: PerfIsoConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cpu, c.cpu);
        assert_eq!(back.tenant_limits, c.tenant_limits);
    }
}
