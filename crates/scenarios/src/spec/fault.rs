//! Spec-expressible fault injection (chaos scenarios).
//!
//! [`FaultSpec`] makes the paper's §4.2 operational story declarative: a
//! scenario carries a timeline of [`FaultEvent`]s — controller crashes,
//! secondary/box restarts, staged config rollouts — plus the Autopilot
//! [`RestartSpec`] governing crash backoff. The spec layer validates the
//! timeline against the scenario (a controller crash needs a policy that
//! runs a controller; a secondary restart needs a secondary) and compiles
//! it into the runtime [`FaultPlan`](indexserve::FaultPlan) the simulators
//! execute. Everything round-trips through JSON like the rest of the spec
//! API, and fault knobs are sweepable via
//! [`SweepAxis::FaultDowntimePolls`](super::SweepAxis).

use autopilot::RestartPolicy;
use indexserve::{FaultPlan, PlannedFault, PlannedFaultKind};
use perfiso::PerfIsoConfig;
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

use super::{ControllerSpec, MAX_RUN_MS};

/// One declarative fault on the scenario timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Kill the PerfIso controller at `at_ms`; the box degrades to the
    /// no-isolation regime until Autopilot restarts it from checkpoint.
    ControllerCrash {
        /// Fire time in simulation milliseconds.
        at_ms: u64,
        /// Minimum downtime in controller CPU-poll periods (the actual
        /// downtime is the max of this and the restart backoff).
        downtime_polls: u32,
    },
    /// Kill and respawn the secondary workload.
    SecondaryRestart {
        /// Fire time in simulation milliseconds.
        at_ms: u64,
        /// Minimum downtime in milliseconds.
        downtime_ms: u64,
    },
    /// Restart the IndexServe process: in-flight queries fail, arrivals
    /// are refused until it is back.
    BoxRestart {
        /// Fire time in simulation milliseconds.
        at_ms: u64,
        /// Minimum downtime in milliseconds.
        downtime_ms: u64,
    },
    /// Publish a controller configuration document; controllers pick it up
    /// at their next poll, staged across the fleet.
    ConfigRollout {
        /// Fire time in simulation milliseconds.
        at_ms: u64,
        /// Config-store document key.
        key: String,
        /// Overrides applied on top of the scenario's effective controller
        /// configuration to produce the rolled-out document.
        doc: ControllerSpec,
        /// Percentage of the fleet (leading boxes) that applies the
        /// rollout, in `1..=100`. Single boxes always apply it.
        staged_pct: u8,
        /// Automatic rollback: revert when the post-rollout P99 exceeds
        /// this threshold (milliseconds).
        rollback_p99_ms: Option<u64>,
    },
    /// A rapid service-lifecycle churn storm: `cycles` kill-and-respawn
    /// rounds of the secondary, `period_ms` apart, starting at `at_ms`.
    ChurnStorm {
        /// Storm start in simulation milliseconds.
        at_ms: u64,
        /// Number of churn cycles.
        cycles: u32,
        /// Spacing between cycle starts in milliseconds.
        period_ms: u64,
        /// Minimum downtime per cycle in milliseconds.
        downtime_ms: u64,
    },
    /// An arrival-rate flood: for `duration_ms` the box injects
    /// `extra_qps` extra synthetic arrivals per second on top of the
    /// external load, for admission control to absorb.
    ConnectionFlood {
        /// Fire time in simulation milliseconds.
        at_ms: u64,
        /// Flood duration in milliseconds.
        duration_ms: u64,
        /// Additional arrivals per second while flooding.
        extra_qps: u32,
    },
    /// An I/O tenant exhausting its quota: for `duration_ms` the tenant's
    /// operations are inflated by `multiplier`, driving it into its IOPS
    /// cap under the scenario's per-tenant limits.
    QuotaExhaustion {
        /// Fire time in simulation milliseconds.
        at_ms: u64,
        /// Episode duration in milliseconds.
        duration_ms: u64,
        /// The I/O tenant (`disk-bully`, `hdfs-replication`, or
        /// `hdfs-client`).
        tenant: String,
        /// Byte-size inflation applied while the episode lasts (> 1).
        multiplier: f64,
    },
}

impl FaultEvent {
    /// Fire time in simulation milliseconds.
    pub fn at_ms(&self) -> u64 {
        match self {
            FaultEvent::ControllerCrash { at_ms, .. }
            | FaultEvent::SecondaryRestart { at_ms, .. }
            | FaultEvent::BoxRestart { at_ms, .. }
            | FaultEvent::ConfigRollout { at_ms, .. }
            | FaultEvent::ChurnStorm { at_ms, .. }
            | FaultEvent::ConnectionFlood { at_ms, .. }
            | FaultEvent::QuotaExhaustion { at_ms, .. } => *at_ms,
        }
    }

    /// Short kind tag, matching [`FaultRecord::kind`](indexserve::FaultRecord).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultEvent::ControllerCrash { .. } => "controller-crash",
            FaultEvent::SecondaryRestart { .. } => "secondary-restart",
            FaultEvent::BoxRestart { .. } => "box-restart",
            FaultEvent::ConfigRollout { .. } => "config-rollout",
            FaultEvent::ChurnStorm { .. } => "churn-storm",
            FaultEvent::ConnectionFlood { .. } => "connection-flood",
            FaultEvent::QuotaExhaustion { .. } => "quota-exhaustion",
        }
    }

    /// One-line description for timelines and `show`.
    pub fn describe(&self) -> String {
        match self {
            FaultEvent::ControllerCrash {
                at_ms,
                downtime_polls,
            } => format!("t={at_ms}ms controller-crash (≥{downtime_polls} polls down)"),
            FaultEvent::SecondaryRestart { at_ms, downtime_ms } => {
                format!("t={at_ms}ms secondary-restart (≥{downtime_ms}ms down)")
            }
            FaultEvent::BoxRestart { at_ms, downtime_ms } => {
                format!("t={at_ms}ms box-restart (≥{downtime_ms}ms down)")
            }
            FaultEvent::ConfigRollout {
                at_ms,
                key,
                staged_pct,
                rollback_p99_ms,
                ..
            } => {
                let rb = match rollback_p99_ms {
                    Some(ms) => format!(", rollback if p99 > {ms}ms"),
                    None => String::new(),
                };
                format!("t={at_ms}ms config-rollout key={key:?} staged={staged_pct}%{rb}")
            }
            FaultEvent::ChurnStorm {
                at_ms,
                cycles,
                period_ms,
                downtime_ms,
            } => format!(
                "t={at_ms}ms churn-storm ({cycles} cycles every {period_ms}ms, ≥{downtime_ms}ms down each)"
            ),
            FaultEvent::ConnectionFlood {
                at_ms,
                duration_ms,
                extra_qps,
            } => format!("t={at_ms}ms connection-flood (+{extra_qps} qps for {duration_ms}ms)"),
            FaultEvent::QuotaExhaustion {
                at_ms,
                duration_ms,
                tenant,
                multiplier,
            } => format!(
                "t={at_ms}ms quota-exhaustion ({tenant} ops ×{multiplier} for {duration_ms}ms)"
            ),
        }
    }
}

/// The Autopilot restart policy, spec-side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestartSpec {
    /// Initial backoff in milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff multiplier per consecutive failure.
    pub multiplier: u32,
    /// Give up after this many consecutive failures.
    pub max_failures: u32,
}

impl Default for RestartSpec {
    fn default() -> Self {
        let p = RestartPolicy::default();
        RestartSpec {
            base_backoff_ms: p.base_backoff_ms,
            multiplier: p.multiplier,
            max_failures: p.max_failures,
        }
    }
}

impl RestartSpec {
    /// The runtime policy.
    pub fn to_policy(self) -> RestartPolicy {
        RestartPolicy {
            base_backoff_ms: self.base_backoff_ms,
            multiplier: self.multiplier,
            max_failures: self.max_failures,
        }
    }
}

/// A scenario's fault-injection timeline.
///
/// `FaultSpec::default()` injects nothing; specs without faults serialize
/// without a `fault` key, so pre-chaos spec files and golden fixtures stay
/// valid byte for byte.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The fault timeline (empty = no chaos).
    #[serde(default)]
    pub events: Vec<FaultEvent>,
    /// Autopilot restart policy for every service on the box.
    #[serde(default)]
    pub restart: RestartSpec,
}

impl FaultSpec {
    /// True when no fault ever fires.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True for the default timeline (serde skip predicate: a spec file
    /// that omits `fault` loads back as this).
    pub(super) fn is_default(&self) -> bool {
        *self == FaultSpec::default()
    }

    /// Structural checks that do not need the surrounding scenario,
    /// including that every millisecond the timeline declares, and every
    /// restart backoff it can reach, fits the simulated clock.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.is_empty() {
            return Ok(());
        }
        let RestartSpec {
            base_backoff_ms,
            multiplier,
            max_failures,
        } = self.restart;
        if base_backoff_ms == 0 {
            return Err("restart base backoff must be at least 1 ms".into());
        }
        if multiplier == 0 {
            return Err("restart multiplier must be at least 1".into());
        }
        if max_failures == 0 {
            return Err("restart policy needs at least one allowed failure".into());
        }
        // The backoff before the last restart Autopilot grants.
        let longest_backoff = u64::from(multiplier)
            .checked_pow(max_failures - 1)
            .and_then(|m| m.checked_mul(base_backoff_ms));
        if longest_backoff.is_none_or(|ms| ms > MAX_RUN_MS) {
            return Err(format!(
                "restart backoff {base_backoff_ms} ms × {multiplier}^{} runs past the \
                 simulated clock's range (at most {MAX_RUN_MS} ms)",
                max_failures - 1
            ));
        }
        for ev in &self.events {
            let within_clock = |field: &str, ms: u64| {
                if ms > MAX_RUN_MS {
                    return Err(format!(
                        "{} {field} {ms} runs past the simulated clock's range \
                         (at most {MAX_RUN_MS} ms)",
                        ev.tag()
                    ));
                }
                Ok(())
            };
            within_clock("at_ms", ev.at_ms())?;
            match ev {
                FaultEvent::ControllerCrash { .. } => {}
                FaultEvent::SecondaryRestart { downtime_ms, .. }
                | FaultEvent::BoxRestart { downtime_ms, .. } => {
                    within_clock("downtime_ms", *downtime_ms)?;
                }
                FaultEvent::ConfigRollout {
                    key,
                    staged_pct,
                    rollback_p99_ms,
                    ..
                } => {
                    if key.is_empty() {
                        return Err("config rollout needs a non-empty document key".into());
                    }
                    if !(1..=100).contains(staged_pct) {
                        return Err(format!(
                            "config rollout stage must be in 1..=100 %, got {staged_pct}"
                        ));
                    }
                    if rollback_p99_ms == &Some(0) {
                        return Err("rollback threshold must be positive".into());
                    }
                    if let Some(ms) = rollback_p99_ms {
                        within_clock("rollback_p99_ms", *ms)?;
                    }
                }
                FaultEvent::ChurnStorm {
                    at_ms,
                    cycles,
                    period_ms,
                    downtime_ms,
                } => {
                    if *cycles == 0 {
                        return Err("churn storm needs at least one cycle".into());
                    }
                    if *cycles > 64 {
                        return Err(format!("churn storm capped at 64 cycles, got {cycles}"));
                    }
                    if *period_ms == 0 {
                        return Err("churn storm period must be at least 1 ms".into());
                    }
                    within_clock("downtime_ms", *downtime_ms)?;
                    let last_start = u64::from(cycles - 1)
                        .checked_mul(*period_ms)
                        .and_then(|ms| ms.checked_add(*at_ms));
                    if last_start.is_none_or(|ms| ms > MAX_RUN_MS) {
                        return Err(format!(
                            "churn-storm's last cycle starts at {at_ms} + {} × {period_ms} ms, \
                             past the simulated clock's range (at most {MAX_RUN_MS} ms)",
                            cycles - 1
                        ));
                    }
                }
                FaultEvent::ConnectionFlood {
                    duration_ms,
                    extra_qps,
                    ..
                } => {
                    if *duration_ms == 0 {
                        return Err("connection flood duration must be at least 1 ms".into());
                    }
                    if *extra_qps == 0 {
                        return Err("connection flood needs at least 1 extra qps".into());
                    }
                    within_clock("duration_ms", *duration_ms)?;
                }
                FaultEvent::QuotaExhaustion {
                    duration_ms,
                    tenant,
                    multiplier,
                    ..
                } => {
                    if *duration_ms == 0 {
                        return Err("quota exhaustion duration must be at least 1 ms".into());
                    }
                    within_clock("duration_ms", *duration_ms)?;
                    if !indexserve::IO_TENANT_SERVICES.contains(&tenant.as_str()) {
                        return Err(format!(
                            "quota exhaustion tenant must be one of {:?}, got {tenant:?}",
                            indexserve::IO_TENANT_SERVICES
                        ));
                    }
                    if !multiplier.is_finite() || *multiplier <= 1.0 {
                        return Err(format!(
                            "quota exhaustion multiplier must be finite and > 1, got {multiplier}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Compiles the timeline into the runtime plan the simulators execute.
    /// `effective` is the scenario's controller configuration (rollout
    /// documents apply their overrides on top of it). Returns `None` when
    /// the spec injects nothing.
    pub fn to_plan(&self, effective: Option<&PerfIsoConfig>) -> Option<FaultPlan> {
        if self.is_empty() {
            return None;
        }
        let mut faults = Vec::new();
        for ev in &self.events {
            // Churn storms expand into one planned fault per cycle; every
            // other event compiles 1:1.
            if let FaultEvent::ChurnStorm {
                at_ms,
                cycles,
                period_ms,
                downtime_ms,
            } = ev
            {
                for k in 0..*cycles {
                    faults.push(PlannedFault {
                        at: SimTime::from_millis(at_ms + k as u64 * period_ms),
                        kind: PlannedFaultKind::ServiceChurn {
                            downtime: SimDuration::from_millis(*downtime_ms),
                        },
                    });
                }
                continue;
            }
            faults.push(PlannedFault {
                at: SimTime::from_millis(ev.at_ms()),
                kind: match ev {
                    FaultEvent::ControllerCrash { downtime_polls, .. } => {
                        PlannedFaultKind::ControllerCrash {
                            downtime_polls: *downtime_polls,
                        }
                    }
                    FaultEvent::SecondaryRestart { downtime_ms, .. } => {
                        PlannedFaultKind::SecondaryRestart {
                            downtime: SimDuration::from_millis(*downtime_ms),
                        }
                    }
                    FaultEvent::BoxRestart { downtime_ms, .. } => PlannedFaultKind::BoxRestart {
                        downtime: SimDuration::from_millis(*downtime_ms),
                    },
                    FaultEvent::ConfigRollout {
                        key,
                        doc,
                        staged_pct,
                        rollback_p99_ms,
                        ..
                    } => PlannedFaultKind::ConfigRollout {
                        key: key.clone(),
                        config: Box::new(
                            doc.apply(effective.expect("validated: rollout needs a controller")),
                        ),
                        staged_pct: *staged_pct,
                        rollback_p99: rollback_p99_ms.map(SimDuration::from_millis),
                    },
                    FaultEvent::ConnectionFlood {
                        duration_ms,
                        extra_qps,
                        ..
                    } => PlannedFaultKind::ConnectionFlood {
                        duration: SimDuration::from_millis(*duration_ms),
                        extra_qps: *extra_qps,
                    },
                    FaultEvent::QuotaExhaustion {
                        duration_ms,
                        tenant,
                        multiplier,
                        ..
                    } => PlannedFaultKind::QuotaExhaustion {
                        duration: SimDuration::from_millis(*duration_ms),
                        tenant: tenant.clone(),
                        multiplier: *multiplier,
                    },
                    FaultEvent::ChurnStorm { .. } => unreachable!("expanded above"),
                },
            });
        }
        Some(FaultPlan {
            faults,
            restart: self.restart.to_policy(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_empty_and_compiles_to_no_plan() {
        let f = FaultSpec::default();
        assert!(f.is_empty());
        assert!(f.check_shape().is_ok());
        assert!(f.to_plan(None).is_none());
    }

    #[test]
    fn shape_checks_reject_degenerate_timelines() {
        let crash = FaultEvent::ControllerCrash {
            at_ms: 100,
            downtime_polls: 10,
        };
        let mut f = FaultSpec {
            events: vec![crash.clone()],
            restart: RestartSpec {
                base_backoff_ms: 0,
                ..Default::default()
            },
        };
        assert!(f.check_shape().is_err());
        f.restart = RestartSpec {
            multiplier: 0,
            ..Default::default()
        };
        assert!(f.check_shape().is_err());
        f.restart = RestartSpec {
            max_failures: 0,
            ..Default::default()
        };
        assert!(f.check_shape().is_err());
        let rollout = |staged_pct, key: &str, rb| FaultSpec {
            events: vec![FaultEvent::ConfigRollout {
                at_ms: 100,
                key: key.into(),
                doc: ControllerSpec::default(),
                staged_pct,
                rollback_p99_ms: rb,
            }],
            restart: RestartSpec::default(),
        };
        assert!(rollout(0, "k", None).check_shape().is_err());
        assert!(rollout(101, "k", None).check_shape().is_err());
        assert!(rollout(50, "", None).check_shape().is_err());
        assert!(rollout(50, "k", Some(0)).check_shape().is_err());
        assert!(rollout(50, "k", Some(5)).check_shape().is_ok());
    }

    #[test]
    fn milliseconds_past_the_clock_are_rejected() {
        let one = |event| FaultSpec {
            events: vec![event],
            restart: RestartSpec::default(),
        };
        let events: [fn(u64) -> FaultEvent; 12] = [
            |ms| FaultEvent::ControllerCrash {
                at_ms: ms,
                downtime_polls: 1,
            },
            |ms| FaultEvent::SecondaryRestart {
                at_ms: ms,
                downtime_ms: 1,
            },
            |ms| FaultEvent::SecondaryRestart {
                at_ms: 1,
                downtime_ms: ms,
            },
            |ms| FaultEvent::BoxRestart {
                at_ms: 1,
                downtime_ms: ms,
            },
            |ms| FaultEvent::ConfigRollout {
                at_ms: ms,
                key: "k".into(),
                doc: ControllerSpec::default(),
                staged_pct: 100,
                rollback_p99_ms: None,
            },
            |ms| FaultEvent::ConfigRollout {
                at_ms: 1,
                key: "k".into(),
                doc: ControllerSpec::default(),
                staged_pct: 100,
                rollback_p99_ms: Some(ms),
            },
            |ms| FaultEvent::ChurnStorm {
                at_ms: 1,
                cycles: 2,
                period_ms: 1,
                downtime_ms: ms,
            },
            // The storm's last cycle starts at `ms`.
            |ms| FaultEvent::ChurnStorm {
                at_ms: ms - 63 * 1_000,
                cycles: 64,
                period_ms: 1_000,
                downtime_ms: 1,
            },
            |ms| FaultEvent::ConnectionFlood {
                at_ms: 1,
                duration_ms: ms,
                extra_qps: 1,
            },
            |ms| FaultEvent::ConnectionFlood {
                at_ms: ms,
                duration_ms: 1,
                extra_qps: 1,
            },
            |ms| FaultEvent::QuotaExhaustion {
                at_ms: 1,
                duration_ms: ms,
                tenant: "disk-bully".into(),
                multiplier: 2.0,
            },
            |ms| FaultEvent::QuotaExhaustion {
                at_ms: ms,
                duration_ms: 1,
                tenant: "disk-bully".into(),
                multiplier: 2.0,
            },
        ];
        for event in events {
            let latest = one(event(MAX_RUN_MS));
            assert!(latest.check_shape().is_ok(), "{latest:?}");
            assert!(latest.to_plan(Some(&PerfIsoConfig::default())).is_some());
            for ms in [MAX_RUN_MS + 1, u64::MAX] {
                let past = one(event(ms));
                let err = past.check_shape().expect_err("past the clock");
                assert!(err.contains("simulated clock"), "{err}");
            }
        }
        // A storm whose cycle starts overflow `u64` itself; a single
        // cycle never waits a period.
        let storm = |cycles, period_ms| {
            one(FaultEvent::ChurnStorm {
                at_ms: 0,
                cycles,
                period_ms,
                downtime_ms: 1,
            })
        };
        assert!(storm(2, u64::MAX).check_shape().is_err());
        assert!(storm(1, u64::MAX).check_shape().is_ok());
    }

    #[test]
    fn restart_backoffs_past_the_clock_are_rejected() {
        let policy = |base_backoff_ms, multiplier, max_failures| FaultSpec {
            events: vec![FaultEvent::ControllerCrash {
                at_ms: 100,
                downtime_polls: 1,
            }],
            restart: RestartSpec {
                base_backoff_ms,
                multiplier,
                max_failures,
            },
        };
        // The last restart waits `base × multiplier^(max_failures − 1)`.
        assert!(policy(MAX_RUN_MS, 2, 1).check_shape().is_ok());
        assert!(policy(MAX_RUN_MS / 16, 2, 5).check_shape().is_ok());
        assert!(policy(MAX_RUN_MS, 1, u32::MAX).check_shape().is_ok());
        for (base, multiplier, max_failures) in [
            (MAX_RUN_MS + 1, 1, 1),
            (u64::MAX, 1, 1),
            (MAX_RUN_MS, 2, 2),
            (MAX_RUN_MS / 16 + 1, 2, 5),
            // 2^64 overflows the power itself.
            (1, 2, 65),
            (1, u32::MAX, u32::MAX),
        ] {
            let err = policy(base, multiplier, max_failures)
                .check_shape()
                .expect_err("backoff past the clock");
            assert!(err.contains("restart backoff"), "{err}");
        }
    }

    #[test]
    fn plan_compilation_resolves_times_and_docs() {
        let base = PerfIsoConfig::paper_cluster();
        let f = FaultSpec {
            events: vec![
                FaultEvent::ControllerCrash {
                    at_ms: 500,
                    downtime_polls: 20,
                },
                FaultEvent::ConfigRollout {
                    at_ms: 700,
                    key: "perfiso".into(),
                    doc: ControllerSpec {
                        cpu_poll_interval_us: Some(5_000),
                        ..Default::default()
                    },
                    staged_pct: 100,
                    rollback_p99_ms: Some(20),
                },
            ],
            restart: RestartSpec {
                base_backoff_ms: 50,
                multiplier: 2,
                max_failures: 3,
            },
        };
        let plan = f.to_plan(Some(&base)).unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].at, SimTime::from_millis(500));
        assert_eq!(plan.restart.base_backoff_ms, 50);
        match &plan.faults[1].kind {
            PlannedFaultKind::ConfigRollout {
                config,
                rollback_p99,
                ..
            } => {
                assert_eq!(config.cpu_poll_interval, SimDuration::from_micros(5_000));
                assert_eq!(*rollback_p99, Some(SimDuration::from_millis(20)));
            }
            other => panic!("expected rollout, got {other:?}"),
        }
    }
}
