//! Deterministic fault injection (the §4.2 availability claim).
//!
//! The paper's recovery story — "in the event of a crash, Autopilot will
//! bring it up again, and PerfIso will resume its function by loading its
//! state from disk" — is exercised here: a [`FaultPlan`] is a fixed
//! timeline of lifecycle faults compiled by the spec layer and executed
//! inside [`BoxSim`](crate::BoxSim) through a per-box
//! [`autopilot::ServiceManager`]. Fault firing is pure simulation time —
//! no wall clock, no extra RNG draws — so chaos runs stay
//! seed-deterministic and bit-identical across thread counts.

use autopilot::RestartPolicy;
use perfiso::PerfIsoConfig;
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// One scheduled fault on the box timeline.
#[derive(Clone, Debug)]
pub struct PlannedFault {
    /// Absolute simulation time at which the fault fires.
    pub at: SimTime,
    /// What breaks (or rolls out).
    pub kind: PlannedFaultKind,
}

/// The runtime shape of an injected fault, with spec-level knobs already
/// resolved to concrete simulator values.
#[derive(Clone, Debug)]
pub enum PlannedFaultKind {
    /// Kill the PerfIso controller process. The box runs unisolated (the
    /// Fig. 4 no-isolation regime) until Autopilot restarts it from the
    /// last [`perfiso::recovery::ControllerState`] checkpoint.
    ControllerCrash {
        /// Minimum downtime expressed in controller CPU-poll periods; the
        /// actual downtime is the max of this and the restart backoff.
        downtime_polls: u32,
    },
    /// Kill and respawn the secondary workload's processes.
    SecondaryRestart {
        /// How long the secondary stays down before Autopilot respawns it.
        downtime: SimDuration,
    },
    /// Restart the IndexServe process itself: every in-flight query fails
    /// and arrivals are refused until the service is back.
    BoxRestart {
        /// How long the primary stays down.
        downtime: SimDuration,
    },
    /// Publish a new controller configuration document to the
    /// [`autopilot::ConfigStore`]; the controller picks it up at its next
    /// CPU poll and re-installs itself, restoring its dynamic state.
    ConfigRollout {
        /// Config-store document key.
        key: String,
        /// The fully-resolved replacement configuration.
        config: Box<PerfIsoConfig>,
        /// Fleet stage: only the first `ceil(staged_pct% * n_boxes)` boxes
        /// of a cluster apply the rollout (single boxes always do).
        staged_pct: u8,
        /// Automatic rollback trigger: if the post-rollout P99 over the
        /// observation window exceeds this, the previous config returns.
        rollback_p99: Option<SimDuration>,
    },
    /// One lifecycle cycle of a churn storm: kill and respawn the
    /// secondary, exactly like [`PlannedFaultKind::SecondaryRestart`] but
    /// tagged separately. The spec layer expands a churn-storm event into
    /// many of these in rapid succession.
    ServiceChurn {
        /// How long the secondary stays down this cycle.
        downtime: SimDuration,
    },
    /// An arrival-rate flood on the primary: for `duration` the box
    /// injects `extra_qps` additional synthetic arrivals per second on
    /// top of the external client load, to be absorbed (or shed) by
    /// admission control.
    ConnectionFlood {
        /// How long the flood lasts.
        duration: SimDuration,
        /// Additional arrivals per second while flooding.
        extra_qps: u32,
    },
    /// An I/O tenant exhausting its quota: for `duration` every operation
    /// the tenant submits is inflated by `multiplier`, driving it into
    /// its IOPS cap so the throttle (not the spindle) bounds the damage.
    QuotaExhaustion {
        /// How long the exhaustion episode lasts.
        duration: SimDuration,
        /// The I/O tenant (`disk-bully`, `hdfs-replication`, or
        /// `hdfs-client`).
        tenant: String,
        /// Byte-size inflation applied to the tenant's operations (> 1).
        multiplier: f64,
    },
}

impl PlannedFaultKind {
    /// The service name this fault targets.
    pub fn service(&self) -> &'static str {
        match self {
            PlannedFaultKind::ControllerCrash { .. } | PlannedFaultKind::ConfigRollout { .. } => {
                "perfiso"
            }
            PlannedFaultKind::SecondaryRestart { .. } | PlannedFaultKind::ServiceChurn { .. } => {
                "secondary"
            }
            PlannedFaultKind::BoxRestart { .. } | PlannedFaultKind::ConnectionFlood { .. } => {
                "indexserve"
            }
            PlannedFaultKind::QuotaExhaustion { tenant, .. } => match tenant.as_str() {
                "disk-bully" => "disk-bully",
                "hdfs-replication" => "hdfs-replication",
                "hdfs-client" => "hdfs-client",
                _ => "secondary",
            },
        }
    }

    /// Short kind tag used in reports and timelines.
    pub fn tag(&self) -> &'static str {
        match self {
            PlannedFaultKind::ControllerCrash { .. } => "controller-crash",
            PlannedFaultKind::SecondaryRestart { .. } => "secondary-restart",
            PlannedFaultKind::BoxRestart { .. } => "box-restart",
            PlannedFaultKind::ConfigRollout { .. } => "config-rollout",
            PlannedFaultKind::ServiceChurn { .. } => "service-churn",
            PlannedFaultKind::ConnectionFlood { .. } => "connection-flood",
            PlannedFaultKind::QuotaExhaustion { .. } => "quota-exhaustion",
        }
    }
}

/// The compiled fault timeline handed to a simulator.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Faults in firing order.
    pub faults: Vec<PlannedFault>,
    /// Autopilot restart policy shared by all services on the box.
    pub restart: RestartPolicy,
}

impl FaultPlan {
    /// True when no fault ever fires.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The slice of this plan that applies to box `box_index` of
    /// `n_boxes`: staged config rollouts reach only the leading
    /// `ceil(staged_pct% * n_boxes)` boxes, every other fault reaches all
    /// boxes. Returns `None` when nothing applies.
    pub fn slice_for_box(&self, box_index: usize, n_boxes: usize) -> Option<FaultPlan> {
        let faults: Vec<PlannedFault> = self
            .faults
            .iter()
            .filter(|f| match &f.kind {
                PlannedFaultKind::ConfigRollout { staged_pct, .. } => {
                    let staged = (n_boxes * *staged_pct as usize).div_ceil(100);
                    box_index < staged
                }
                _ => true,
            })
            .cloned()
            .collect();
        if faults.is_empty() {
            None
        } else {
            Some(FaultPlan {
                faults,
                restart: self.restart,
            })
        }
    }
}

/// One executed fault, as recorded into the report.
///
/// `recovery_polls` counts controller CPU polls from restart until the
/// first poll that changed nothing — the controller has converged back to
/// steady state (0 when the fault does not restart a controller).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Fault kind tag (`controller-crash`, `secondary-restart`,
    /// `box-restart`, `config-rollout`).
    pub kind: String,
    /// Service name the fault targeted.
    pub service: String,
    /// Absolute fire time in simulation milliseconds.
    pub fired_at_ms: f64,
    /// Actual downtime in milliseconds (0 for rollouts).
    pub downtime_ms: f64,
    /// Controller polls from restart to convergence.
    pub recovery_polls: u32,
    /// Autopilot gave up restarting (crash loop exceeded `max_failures`).
    pub gave_up: bool,
    /// A config rollout was reverted by the tail-latency watchdog.
    pub rolled_back: bool,
}

impl FaultRecord {
    /// Starts a record for a fault firing at `at`.
    pub fn fired(kind: &PlannedFaultKind, at: SimTime) -> FaultRecord {
        FaultRecord {
            kind: kind.tag().to_string(),
            service: kind.service().to_string(),
            fired_at_ms: at.since(SimTime::ZERO).as_millis_f64(),
            downtime_ms: 0.0,
            recovery_polls: 0,
            gave_up: false,
            rolled_back: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rollout(staged_pct: u8) -> PlannedFault {
        PlannedFault {
            at: SimTime::from_millis(100),
            kind: PlannedFaultKind::ConfigRollout {
                key: "perfiso".to_string(),
                config: Box::new(PerfIsoConfig::paper_cluster()),
                staged_pct,
                rollback_p99: None,
            },
        }
    }

    fn crash() -> PlannedFault {
        PlannedFault {
            at: SimTime::from_millis(50),
            kind: PlannedFaultKind::ControllerCrash { downtime_polls: 10 },
        }
    }

    #[test]
    fn staged_rollout_reaches_leading_boxes_only() {
        let plan = FaultPlan {
            faults: vec![rollout(50)],
            restart: RestartPolicy::default(),
        };
        // ceil(50% * 4) = 2 boxes.
        assert!(plan.slice_for_box(0, 4).is_some());
        assert!(plan.slice_for_box(1, 4).is_some());
        assert!(plan.slice_for_box(2, 4).is_none());
        assert!(plan.slice_for_box(3, 4).is_none());
        // A single box always participates.
        assert!(plan.slice_for_box(0, 1).is_some());
    }

    #[test]
    fn non_rollout_faults_reach_every_box() {
        let plan = FaultPlan {
            faults: vec![crash(), rollout(25)],
            restart: RestartPolicy::default(),
        };
        // ceil(25% * 4) = 1 box gets both; the rest get the crash only.
        assert_eq!(plan.slice_for_box(0, 4).unwrap().faults.len(), 2);
        for i in 1..4 {
            assert_eq!(plan.slice_for_box(i, 4).unwrap().faults.len(), 1);
        }
    }

    #[test]
    fn empty_slice_is_none() {
        let plan = FaultPlan {
            faults: vec![rollout(1)],
            restart: RestartPolicy::default(),
        };
        assert!(plan.slice_for_box(5, 10).is_none());
    }
}
