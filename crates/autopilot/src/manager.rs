//! Crash handling and restart policy.
//!
//! Autopilot restarts failed services. A bounded exponential backoff guards
//! against crash loops; after too many failures in a window the service is
//! left down for operator attention (with PerfIso's kill switch, §4.2, that
//! is the safe state: secondaries simply stay unrestricted or get stopped).

use serde::{Deserialize, Serialize};

/// The manager's verdict after a crash report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartDecision {
    /// Restart after the given backoff (milliseconds of wall time).
    RestartAfterMs(u64),
    /// Crash-looping: give up and page an operator.
    GiveUp,
}

/// Restart policy parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestartPolicy {
    /// Initial backoff in milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff multiplier per consecutive failure.
    pub multiplier: u32,
    /// Give up after this many consecutive failures.
    pub max_failures: u32,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            base_backoff_ms: 1_000,
            multiplier: 2,
            max_failures: 5,
        }
    }
}

/// Tracks consecutive failures per service and applies the restart policy.
///
/// # Examples
///
/// ```
/// use autopilot::{RestartDecision, ServiceManager};
///
/// let mut mgr = ServiceManager::new(Default::default());
/// let d = mgr.report_crash("perfiso");
/// assert_eq!(d, RestartDecision::RestartAfterMs(1_000));
/// mgr.report_started("perfiso");
/// assert_eq!(mgr.failure_count("perfiso"), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ServiceManager {
    policy: RestartPolicy,
    consecutive_failures: std::collections::BTreeMap<String, u32>,
}

impl ServiceManager {
    /// Creates a manager with the given policy.
    pub fn new(policy: RestartPolicy) -> Self {
        ServiceManager {
            policy,
            consecutive_failures: Default::default(),
        }
    }

    /// Records a crash of the named service and returns the decision.
    pub fn report_crash(&mut self, name: &str) -> RestartDecision {
        let count = self
            .consecutive_failures
            .entry(name.to_string())
            .or_insert(0);
        *count += 1;
        if *count > self.policy.max_failures {
            return RestartDecision::GiveUp;
        }
        let backoff = self
            .policy
            .base_backoff_ms
            .saturating_mul((self.policy.multiplier as u64).saturating_pow(*count - 1));
        RestartDecision::RestartAfterMs(backoff)
    }

    /// Records a successful (re)start; resets the failure counter.
    pub fn report_started(&mut self, name: &str) {
        self.consecutive_failures.remove(name);
    }

    /// Consecutive failure count for a service.
    pub fn failure_count(&self, name: &str) -> u32 {
        self.consecutive_failures.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> ServiceManager {
        ServiceManager::new(RestartPolicy::default())
    }

    #[test]
    fn backoff_grows_exponentially() {
        let mut mgr = setup();
        assert_eq!(
            mgr.report_crash("perfiso"),
            RestartDecision::RestartAfterMs(1_000)
        );
        assert_eq!(
            mgr.report_crash("perfiso"),
            RestartDecision::RestartAfterMs(2_000)
        );
        assert_eq!(
            mgr.report_crash("perfiso"),
            RestartDecision::RestartAfterMs(4_000)
        );
        assert_eq!(mgr.failure_count("perfiso"), 3);
    }

    #[test]
    fn gives_up_after_max_failures() {
        let mut mgr = setup();
        for _ in 0..5 {
            assert!(matches!(
                mgr.report_crash("perfiso"),
                RestartDecision::RestartAfterMs(_)
            ));
        }
        assert_eq!(mgr.report_crash("perfiso"), RestartDecision::GiveUp);
    }

    #[test]
    fn successful_start_resets_counter() {
        let mut mgr = setup();
        mgr.report_crash("perfiso");
        mgr.report_crash("perfiso");
        mgr.report_started("perfiso");
        assert_eq!(mgr.failure_count("perfiso"), 0);
        assert_eq!(
            mgr.report_crash("perfiso"),
            RestartDecision::RestartAfterMs(1_000)
        );
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let mut mgr = ServiceManager::new(RestartPolicy {
            base_backoff_ms: u64::MAX / 2,
            multiplier: u32::MAX,
            max_failures: 64,
        });
        let mut last = 0;
        for _ in 0..64 {
            match mgr.report_crash("perfiso") {
                RestartDecision::RestartAfterMs(ms) => {
                    assert!(ms >= last, "backoff must be monotone under saturation");
                    last = ms;
                }
                RestartDecision::GiveUp => panic!("gave up before max_failures"),
            }
        }
        assert_eq!(last, u64::MAX);
    }

    #[test]
    fn give_up_fires_exactly_past_max_failures() {
        let policy = RestartPolicy {
            base_backoff_ms: 10,
            multiplier: 1,
            max_failures: 3,
        };
        let mut mgr = ServiceManager::new(policy);
        for i in 1..=policy.max_failures {
            assert_eq!(
                mgr.report_crash("perfiso"),
                RestartDecision::RestartAfterMs(10),
                "failure {i} of {} still restarts",
                policy.max_failures
            );
        }
        assert_eq!(mgr.report_crash("perfiso"), RestartDecision::GiveUp);
        assert_eq!(mgr.failure_count("perfiso"), policy.max_failures + 1);
    }

    #[test]
    fn failure_counters_are_per_service() {
        let mut mgr = ServiceManager::new(RestartPolicy::default());
        mgr.report_crash("a");
        mgr.report_crash("a");
        assert_eq!(
            mgr.report_crash("b"),
            RestartDecision::RestartAfterMs(1_000),
            "service b starts from the base backoff"
        );
        assert_eq!(mgr.failure_count("a"), 2);
        assert_eq!(mgr.failure_count("b"), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// No parameter choice can make `report_crash` panic, and every
            /// pre-give-up decision is a finite backoff that saturates
            /// rather than overflowing.
            #[test]
            fn prop_backoff_never_panics(
                base in 0u64..=u64::MAX,
                multiplier in 0u32..=u32::MAX,
                max_failures in 1u32..200,
                crashes in 1u32..300,
            ) {
                let mut mgr = ServiceManager::new(RestartPolicy {
                    base_backoff_ms: base,
                    multiplier,
                    max_failures,
                });
                for i in 1..=crashes {
                    let d = mgr.report_crash("svc");
                    if i > max_failures {
                        prop_assert_eq!(d, RestartDecision::GiveUp);
                    } else {
                        prop_assert!(matches!(d, RestartDecision::RestartAfterMs(_)));
                    }
                }
            }

            /// A successful run always resets the failure window: the next
            /// crash is decided as if it were the first.
            #[test]
            fn prop_success_resets_window(
                max_failures in 1u32..20,
                crashes in 1u32..40,
            ) {
                let policy = RestartPolicy {
                    base_backoff_ms: 100,
                    multiplier: 2,
                    max_failures,
                };
                let mut mgr = ServiceManager::new(policy);
                for _ in 0..crashes {
                    mgr.report_crash("svc");
                }
                mgr.report_started("svc");
                prop_assert_eq!(mgr.failure_count("svc"), 0);
                prop_assert_eq!(
                    mgr.report_crash("svc"),
                    RestartDecision::RestartAfterMs(policy.base_backoff_ms)
                );
            }
        }
    }
}
