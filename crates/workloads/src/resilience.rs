//! Overload-resilience policies: admission control, retries, hedging,
//! circuit breakers, and deadline propagation.
//!
//! Everything here is *pure policy* — deterministic decision logic with no
//! event source of its own. The [`crate::service_graph::GraphEngine`] and
//! the box driver consult these types at well-defined points (arrival,
//! stage activation, attempt failure) so that a run with a policy attached
//! replays bit-identically, and a run without one is byte-identical to a
//! build that predates this module.
//!
//! Determinism notes:
//!
//! - Retry jitter is a hash of `(seed, request, attempt)` — never a draw
//!   from the simulation RNG stream, so enabling retries does not perturb
//!   the compute-time sampling sequence.
//! - Hedge delays are closed-form log-normal quantiles of the stage's
//!   compute distribution (no sampling at all).
//! - The circuit breaker transitions on observed events and sim time only.

use simcore::{SimDuration, SimTime};

/// Per-service concurrency + queue-depth admission limit.
///
/// An arrival is admitted while the service's in-flight count (running
/// plus queued) is below `max_in_flight + queue_depth`; past that it is
/// shed deterministically and recorded as a drop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionPolicy {
    /// Requests allowed to run concurrently.
    pub max_in_flight: u64,
    /// Additional arrivals allowed to wait beyond the concurrency limit.
    pub queue_depth: u64,
}

impl AdmissionPolicy {
    /// Deterministic shed decision for an arrival seeing `in_flight`
    /// requests already admitted.
    pub fn admits(&self, in_flight: u64) -> bool {
        in_flight < self.max_in_flight.saturating_add(self.queue_depth)
    }
}

/// Exponential-backoff retry policy with deterministic jitter and a hard
/// attempt budget (the same backoff shape as `RestartSpec` in the
/// scenario spec layer).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base_backoff: SimDuration,
    /// Backoff multiplier per additional retry (>= 1).
    pub multiplier: u32,
    /// Maximum retries per request (<= [`RetryPolicy::MAX_BUDGET`]).
    pub budget: u32,
    /// Upper bound on the deterministic jitter added to each delay.
    pub jitter: SimDuration,
}

impl RetryPolicy {
    /// Hard cap on the retry budget enforced by spec validation.
    pub const MAX_BUDGET: u32 = 16;

    /// The un-jittered exponential backoff before retry `attempt`
    /// (1-based), saturating instead of overflowing.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let mut ns = self.base_backoff.as_nanos();
        for _ in 1..attempt.max(1) {
            ns = ns.saturating_mul(self.multiplier.max(1) as u64);
        }
        SimDuration::from_nanos(ns)
    }

    /// Deterministic jitter for retry `attempt` of request `ridx`, in
    /// `[0, jitter]`. Hash-derived, so it never consumes simulation RNG.
    pub fn jitter_for(&self, seed: u64, ridx: u64, attempt: u32) -> SimDuration {
        let cap = self.jitter.as_nanos();
        if cap == 0 {
            return SimDuration::ZERO;
        }
        let h = fmix64(seed ^ ridx.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48));
        SimDuration::from_nanos(h % (cap + 1))
    }

    /// Delay before retry `attempt` (1-based): backoff plus jitter,
    /// clamped to be monotone non-decreasing across attempts so a later
    /// retry never waits less than an earlier one did.
    pub fn delay(&self, seed: u64, ridx: u64, attempt: u32) -> SimDuration {
        let mut best = SimDuration::ZERO;
        for k in 1..=attempt.max(1) {
            let d = self.backoff(k) + self.jitter_for(seed, ridx, k);
            best = best.max(d);
        }
        best
    }

    /// The full retry-delay schedule for request `ridx`: one entry per
    /// budgeted retry. Deterministic in `(policy, seed, ridx)`, monotone
    /// non-decreasing, and never longer than the budget.
    pub fn schedule(&self, seed: u64, ridx: u64) -> Vec<SimDuration> {
        (1..=self.budget.min(Self::MAX_BUDGET))
            .map(|k| self.delay(seed, ridx, k))
            .collect()
    }
}

/// Hedging policy: duplicate a straggling stage once its runtime passes
/// the spec'd percentile of its own compute distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgePolicy {
    /// Percentile of the stage compute distribution after which a hedge
    /// fires, in `(0, 1)` (e.g. 0.95 hedges the slowest 5 % of workers).
    pub percentile: f64,
}

impl HedgePolicy {
    /// Closed-form hedge delay for a stage whose compute time is
    /// log-normal with the given median (µs) and shape. No RNG involved:
    /// the quantile of `LogNormal(median, sigma)` at `p` is
    /// `median * exp(sigma * z_p)`.
    pub fn stage_delay(&self, median_us: f64, sigma: f64) -> SimDuration {
        let z = normal_quantile(self.percentile.clamp(1e-6, 1.0 - 1e-6));
        SimDuration::from_micros_f64(median_us * (sigma * z).exp())
    }
}

/// Circuit-breaker policy: open after `threshold` consecutive failures,
/// half-open after `cooldown`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker open.
    pub threshold: u32,
    /// Time an open breaker waits before allowing a half-open probe.
    pub cooldown: SimDuration,
}

/// The full resilience policy a service executes. Every mechanism is
/// independently optional; `ResiliencePolicy::default()` disables all of
/// them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResiliencePolicy {
    /// Admission control / load shedding.
    pub admission: Option<AdmissionPolicy>,
    /// Retries with exponential backoff.
    pub retry: Option<RetryPolicy>,
    /// Stage hedging.
    pub hedge: Option<HedgePolicy>,
    /// Per-edge circuit breakers.
    pub breaker: Option<BreakerPolicy>,
    /// Cancel downstream stages whose inherited budget is already spent.
    pub propagate_deadlines: bool,
}

/// Circuit-breaker state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; counting consecutive failures.
    Closed,
    /// Tripped: requests fast-fail until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe is allowed through; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

/// A per-edge circuit breaker.
///
/// Opens after `threshold` *consecutive* failures (a success resets the
/// count), fast-fails while open, and transitions to half-open purely by
/// sim time — an open breaker can never get stuck because the transition
/// happens inside [`CircuitBreaker::allow`] with no event required.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: SimDuration,
    state: BreakerState,
    consecutive: u32,
    opened_at: SimTime,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: &BreakerPolicy) -> Self {
        CircuitBreaker {
            threshold: policy.threshold.max(1),
            cooldown: policy.cooldown,
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: SimTime::ZERO,
        }
    }

    /// Current state, after applying the time-based open → half-open
    /// transition for `now`.
    pub fn state_at(&mut self, now: SimTime) -> BreakerState {
        if self.state == BreakerState::Open && now.since(self.opened_at) >= self.cooldown {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    /// Whether traffic may pass at `now`. Open breakers whose cooldown
    /// has elapsed become half-open and admit the probe.
    pub fn allow(&mut self, now: SimTime) -> bool {
        self.state_at(now) != BreakerState::Open
    }

    /// Records a success: closes the breaker and resets the failure run.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive = 0;
    }

    /// Records a failure; returns `true` when this failure (re)opened the
    /// breaker (the `breaker_opens` counter increments on `true`).
    pub fn on_failure(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                // Failed probe: re-open and restart the cooldown clock.
                self.state = BreakerState::Open;
                self.opened_at = now;
                true
            }
            BreakerState::Closed => {
                self.consecutive += 1;
                if self.consecutive >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// MurmurHash3's `fmix64` finalizer: the stateless hash behind retry
/// jitter.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 on (0, 1)). Used for closed-form log-normal
/// quantiles so hedge delays need no sampling.
// Coefficients quoted digit-for-digit from Acklam's published table.
#[allow(clippy::excessive_precision)]
pub fn normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry() -> RetryPolicy {
        RetryPolicy {
            base_backoff: SimDuration::from_millis(2),
            multiplier: 2,
            budget: 5,
            jitter: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn admission_sheds_past_cap() {
        let a = AdmissionPolicy {
            max_in_flight: 4,
            queue_depth: 2,
        };
        assert!(a.admits(0));
        assert!(a.admits(5));
        assert!(!a.admits(6));
        assert!(!a.admits(100));
    }

    #[test]
    fn retry_schedule_is_deterministic_monotone_bounded() {
        let r = retry();
        let s1 = r.schedule(42, 7);
        let s2 = r.schedule(42, 7);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 5);
        for w in s1.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Different requests get different jitter.
        assert_ne!(r.schedule(42, 7), r.schedule(42, 8));
        // Backoff doubles: retry 3 waits at least base * 4.
        assert!(s1[2] >= SimDuration::from_millis(8));
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let r = RetryPolicy {
            base_backoff: SimDuration::from_secs(1),
            multiplier: u32::MAX,
            budget: 16,
            jitter: SimDuration::ZERO,
        };
        assert_eq!(r.backoff(16), SimDuration::MAX);
    }

    #[test]
    fn breaker_opens_at_threshold_and_half_opens() {
        let mut b = CircuitBreaker::new(&BreakerPolicy {
            threshold: 3,
            cooldown: SimDuration::from_millis(10),
        });
        let t0 = SimTime::ZERO;
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        b.on_success(); // resets the consecutive run
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        assert!(b.on_failure(t0)); // third consecutive: opens
        assert!(!b.allow(SimTime::from_millis(5)));
        // Cooldown elapsed: half-open, probe admitted.
        assert!(b.allow(SimTime::from_millis(10)));
        assert_eq!(b.state_at(SimTime::from_millis(10)), BreakerState::HalfOpen);
        // Failed probe re-opens immediately (counts as an open).
        assert!(b.on_failure(SimTime::from_millis(11)));
        assert!(!b.allow(SimTime::from_millis(20)));
        assert!(b.allow(SimTime::from_millis(21)));
        b.on_success();
        assert_eq!(b.state_at(SimTime::from_millis(21)), BreakerState::Closed);
    }

    #[test]
    fn normal_quantile_matches_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.99) - 2.326_348).abs() < 1e-4);
        assert!((normal_quantile(0.01) + 2.326_348).abs() < 1e-4);
    }

    #[test]
    fn hedge_delay_is_the_lognormal_quantile() {
        let h = HedgePolicy { percentile: 0.95 };
        // LogNormal(median=200us, sigma=0.4): q95 = 200 * exp(0.4 * 1.6449).
        let d = h.stage_delay(200.0, 0.4);
        let expect = 200.0 * (0.4 * 1.644_854f64).exp();
        assert!((d.as_micros_f64() - expect).abs() < 0.1);
        // Higher percentile waits longer.
        let h99 = HedgePolicy { percentile: 0.99 };
        assert!(h99.stage_delay(200.0, 0.4) > d);
    }
}
