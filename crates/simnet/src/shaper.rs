//! The per-node egress shaper: strict priority plus a low-class rate cap.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};

/// Priority class of a message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficClass {
    /// Primary-tenant traffic: never shaped.
    High,
    /// Secondary-tenant traffic: strict lower priority, optionally
    /// rate-capped.
    Low,
}

/// A queued egress message (payload is the driver's token).
#[derive(Clone, Copy, Debug)]
pub(crate) struct EgressMsg {
    pub bytes: u64,
    pub class: TrafficClass,
    pub token: u64,
    /// Destination node index, carried through the shaper.
    pub dest: u32,
}

/// One node's egress pipeline: a serializing NIC with two strict-priority
/// queues and an optional byte-rate cap on the low class.
///
/// The shaper itself is time-free: the embedding [`crate::NetSim`] asks
/// *when* the next message could start and *which* message to start.
#[derive(Debug)]
pub struct EgressShaper {
    bandwidth: u64,
    high: VecDeque<EgressMsg>,
    low: VecDeque<EgressMsg>,
    /// Bytes/second allowed for the low class (`None` = unlimited).
    low_rate: Option<f64>,
    /// Token balance for the low class.
    low_tokens: f64,
    low_settled: SimTime,
    /// The NIC is serializing until this instant.
    pub(crate) busy_until: SimTime,
}

impl EgressShaper {
    /// Creates a shaper for a NIC of the given bandwidth (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is zero.
    pub fn new(bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        EgressShaper {
            bandwidth,
            high: VecDeque::new(),
            low: VecDeque::new(),
            low_rate: None,
            low_tokens: 0.0,
            low_settled: SimTime::ZERO,
            busy_until: SimTime::ZERO,
        }
    }

    /// Sets or clears the low-class rate cap (bytes/second).
    pub fn set_low_rate(&mut self, now: SimTime, rate: Option<u64>) {
        self.settle_low(now);
        let fresh = self.low_rate.is_none();
        self.low_rate = rate.map(|r| r as f64);
        if let Some(r) = self.low_rate {
            let burst = r * 0.05;
            if fresh {
                // Installing a cap grants one burst allowance (50 ms worth).
                self.low_tokens = burst;
            } else {
                self.low_tokens = self.low_tokens.min(burst);
            }
        }
    }

    /// The configured low-class rate cap.
    pub fn low_rate(&self) -> Option<u64> {
        self.low_rate.map(|r| r as u64)
    }

    fn settle_low(&mut self, now: SimTime) {
        if let Some(rate) = self.low_rate {
            let dt = now.since(self.low_settled).as_secs_f64();
            let burst = rate * 0.05;
            self.low_tokens = (self.low_tokens + dt * rate).min(burst);
        }
        self.low_settled = now;
    }

    /// Enqueues a message.
    pub(crate) fn enqueue(&mut self, msg: EgressMsg) {
        match msg.class {
            TrafficClass::High => self.high.push_back(msg),
            TrafficClass::Low => self.low.push_back(msg),
        }
    }

    /// Number of queued messages (both classes).
    pub fn queued(&self) -> usize {
        self.high.len() + self.low.len()
    }

    /// Serialization time of `bytes` on this NIC.
    pub fn serialize_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth as f64)
    }

    /// Picks the next message to serialize at `now`, if the NIC is free and
    /// a message is eligible. Returns the message and the instant
    /// serialization can start (now, or when low-class tokens suffice).
    ///
    /// Contract: if the returned start time is in the future, the caller
    /// should re-poll at that time; the message is *not* dequeued.
    pub(crate) fn try_start(&mut self, now: SimTime) -> StartDecision {
        if self.busy_until > now {
            return StartDecision::BusyUntil(self.busy_until);
        }
        if let Some(msg) = self.high.pop_front() {
            return StartDecision::Start(msg);
        }
        let Some(&front) = self.low.front() else {
            return StartDecision::Empty;
        };
        self.settle_low(now);
        match self.low_rate {
            None => StartDecision::Start(self.low.pop_front().expect("front exists")),
            Some(rate) => {
                let burst = rate * 0.05;
                let need = (front.bytes as f64).min(burst);
                if self.low_tokens + 1e-9 >= need {
                    // Overdraw bounded to one burst for oversized messages.
                    self.low_tokens = (self.low_tokens - front.bytes as f64).max(-burst);
                    StartDecision::Start(self.low.pop_front().expect("front exists"))
                } else {
                    let wait = (need - self.low_tokens) / rate;
                    // Strictly in the future: a zero-length wait (float
                    // rounding) would make the caller re-poll at `now`
                    // forever.
                    let wait = SimDuration::from_secs_f64(wait).max(SimDuration::from_nanos(1));
                    StartDecision::TokensAt(now + wait)
                }
            }
        }
    }
}

/// Outcome of [`EgressShaper::try_start`].
#[derive(Debug)]
pub(crate) enum StartDecision {
    /// Nothing queued.
    Empty,
    /// NIC serializing until the given instant.
    BusyUntil(SimTime),
    /// Low-class tokens available at the given instant.
    TokensAt(SimTime),
    /// This message starts now.
    Start(EgressMsg),
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBE10: u64 = 1_250_000_000;

    #[test]
    fn high_preempts_low_in_queue() {
        let mut s = EgressShaper::new(GBE10);
        s.enqueue(EgressMsg {
            bytes: 1000,
            class: TrafficClass::Low,
            token: 1,
            dest: 0,
        });
        s.enqueue(EgressMsg {
            bytes: 1000,
            class: TrafficClass::High,
            token: 2,
            dest: 0,
        });
        match s.try_start(SimTime::ZERO) {
            StartDecision::Start(m) => assert_eq!(m.token, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn low_waits_for_tokens() {
        let mut s = EgressShaper::new(GBE10);
        s.set_low_rate(SimTime::ZERO, Some(1_000_000)); // 1 MB/s
                                                        // Drain the initial burst allowance (50 KB).
        s.enqueue(EgressMsg {
            bytes: 50_000,
            class: TrafficClass::Low,
            token: 1,
            dest: 0,
        });
        match s.try_start(SimTime::ZERO) {
            StartDecision::Start(m) => assert_eq!(m.token, 1),
            other => panic!("unexpected {other:?}"),
        }
        s.enqueue(EgressMsg {
            bytes: 50_000,
            class: TrafficClass::Low,
            token: 2,
            dest: 0,
        });
        match s.try_start(SimTime::ZERO) {
            StartDecision::TokensAt(at) => {
                let ms = at.as_millis();
                assert!((40..=60).contains(&ms), "tokens at {ms}ms");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn high_is_never_rate_capped() {
        let mut s = EgressShaper::new(GBE10);
        s.set_low_rate(SimTime::ZERO, Some(1));
        s.enqueue(EgressMsg {
            bytes: 1 << 20,
            class: TrafficClass::High,
            token: 9,
            dest: 0,
        });
        assert!(matches!(
            s.try_start(SimTime::ZERO),
            StartDecision::Start(_)
        ));
    }

    #[test]
    fn serialization_time_scales() {
        let s = EgressShaper::new(GBE10);
        let t = s.serialize_time(1_250_000);
        assert_eq!(t, SimDuration::from_millis(1));
    }

    #[test]
    fn busy_nic_reports_when_free() {
        let mut s = EgressShaper::new(GBE10);
        s.busy_until = SimTime::from_micros(100);
        s.enqueue(EgressMsg {
            bytes: 10,
            class: TrafficClass::High,
            token: 1,
            dest: 0,
        });
        assert!(matches!(
            s.try_start(SimTime::ZERO),
            StartDecision::BusyUntil(t) if t == SimTime::from_micros(100)
        ));
    }
}
