//! Open-loop Poisson replay.

use simcore::dist::PoissonProcess;
use simcore::{SimRng, SimTime};

use crate::gen::QuerySpec;

/// Replays a trace in an open loop: arrival times follow a Poisson process
/// at the configured rate, independent of server progress (§5.3).
///
/// # Examples
///
/// ```
/// use qtrace::{OpenLoopClient, TraceConfig, TraceGenerator};
/// use simcore::SimTime;
///
/// let trace = TraceGenerator::new(TraceConfig { queries: 10, ..Default::default() }).generate(1);
/// let mut client = OpenLoopClient::new(trace, 2_000.0, 5);
/// let mut n = 0;
/// while client.next_arrival_time().is_some() {
///     let (_at, _q) = client.pop().unwrap();
///     n += 1;
/// }
/// assert_eq!(n, 10);
/// ```
#[derive(Clone, Debug)]
pub struct OpenLoopClient {
    trace: Vec<QuerySpec>,
    next_idx: usize,
    next_at: SimTime,
    process: PoissonProcess,
    rng: SimRng,
}

impl OpenLoopClient {
    /// Creates a client replaying `trace` at `qps` queries/second.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not finite and positive.
    pub fn new(trace: Vec<QuerySpec>, qps: f64, seed: u64) -> Self {
        let process = PoissonProcess::new(qps);
        let mut rng = SimRng::seed_from_u64(seed ^ 0x00C1_1E17);
        let first_gap = process.next_gap(&mut rng);
        OpenLoopClient {
            trace,
            next_idx: 0,
            next_at: SimTime::ZERO + first_gap,
            process,
            rng,
        }
    }

    /// Arrival time of the next query, or `None` when the trace is drained.
    pub fn next_arrival_time(&self) -> Option<SimTime> {
        (self.next_idx < self.trace.len()).then_some(self.next_at)
    }

    /// Takes the next `(arrival, query)` pair.
    pub fn pop(&mut self) -> Option<(SimTime, QuerySpec)> {
        if self.next_idx >= self.trace.len() {
            return None;
        }
        let at = self.next_at;
        let q = self.trace[self.next_idx].clone();
        self.next_idx += 1;
        self.next_at = at + self.process.next_gap(&mut self.rng);
        Some((at, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{TraceConfig, TraceGenerator};

    fn trace(n: usize) -> Vec<QuerySpec> {
        TraceGenerator::new(TraceConfig {
            queries: n,
            ..Default::default()
        })
        .generate(1)
    }

    #[test]
    fn arrival_rate_matches_qps() {
        let mut c = OpenLoopClient::new(trace(20_000), 4_000.0, 2);
        let mut last = SimTime::ZERO;
        let mut n = 0u64;
        while let Some((at, _)) = c.pop() {
            assert!(at >= last, "arrivals are monotone");
            last = at;
            n += 1;
        }
        let rate = n as f64 / last.as_secs_f64();
        assert!((rate - 4_000.0).abs() < 120.0, "rate {rate}");
    }

    #[test]
    fn arrivals_are_poisson_bursty() {
        // Coefficient of variation of exponential gaps is 1.
        let mut c = OpenLoopClient::new(trace(10_000), 1_000.0, 3);
        let mut gaps = Vec::new();
        let mut prev = SimTime::ZERO;
        while let Some((at, _)) = c.pop() {
            gaps.push(at.since(prev).as_secs_f64());
            prev = at;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn preserves_trace_order() {
        let expected = trace(100);
        let mut c = OpenLoopClient::new(expected.clone(), 1_000.0, 4);
        let mut replayed = Vec::new();
        while let Some((_, q)) = c.pop() {
            replayed.push(q);
        }
        assert_eq!(replayed.len(), expected.len());
        for (i, (q, e)) in replayed.iter().zip(&expected).enumerate() {
            assert!(
                (q.fanout, q.rounds, q.burst_ns, q.doc_rank, q.heavy)
                    == (e.fanout, e.rounds, e.burst_ns, e.doc_rank, e.heavy),
                "query {i}: {q:?} against {e:?}"
            );
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = OpenLoopClient::new(trace(50), 500.0, 9);
        let mut b = OpenLoopClient::new(trace(50), 500.0, 9);
        while let (Some((ta, _)), Some((tb, _))) = (a.pop(), b.pop()) {
            assert_eq!(ta, tb);
        }
    }
}
