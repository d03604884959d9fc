//! Latency percentile recording: exact by default, sketch-backed at scale.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;

use crate::sketch::{Sketch, SketchSummary};

/// Which recording backend a simulation's latency recorders use.
///
/// `Exact` keeps every sample and reports exact order statistics — the
/// default, and what every golden fixture was blessed with. `Sketch`
/// switches to the bounded-memory [`Sketch`] estimator for
/// production-scale runs where per-sample storage is unaffordable. Spec
/// files name it as a unit variant (`"telemetry": "Sketch"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryMode {
    /// Keep all samples; percentiles are exact order statistics.
    Exact,
    /// Log-bucketed sketch with a guaranteed relative error
    /// ([`Sketch::RELATIVE_ERROR`]).
    Sketch,
}

// The vendored serde_derive does not parse the `#[default]` variant
// attribute, so this cannot be `#[derive(Default)]`.
#[allow(clippy::derivable_impls)]
impl Default for TelemetryMode {
    fn default() -> Self {
        TelemetryMode::Exact
    }
}

impl TelemetryMode {
    /// True for the default exact backend (serde skip predicate: the
    /// default is never serialized, keeping pre-sketch fixtures stable).
    pub fn is_exact(&self) -> bool {
        matches!(self, TelemetryMode::Exact)
    }

    /// Creates a recorder using this backend.
    pub fn recorder(self) -> LatencyRecorder {
        match self {
            TelemetryMode::Exact => LatencyRecorder::new(),
            TelemetryMode::Sketch => LatencyRecorder::sketch(),
        }
    }
}

/// The exact backend: every sample kept, percentiles by nearest rank.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct ExactRecorder {
    samples_ns: Vec<u64>,
    dropped: u64,
    #[serde(skip)]
    sorted: bool,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
enum Backend {
    Exact(ExactRecorder),
    Sketch(Sketch),
}

/// Collects latency samples and reports percentiles.
///
/// The default backend keeps samples in full (the paper-scale experiments
/// record at most a few hundred thousand queries), so percentiles are
/// exact order statistics rather than histogram estimates. Production-
/// scale runs construct the recorder via [`TelemetryMode::Sketch`] /
/// [`LatencyRecorder::sketch`], which stores a bounded bucket window
/// instead of samples and estimates quantiles within
/// [`Sketch::RELATIVE_ERROR`]. Dropped (timed-out) queries are counted
/// separately and excluded from the latency distribution in both modes,
/// matching the paper's methodology (completed-query percentiles plus a
/// dropped-query ratio).
///
/// # Examples
///
/// ```
/// use simcore::SimDuration;
/// use telemetry::LatencyRecorder;
///
/// let mut r = LatencyRecorder::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     r.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(r.percentile(0.5).as_millis(), 3);
/// assert_eq!(r.max().as_millis(), 100);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyRecorder {
    backend: Backend,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyRecorder {
    /// Creates an empty exact recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            backend: Backend::Exact(ExactRecorder {
                samples_ns: Vec::new(),
                dropped: 0,
                sorted: true,
            }),
        }
    }

    /// Creates an empty sketch-backed recorder (bounded memory,
    /// [`Sketch::RELATIVE_ERROR`] quantile estimates).
    pub fn sketch() -> Self {
        LatencyRecorder {
            backend: Backend::Sketch(Sketch::new()),
        }
    }

    /// Records a completed-query latency.
    pub fn record(&mut self, latency: SimDuration) {
        match &mut self.backend {
            Backend::Exact(e) => {
                e.samples_ns.push(latency.as_nanos());
                e.sorted = false;
            }
            Backend::Sketch(s) => s.record(latency),
        }
    }

    /// Records a dropped (timed-out) query.
    pub fn record_dropped(&mut self) {
        match &mut self.backend {
            Backend::Exact(e) => e.dropped += 1,
            Backend::Sketch(s) => s.record_dropped(),
        }
    }

    /// Number of completed samples.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Exact(e) => e.samples_ns.len(),
            Backend::Sketch(s) => s.count() as usize,
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dropped queries.
    pub fn dropped(&self) -> u64 {
        match &self.backend {
            Backend::Exact(e) => e.dropped,
            Backend::Sketch(s) => s.dropped(),
        }
    }

    /// Fraction of queries dropped, in `[0, 1]`.
    pub fn drop_ratio(&self) -> f64 {
        let total = self.len() as u64 + self.dropped();
        if total == 0 {
            0.0
        } else {
            self.dropped() as f64 / total as f64
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`) of completed latencies.
    ///
    /// Returns [`SimDuration::ZERO`] when empty. The exact backend uses
    /// the nearest-rank method (`ceil(q * n)`-th smallest sample); the
    /// sketch backend estimates within [`Sketch::RELATIVE_ERROR`].
    pub fn percentile(&mut self, q: f64) -> SimDuration {
        match &mut self.backend {
            Backend::Exact(e) => {
                if e.samples_ns.is_empty() {
                    return SimDuration::ZERO;
                }
                if !e.sorted {
                    e.samples_ns.sort_unstable();
                    e.sorted = true;
                }
                let q = q.clamp(0.0, 1.0);
                let n = e.samples_ns.len();
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                SimDuration::from_nanos(e.samples_ns[rank - 1])
            }
            Backend::Sketch(s) => s.percentile(q),
        }
    }

    /// Mean of completed latencies (zero when empty).
    pub fn mean(&self) -> SimDuration {
        match &self.backend {
            Backend::Exact(e) => {
                if e.samples_ns.is_empty() {
                    return SimDuration::ZERO;
                }
                let sum: u128 = e.samples_ns.iter().map(|&x| x as u128).sum();
                SimDuration::from_nanos((sum / e.samples_ns.len() as u128) as u64)
            }
            Backend::Sketch(s) => s.mean(),
        }
    }

    /// Largest completed latency (zero when empty).
    pub fn max(&self) -> SimDuration {
        match &self.backend {
            Backend::Exact(e) => {
                SimDuration::from_nanos(e.samples_ns.iter().copied().max().unwrap_or(0))
            }
            Backend::Sketch(s) => s.max(),
        }
    }

    /// Convenience: (p50, p95, p99) in one call.
    pub fn summary(&mut self) -> PercentileSummary {
        PercentileSummary {
            count: self.len() as u64,
            dropped: self.dropped(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            max: self.max(),
        }
    }

    /// The sketch summary (statistics plus error bound) when this
    /// recorder is sketch-backed; `None` on the exact backend.
    pub fn sketch_summary(&self) -> Option<SketchSummary> {
        match &self.backend {
            Backend::Exact(_) => None,
            Backend::Sketch(s) => Some(s.summary()),
        }
    }

    /// Consumes the recorder and returns its sketch, if sketch-backed.
    pub fn take_sketch(self) -> Option<Sketch> {
        match self.backend {
            Backend::Exact(_) => None,
            Backend::Sketch(s) => Some(s),
        }
    }
}

/// A snapshot of the standard latency statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PercentileSummary {
    /// Completed-query count.
    pub count: u64,
    /// Dropped-query count.
    pub dropped: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 95th percentile latency.
    pub p95: SimDuration,
    /// 99th percentile latency — the paper's headline metric.
    pub p99: SimDuration,
    /// Maximum observed latency.
    pub max: SimDuration,
}

impl PercentileSummary {
    /// Fraction of queries dropped.
    pub fn drop_ratio(&self) -> f64 {
        let total = self.count + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sketch;
    use proptest::prelude::*;

    #[test]
    fn empty_is_zero() {
        let mut r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.percentile(0.99), SimDuration::ZERO);
        assert_eq!(r.mean(), SimDuration::ZERO);
        assert_eq!(r.drop_ratio(), 0.0);
    }

    #[test]
    fn exact_percentiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(SimDuration::from_millis(i));
        }
        assert_eq!(r.percentile(0.50).as_millis(), 50);
        assert_eq!(r.percentile(0.95).as_millis(), 95);
        assert_eq!(r.percentile(0.99).as_millis(), 99);
        assert_eq!(r.percentile(1.0).as_millis(), 100);
        assert_eq!(r.percentile(0.0).as_millis(), 1);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut r = LatencyRecorder::new();
        for i in (1..=10u64).rev() {
            r.record(SimDuration::from_millis(i));
        }
        assert_eq!(r.percentile(0.5).as_millis(), 5);
        r.record(SimDuration::from_millis(100));
        assert_eq!(r.max().as_millis(), 100);
    }

    #[test]
    fn drop_ratio_counts() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_millis(1));
        r.record_dropped();
        r.record_dropped();
        r.record_dropped();
        assert!((r.drop_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_is_consistent() {
        let mut r = LatencyRecorder::new();
        for i in 1..=1000u64 {
            r.record(SimDuration::from_micros(i));
        }
        let s = r.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50.as_micros(), 500);
        assert_eq!(s.p99.as_micros(), 990);
        assert_eq!(s.max.as_micros(), 1000);
    }

    #[test]
    fn sketch_backend_tracks_exact_within_bound() {
        let mut exact = LatencyRecorder::new();
        let mut sk = LatencyRecorder::sketch();
        for i in 1..=5_000u64 {
            let v = SimDuration::from_micros(i * 7 % 4_000 + 1);
            exact.record(v);
            sk.record(v);
        }
        sk.record_dropped();
        assert_eq!(sk.len(), exact.len());
        assert_eq!(sk.dropped(), 1);
        for q in [0.5, 0.95, 0.99] {
            let e = exact.percentile(q).as_nanos() as f64;
            let s = sk.percentile(q).as_nanos() as f64;
            assert!(
                (s - e).abs() <= e * Sketch::RELATIVE_ERROR + 0.5,
                "q={q} exact={e} sketch={s}"
            );
        }
        let summary = sk.sketch_summary().expect("sketch backend");
        assert_eq!(summary.count, 5_000);
        assert_eq!(summary.relative_error, Sketch::RELATIVE_ERROR);
        assert!(exact.sketch_summary().is_none());
    }

    #[test]
    fn mode_selects_backend() {
        assert!(TelemetryMode::Exact.recorder().take_sketch().is_none());
        let mut sk = TelemetryMode::Sketch.recorder();
        sk.record(SimDuration::from_millis(8));
        sk.record_dropped();
        let sketch = sk.take_sketch().expect("sketch backend");
        assert_eq!((sketch.count(), sketch.dropped()), (1, 1));
        assert_eq!(TelemetryMode::default(), TelemetryMode::Exact);
        assert!(TelemetryMode::default().is_exact());
    }

    proptest! {
        /// Percentiles are monotone in q and bounded by min/max.
        #[test]
        fn prop_percentile_monotone(mut xs in proptest::collection::vec(1u64..1_000_000, 1..300)) {
            let mut r = LatencyRecorder::new();
            for &x in &xs {
                r.record(SimDuration::from_nanos(x));
            }
            xs.sort_unstable();
            let mut last = SimDuration::ZERO;
            for i in 0..=20 {
                let q = i as f64 / 20.0;
                let p = r.percentile(q);
                prop_assert!(p >= last);
                prop_assert!(p.as_nanos() <= *xs.last().unwrap());
                last = p;
            }
            prop_assert_eq!(r.percentile(1.0).as_nanos(), *xs.last().unwrap());
        }
    }
}
