//! Streaming, mergeable percentile sketch for fleet-scale telemetry.
//!
//! [`Sketch`] is a DDSketch-style log-bucketed quantile estimator: 64
//! sub-buckets per power of two over 44 octaves (1 ns to about 4.8
//! hours). It stores only the *occupied window* of buckets — a run
//! from the first to the last non-empty bucket — instead of the full
//! 2816-slot table. A production box whose latencies span one decade keeps
//! a few hundred `u64` counters no matter how many billions of samples it
//! records, and merging two sketches is pure counter addition, so
//! per-slice sketches reduce tree-wise across workers with results
//! independent of merge order.
//!
//! The estimator guarantee: any quantile estimate is within
//! [`Sketch::RELATIVE_ERROR`] (1/128 ≈ 0.78 %) of the exact nearest-rank
//! sample, because the exact sample lives in the chosen bucket and the
//! bucket's half-width never exceeds `base / 128`. Values below 64 ns sit
//! in unit-width buckets and are exact.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;

const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 64
const OCTAVES: usize = 44; // covers 1ns .. ~4.8 hours
const NUM_BUCKETS: usize = OCTAVES * SUB_BUCKETS;

fn bucket_index(value_ns: u64) -> usize {
    let v = value_ns.max(1);
    let msb = 63 - v.leading_zeros();
    if msb < SUB_BUCKET_BITS {
        // Small values map directly into the first octave's sub-buckets.
        return v as usize;
    }
    let octave = (msb - SUB_BUCKET_BITS + 1) as usize;
    let sub = (v >> (octave as u32 - 1)) as usize & (SUB_BUCKETS - 1);
    let idx = octave * SUB_BUCKETS + sub;
    idx.min(NUM_BUCKETS - 1)
}

fn bucket_midpoint(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let octave = idx / SUB_BUCKETS;
    let sub = idx % SUB_BUCKETS;
    let base = (SUB_BUCKETS as u64 + sub as u64) << (octave as u32 - 1);
    let width = 1u64 << (octave as u32 - 1);
    base + width / 2
}

/// A bounded-memory quantile sketch with a relative-error guarantee.
///
/// # Examples
///
/// ```
/// use simcore::SimDuration;
/// use telemetry::Sketch;
///
/// let mut s = Sketch::new();
/// for us in 1..=10_000u64 {
///     s.record(SimDuration::from_micros(us));
/// }
/// let p99 = s.percentile(0.99).as_micros() as f64;
/// assert!((p99 - 9_900.0).abs() / 9_900.0 <= Sketch::RELATIVE_ERROR);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sketch {
    /// Global bucket index of `counts[0]`.
    first: usize,
    /// The occupied bucket window (counts for `first .. first + len`).
    counts: Vec<u64>,
    /// Total recorded samples.
    total: u64,
    /// Dropped (timed-out) queries, excluded from the distribution.
    dropped: u64,
    /// Exact minimum sample (`u64::MAX` when empty).
    min_ns: u64,
    /// Exact maximum sample.
    max_ns: u64,
}

impl Default for Sketch {
    fn default() -> Self {
        Self::new()
    }
}

impl Sketch {
    /// Guaranteed relative quantile error: half a bucket width relative to
    /// the bucket base, maximized over all octaves (`(w/2) / (64 w) =
    /// 1/128`).
    pub const RELATIVE_ERROR: f64 = 1.0 / 128.0;

    /// Creates an empty sketch.
    pub fn new() -> Self {
        Sketch {
            first: 0,
            counts: Vec::new(),
            total: 0,
            dropped: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Grows the stored window (if needed) so it covers global bucket
    /// index `idx`, and returns a mutable reference to that bucket.
    fn slot(&mut self, idx: usize) -> &mut u64 {
        if self.counts.is_empty() {
            self.first = idx;
            self.counts.push(0);
        } else if idx < self.first {
            let grow = self.first - idx;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = idx;
        } else if idx >= self.first + self.counts.len() {
            self.counts.resize(idx - self.first + 1, 0);
        }
        &mut self.counts[idx - self.first]
    }

    /// Records one completed-query latency.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        *self.slot(bucket_index(ns)) += 1;
        self.total += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records a dropped (timed-out) query.
    pub fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Total recorded (completed) samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Dropped-query count.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of bucket counters currently stored — the sketch's memory
    /// footprint, bounded by the full table size regardless of sample
    /// count.
    pub fn stored_buckets(&self) -> usize {
        debug_assert!(self.counts.len() <= NUM_BUCKETS);
        self.counts.len()
    }

    /// Exact minimum recorded value (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Exact maximum recorded value (zero when empty).
    pub fn max(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.max_ns)
        }
    }

    /// Mean of recorded values, from bucket midpoints (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let sum: u128 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                c as u128 * bucket_midpoint(self.first + i).clamp(self.min_ns, self.max_ns) as u128
            })
            .sum();
        SimDuration::from_nanos((sum / self.total as u128) as u64)
    }

    /// Estimated `q`-quantile, within [`Sketch::RELATIVE_ERROR`] of the
    /// exact nearest-rank sample (zero when empty).
    pub fn percentile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let mid = bucket_midpoint(self.first + i);
                return SimDuration::from_nanos(mid.clamp(self.min_ns, self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Merges `other` into `self`. Pure counter addition over the union
    /// window plus min/max reconciliation, so merging is associative and
    /// commutative: any merge tree over per-worker sketches equals
    /// recording every sample into one sketch.
    pub fn merge(&mut self, other: &Sketch) {
        for (i, &c) in other.counts.iter().enumerate() {
            if c > 0 {
                *self.slot(other.first + i) += c;
            }
        }
        self.total += other.total;
        self.dropped += other.dropped;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Reduces a batch of sketches tree-wise (pairwise rounds): the shape
    /// parallel reducers use so no single accumulator touches every
    /// partial. Returns `None` for an empty batch.
    pub fn merge_tree(mut parts: Vec<Sketch>) -> Option<Sketch> {
        if parts.is_empty() {
            return None;
        }
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.merge(&b);
                }
                next.push(a);
            }
            parts = next;
        }
        parts.pop()
    }

    /// Snapshot of the standard latency statistics plus the sketch's
    /// error bound.
    pub fn summary(&self) -> SketchSummary {
        SketchSummary {
            count: self.total,
            dropped: self.dropped,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            max: self.max(),
            relative_error: Self::RELATIVE_ERROR,
        }
    }
}

/// The report surface of a [`Sketch`]: the same statistics as a
/// [`crate::recorder::PercentileSummary`], tagged with the estimator's
/// guaranteed relative error so readers know the quantiles are estimates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SketchSummary {
    /// Completed-query count (exact).
    pub count: u64,
    /// Dropped-query count (exact).
    pub dropped: u64,
    /// Mean latency (midpoint-weighted estimate).
    pub mean: SimDuration,
    /// Median estimate.
    pub p50: SimDuration,
    /// 95th-percentile estimate.
    pub p95: SimDuration,
    /// 99th-percentile estimate.
    pub p99: SimDuration,
    /// Maximum observed latency (exact).
    pub max: SimDuration,
    /// Guaranteed relative quantile error of the estimates.
    pub relative_error: f64,
}

impl SketchSummary {
    /// Exact bitwise equality (floats by `to_bits`), for determinism
    /// checks.
    pub fn bits_eq(&self, other: &SketchSummary) -> bool {
        self.count == other.count
            && self.dropped == other.dropped
            && self.mean == other.mean
            && self.p50 == other.p50
            && self.p95 == other.p95
            && self.p99 == other.p99
            && self.max == other.max
            && self.relative_error.to_bits() == other.relative_error.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyRecorder;
    use proptest::prelude::*;

    #[test]
    fn empty_sketch() {
        let s = Sketch::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.99), SimDuration::ZERO);
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.stored_buckets(), 0);
    }

    #[test]
    fn window_stays_small_for_narrow_distributions() {
        let mut s = Sketch::new();
        for i in 0..1_000_000u64 {
            // One decade: 1..10 ms.
            s.record(SimDuration::from_nanos(1_000_000 + (i * 9 + 7) % 9_000_000));
        }
        assert_eq!(s.count(), 1_000_000);
        // ~3.3 octaves of 64 sub-buckets, nowhere near the sample count.
        assert!(s.stored_buckets() <= 4 * 64, "{}", s.stored_buckets());
    }

    #[test]
    fn recording_out_of_order_grows_the_window_front() {
        let mut s = Sketch::new();
        s.record(SimDuration::from_millis(10));
        let high_only = s.stored_buckets();
        s.record(SimDuration::from_nanos(100));
        assert!(s.stored_buckets() > high_only);
        assert_eq!(s.min().as_nanos(), 100);
        assert_eq!(s.max().as_millis(), 10);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = Sketch::new();
        for ns in 1..=63u64 {
            s.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(s.percentile(0.5).as_nanos(), 32);
        assert_eq!(s.percentile(1.0).as_nanos(), 63);
    }

    #[test]
    fn summary_carries_error_bound() {
        let mut s = Sketch::new();
        s.record(SimDuration::from_micros(500));
        s.record_dropped();
        let sum = s.summary();
        assert_eq!(sum.count, 1);
        assert_eq!(sum.dropped, 1);
        assert_eq!(sum.relative_error, Sketch::RELATIVE_ERROR);
        assert!(sum.bits_eq(&s.summary()));
    }

    #[test]
    fn merge_tree_equals_sequential_merge() {
        let mut parts = Vec::new();
        let mut whole = Sketch::new();
        for p in 0..7u64 {
            let mut s = Sketch::new();
            for i in 0..100u64 {
                let v = SimDuration::from_micros(1 + p * 1_000 + i * 37);
                s.record(v);
                whole.record(v);
            }
            parts.push(s);
        }
        let merged = Sketch::merge_tree(parts).expect("non-empty");
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.percentile(q), whole.percentile(q));
        }
        assert!(Sketch::merge_tree(Vec::new()).is_none());
    }

    #[test]
    fn serde_round_trip() {
        let mut s = Sketch::new();
        for i in 1..=500u64 {
            s.record(SimDuration::from_micros(i * 13));
        }
        s.record_dropped();
        let text = serde_json::to_string(&s).expect("serializes");
        let back: Sketch = serde_json::from_str(&text).expect("parses");
        assert_eq!(back.count(), s.count());
        assert_eq!(back.dropped(), s.dropped());
        assert_eq!(back.stored_buckets(), s.stored_buckets());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(back.percentile(q), s.percentile(q));
        }
    }

    proptest! {
        /// Bucket index is monotone non-decreasing in the value.
        #[test]
        fn prop_bucket_monotone(a in 1u64..u64::MAX / 2) {
            prop_assert!(bucket_index(a) <= bucket_index(a + 1));
        }

        /// A bucket's midpoint maps back into the same bucket.
        #[test]
        fn prop_midpoint_roundtrip(v in 1u64..1_000_000_000_000u64) {
            let idx = bucket_index(v);
            let mid = bucket_midpoint(idx);
            prop_assert_eq!(bucket_index(mid.max(1)), idx);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The headline guarantee: under arbitrary record/merge
        /// interleavings the sketch quantiles stay within the guaranteed
        /// relative error of the exact recorder's nearest-rank
        /// percentiles, and the exact tallies (count/dropped/min/max)
        /// match to the nanosecond.
        #[test]
        fn prop_sketch_matches_exact_within_bound(
            vals in proptest::collection::vec(1u64..50_000_000_000u64, 1..400),
            pieces in 1usize..6,
            drops in 0u64..5,
        ) {
            let mut exact = LatencyRecorder::new();
            let mut parts: Vec<Sketch> = (0..pieces).map(|_| Sketch::new()).collect();
            for (i, &v) in vals.iter().enumerate() {
                exact.record(SimDuration::from_nanos(v));
                parts[i % pieces].record(SimDuration::from_nanos(v));
            }
            for d in 0..drops {
                parts[d as usize % pieces].record_dropped();
            }
            let merged = Sketch::merge_tree(parts).expect("non-empty");
            prop_assert_eq!(merged.count(), exact.len() as u64);
            prop_assert_eq!(merged.dropped(), drops);
            prop_assert_eq!(merged.min(), exact.percentile(0.0));
            prop_assert_eq!(merged.max(), exact.max());
            for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
                let e = exact.percentile(q).as_nanos() as f64;
                let s = merged.percentile(q).as_nanos() as f64;
                prop_assert!(
                    (s - e).abs() <= e * Sketch::RELATIVE_ERROR + 0.5,
                    "q={} exact={} sketch={}", q, e, s
                );
            }
        }

        /// Merge order is irrelevant: A∪B == B∪A bit for bit.
        #[test]
        fn prop_merge_commutes(
            a_vals in proptest::collection::vec(1u64..10_000_000_000u64, 0..200),
            b_vals in proptest::collection::vec(1u64..10_000_000_000u64, 0..200),
        ) {
            let mut a = Sketch::new();
            let mut b = Sketch::new();
            for &v in &a_vals { a.record(SimDuration::from_nanos(v)); }
            for &v in &b_vals { b.record(SimDuration::from_nanos(v)); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert_eq!(ab.min(), ba.min());
            prop_assert_eq!(ab.max(), ba.max());
            for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                prop_assert_eq!(ab.percentile(q), ba.percentile(q));
            }
        }
    }
}
