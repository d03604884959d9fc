//! Fixed-bucket time series, used for the Fig 10 production timeline
//! (QPS, p99 latency, and CPU utilization over one hour).
//!
//! Buckets are stored densely from t=0, gaps included. The fleet records
//! each series once per simulated minute, from bucket 0, in order, so its
//! series have no gaps to store.

use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};

/// One bucket of an aggregated series.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Bucket {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Maximum sample (meaningless when `count == 0`).
    pub max: f64,
}

impl Bucket {
    /// Mean of the bucket, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A time series aggregated into fixed-width buckets.
///
/// # Examples
///
/// ```
/// use simcore::{SimDuration, SimTime};
/// use telemetry::TimeSeries;
///
/// let mut s = TimeSeries::new(SimDuration::from_secs(60));
/// s.record(SimTime::from_secs(30), 10.0);
/// s.record(SimTime::from_secs(45), 20.0);
/// s.record(SimTime::from_secs(70), 5.0);
/// assert_eq!(s.bucket(0).unwrap().mean(), 15.0);
/// assert_eq!(s.bucket(1).unwrap().mean(), 5.0);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimeSeries {
    width: SimDuration,
    buckets: Vec<Bucket>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be positive");
        TimeSeries {
            width,
            buckets: Vec::new(),
        }
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Records a sample at virtual time `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_nanos() / self.width.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, Bucket::default());
        }
        let b = &mut self.buckets[idx];
        b.count += 1;
        b.sum += value;
        b.max = if b.count == 1 {
            value
        } else {
            b.max.max(value)
        };
    }

    /// Number of buckets (up to the latest recorded sample).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Returns bucket `idx` if it exists.
    pub fn bucket(&self, idx: usize) -> Option<&Bucket> {
        self.buckets.get(idx)
    }

    /// Mean of all bucket means that contain data.
    pub fn overall_mean(&self) -> f64 {
        let (sum, n) = self
            .buckets
            .iter()
            .filter(|b| b.count > 0)
            .fold((0.0, 0u64), |(s, n), b| (s + b.mean(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_assign_by_time() {
        let mut s = TimeSeries::new(SimDuration::from_millis(10));
        s.record(SimTime::from_millis(0), 1.0);
        s.record(SimTime::from_millis(9), 2.0);
        s.record(SimTime::from_millis(10), 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.bucket(0).unwrap().count, 2);
        assert_eq!(s.bucket(1).unwrap().count, 1);
    }

    #[test]
    fn bucket_stats() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_millis(100), 5.0);
        s.record(SimTime::from_millis(200), 15.0);
        let b = s.bucket(0).unwrap();
        assert_eq!(b.mean(), 10.0);
        assert_eq!(b.max, 15.0);
    }

    #[test]
    fn gaps_are_empty_buckets() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_secs(5), 1.0);
        assert_eq!(s.len(), 6);
        assert_eq!(s.bucket(2).unwrap().count, 0);
        assert_eq!(s.bucket(2).unwrap().mean(), 0.0);
    }

    #[test]
    fn overall_mean_skips_empty() {
        let mut s = TimeSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::from_secs(0), 10.0);
        s.record(SimTime::from_secs(5), 20.0);
        assert_eq!(s.overall_mean(), 15.0);
    }

    #[test]
    fn serde_shape_is_stable() {
        // The JSON the fleet fixtures pin: the width and the dense buckets.
        let mut s = TimeSeries::new(SimDuration::from_secs(60));
        s.record(SimTime::from_secs(30), 1.0);
        let text = serde_json::to_string(&s).expect("serializes");
        assert!(text.starts_with("{\"width\":"), "{text}");
        assert!(
            text.ends_with("\"buckets\":[{\"count\":1,\"sum\":1.0,\"max\":1.0}]}"),
            "{text}"
        );
        let back: TimeSeries = serde_json::from_str(&text).expect("parses");
        assert_eq!(back.len(), 1);
        assert_eq!(back.bucket(0).unwrap().max, 1.0);
    }
}
