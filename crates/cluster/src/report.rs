//! Cluster measurement reports.

use indexserve::FaultRecord;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;
use telemetry::recorder::PercentileSummary;
use telemetry::{CpuBreakdown, LatencyRecorder, ResilienceStats, SketchSummary};

/// Latency statistics for one aggregation layer (Fig 9's bar groups).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LayerStats {
    /// Average latency.
    pub avg: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Sample count.
    pub count: u64,
}

impl LayerStats {
    /// Builds layer stats from a recorder.
    pub fn from_recorder(r: &mut LatencyRecorder) -> Self {
        let s: PercentileSummary = r.summary();
        LayerStats {
            avg: s.mean,
            p95: s.p95,
            p99: s.p99,
            count: s.count,
        }
    }
}

/// One cluster run's measurements.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Local IndexServe latency across all index machines.
    pub local: LayerStats,
    /// Mid-level aggregator latency (MLA receipt → response sent).
    pub mla: LayerStats,
    /// Top-level aggregator latency (TLA receipt → response ready).
    pub tla: LayerStats,
    /// Requests completed end-to-end.
    pub completed: u64,
    /// Requests that lost at least one column to a timeout.
    pub degraded: u64,
    /// Mean CPU utilization across index machines over the measured
    /// window (`breakdown.utilization()`).
    pub mean_utilization: f64,
    /// CPU breakdown summed over index machines, from warm-up end to the
    /// end of the measured window: it totals index machines × cores × the
    /// window's length.
    pub breakdown: CpuBreakdown,
    /// Executed fault timelines, per index box, when a chaos plan ran.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<BoxFaults>,
    /// End-to-end (TLA) latency sketch with its error bound, when the
    /// run used `TelemetryMode::Sketch`; exact runs omit the key so
    /// pre-sketch reports are unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub latency_sketch: Option<SketchSummary>,
    /// Resilience counters merged across every index box (admission
    /// sheds, retries, hedges, breaker trips). Present only when a
    /// resilience mechanism fired somewhere, so pre-resilience cluster
    /// reports serialize unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceStats>,
}

/// The fault records one index box executed during a cluster run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoxFaults {
    /// Index-box position in the topology.
    pub box_index: u32,
    /// Faults in firing order.
    pub faults: Vec<FaultRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn layer_stats_from_recorder() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(SimDuration::from_millis(i));
        }
        let s = LayerStats::from_recorder(&mut r);
        assert_eq!(s.count, 100);
        assert_eq!(s.p99.as_millis(), 99);
        assert!(s.avg > SimDuration::from_millis(49));
    }
}
