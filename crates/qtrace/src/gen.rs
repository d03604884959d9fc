//! Synthetic query-trace generation.

use serde::{Deserialize, Serialize};
use simcore::dist::{LogNormal, Sample, ZipfTable};
use simcore::SimRng;

/// The work profile of one query, fixed at trace-generation time so every
/// replay (and every isolation policy) sees identical offered work.
///
/// A query's place in the trace is its index; the spec carries no id of
/// its own, so it packs into 12 bytes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Number of parallel worker threads the query wakes (8–15; the paper
    /// measured up to 15 threads ready within 5 µs).
    pub fanout: u8,
    /// CPU+I/O rounds per worker.
    pub rounds: u8,
    /// Per-round CPU burst in nanoseconds for each worker round,
    /// pre-sampled (lognormal).
    pub burst_ns: u32,
    /// Zipf rank of the hottest document touched (drives cache hits).
    pub doc_rank: u32,
    /// Whether this is a heavy query (~3× the rounds).
    pub heavy: bool,
}

/// Trace-generation parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of queries.
    pub queries: usize,
    /// Minimum fan-out (inclusive).
    pub fanout_min: u8,
    /// Maximum fan-out (inclusive).
    pub fanout_max: u8,
    /// Base CPU+I/O rounds per worker.
    pub rounds: u8,
    /// Median per-round CPU burst in microseconds.
    pub burst_median_us: f64,
    /// Lognormal sigma of the burst distribution.
    pub burst_sigma: f64,
    /// Fraction of heavy queries (3× rounds).
    pub heavy_fraction: f64,
    /// Number of distinct documents (Zipf universe).
    pub documents: usize,
    /// Zipf exponent for document popularity.
    pub zipf_s: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // Calibrated so IndexServe standalone hits the paper's profile
        // (p50 ≈ 4 ms, p99 ≈ 12 ms, CPU ≈ 20 % at 2 000 QPS on 48 cores).
        TraceConfig {
            queries: 10_000,
            fanout_min: 8,
            fanout_max: 15,
            rounds: 4,
            burst_median_us: 62.0,
            burst_sigma: 0.55,
            heavy_fraction: 0.03,
            documents: 200_000,
            zipf_s: 0.9,
        }
    }
}

/// Generates reproducible synthetic traces.
///
/// Construction precomputes the burst distribution and the Zipf popularity
/// table (`O(documents)` work), so a generator built once can stamp out
/// many traces cheaply — the fleet experiment shares one generator across
/// hundreds of machine-minute slices instead of rebuilding the table per
/// slice. The table is compact: at the default 200,000 documents it holds
/// the CDF of the 16,384 hottest ranks plus one running sum per 16 ranks
/// past them, 223 kB in all (see [`ZipfTable`]).
///
/// # Examples
///
/// ```
/// use qtrace::{TraceConfig, TraceGenerator};
///
/// let trace = TraceGenerator::new(TraceConfig { queries: 100, ..Default::default() })
///     .generate(42);
/// assert_eq!(trace.len(), 100);
/// assert!(trace.iter().all(|q| (8..=15).contains(&q.fanout)));
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    cfg: TraceConfig,
    burst: LogNormal,
    zipf: ZipfTable,
}

impl TraceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        assert!(cfg.queries > 0, "empty trace");
        assert!(
            cfg.fanout_min >= 1 && cfg.fanout_min <= cfg.fanout_max,
            "bad fanout range"
        );
        assert!(cfg.rounds >= 1, "need at least one round");
        assert!(cfg.documents > 0, "need documents");
        assert!(
            (0.0..=1.0).contains(&cfg.heavy_fraction),
            "bad heavy fraction"
        );
        let burst = LogNormal::from_median(cfg.burst_median_us * 1_000.0, cfg.burst_sigma);
        let zipf = ZipfTable::new(cfg.documents, cfg.zipf_s);
        TraceGenerator { cfg, burst, zipf }
    }

    /// The configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Generates the trace for a seed. Identical seeds yield identical
    /// traces.
    pub fn generate(&self, seed: u64) -> Vec<QuerySpec> {
        self.generate_n(seed, self.cfg.queries)
    }

    /// Generates a trace of exactly `queries` queries, overriding the
    /// configured count. Used by drivers whose trace length depends on the
    /// offered load (e.g. one trace per fleet minute).
    pub fn generate_n(&self, seed: u64, queries: usize) -> Vec<QuerySpec> {
        let mut rng = SimRng::seed_from_u64(seed);
        let burst = &self.burst;
        let zipf = &self.zipf;
        (0..queries)
            .map(|_| {
                let heavy = rng.bernoulli(self.cfg.heavy_fraction);
                let rounds = if heavy {
                    self.cfg.rounds.saturating_mul(3)
                } else {
                    self.cfg.rounds
                };
                QuerySpec {
                    fanout: rng
                        .range_inclusive(self.cfg.fanout_min as u64, self.cfg.fanout_max as u64)
                        as u8,
                    rounds,
                    burst_ns: burst.sample(&mut rng).clamp(1_000.0, 4.0e6) as u32,
                    doc_rank: zipf.sample_rank(&mut rng) as u32,
                    heavy,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let g = TraceGenerator::new(TraceConfig {
            queries: 500,
            ..Default::default()
        });
        let a = g.generate(7);
        let b = g.generate(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.fanout, y.fanout);
            assert_eq!(x.burst_ns, y.burst_ns);
            assert_eq!(x.doc_rank, y.doc_rank);
        }
        let c = g.generate(8);
        assert!(a
            .iter()
            .zip(c.iter())
            .any(|(x, y)| x.burst_ns != y.burst_ns));
    }

    #[test]
    fn heavy_fraction_approximate() {
        let g = TraceGenerator::new(TraceConfig {
            queries: 20_000,
            heavy_fraction: 0.03,
            ..Default::default()
        });
        let t = g.generate(1);
        let heavy = t.iter().filter(|q| q.heavy).count() as f64 / t.len() as f64;
        assert!((heavy - 0.03).abs() < 0.005, "heavy {heavy}");
        // Heavy queries have triple the rounds.
        let hq = t.iter().find(|q| q.heavy).unwrap();
        let lq = t.iter().find(|q| !q.heavy).unwrap();
        assert_eq!(hq.rounds, lq.rounds * 3);
    }

    #[test]
    fn burst_median_close_to_config() {
        let g = TraceGenerator::new(TraceConfig {
            queries: 20_000,
            ..Default::default()
        });
        let mut bursts: Vec<u32> = g.generate(2).iter().map(|q| q.burst_ns).collect();
        bursts.sort_unstable();
        let median = bursts[bursts.len() / 2] as f64 / 1_000.0;
        assert!((median - 62.0).abs() < 5.0, "median {median}us");
    }

    #[test]
    fn popular_docs_dominate() {
        let g = TraceGenerator::new(TraceConfig {
            queries: 50_000,
            ..Default::default()
        });
        let t = g.generate(3);
        let top_decile = (g.config().documents / 10) as u32;
        let hot = t.iter().filter(|q| q.doc_rank <= top_decile).count() as f64 / t.len() as f64;
        assert!(
            hot > 0.5,
            "Zipf 0.9: top 10% of docs should get >50% of hits, got {hot}"
        );
    }

    #[test]
    fn query_spec_packs_into_twelve_bytes() {
        assert_eq!(std::mem::size_of::<QuerySpec>(), 12);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn zero_queries_rejected() {
        let _ = TraceGenerator::new(TraceConfig {
            queries: 0,
            ..Default::default()
        });
    }
}
