//! Statistical distributions used by the workload models.
//!
//! Implemented in-house (rather than via `rand_distr`) so that sampling is
//! deterministic under our own [`SimRng`] and auditable: each sampler is a
//! few lines of classic textbook math with unit tests pinning its moments.
//! The simulators draw from four of them: [`Exp`] (HDFS gaps, fabric
//! jitter), [`LogNormal`] through [`standard_normal`] (service, compute
//! and disk times), [`ZipfTable`] (document popularity) and
//! [`PoissonProcess`] (open-loop arrivals).

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Samples from a distribution using the simulation RNG.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// Exponential distribution with the given rate `lambda` (mean `1/lambda`).
#[derive(Clone, Copy, Debug)]
pub struct Exp {
    rate: f64,
}

impl Exp {
    /// Creates an exponential distribution with rate `lambda` per unit.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and strictly positive.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be positive: {rate}"
        );
        Exp { rate }
    }

    /// Creates an exponential distribution from its mean.
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and strictly positive.
    pub fn from_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "mean must be positive: {mean}"
        );
        Exp { rate: 1.0 / mean }
    }
}

impl Sample for Exp {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
}

/// Standard normal variate via the Box–Muller transform.
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.next_f64_open();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution parameterised by its *median* and shape `sigma`.
///
/// If `X ~ LogNormal(median, sigma)` then `ln X ~ N(ln median, sigma^2)`,
/// so `P50 = median` and `P99 ≈ median · exp(2.326 · sigma)`. This is the
/// workhorse for service-time modelling: the paper's standalone profile
/// (p50 = 4 ms, p99 = 12 ms) pins `sigma = ln(3)/2.326 ≈ 0.47`.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    ln_median: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from its median and shape.
    ///
    /// # Panics
    ///
    /// Panics unless `median > 0` and `sigma >= 0`, both finite.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(
            median.is_finite() && median > 0.0,
            "median must be positive: {median}"
        );
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative: {sigma}"
        );
        LogNormal {
            ln_median: median.ln(),
            sigma,
        }
    }

    /// Log-normal with median 1 — a pure multiplicative jitter factor.
    ///
    /// Identical to `from_median(1.0, sigma)` (`ln 1 = 0` exactly) but
    /// without the runtime `ln`, for hot paths that build the jitter per
    /// sample site.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma >= 0` and finite.
    pub fn unit_median(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative: {sigma}"
        );
        LogNormal {
            ln_median: 0.0,
            sigma,
        }
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.ln_median + self.sigma * standard_normal(rng)).exp()
    }
}

/// Ranks whose normalized CDF [`ZipfTable`] stores outright. At the trace
/// generator's 200,000 documents and `s = 0.9` they take 69 % of draws.
const ZIPF_HEAD: usize = 1 << 14;
/// Ranks per checkpointed block past the head: a tail draw re-adds fewer
/// than this many terms.
const ZIPF_BLOCK: usize = 16;

/// Zipf distribution over ranks `1..=n` with exponent `s`, sampled by
/// inverting its CDF exactly.
///
/// Used for web-index document popularity, which drives the primary's cache
/// hit ratio.
///
/// # Layout
///
/// `cdf[i]` is the running sum `acc[i] = w(1) + … + w(i+1)` of the weights
/// `w(k) = 1 / k^s`, added in rank order, divided by the full sum. The
/// table stores that value for the 16,384 hottest ranks only. Past them
/// it keeps one `f64` per block of 16 ranks: the running sum before the
/// block. The normalized value at a block's last rank is the next
/// block's running sum over the full sum (the full sum over itself, 1,
/// for the last block), the same division the full table made. A tail
/// draw binary-searches those block-end values for its block, then
/// re-adds the block's weights from its running sum in the original
/// order. Each recomputed value is therefore the same `f64` the full
/// table held, and so is every sampled rank, while 200,000 ranks take
/// 223 kB instead of 1.6 MB.
///
/// # Which rank a draw picks
///
/// A draw `u` maps to the first rank whose `cdf` is at least `u`. The
/// full-table sampler this replaced ran `binary_search_by` over every
/// `cdf` value. Where no value equals `u`, that search returns the
/// insertion point, the index of the first value above `u`: the same
/// rank. Where exactly one value equals `u`, it returns that value's
/// index, also the same rank, since the CDF never decreases. The two can
/// differ only when a draw equals a `cdf` value that repeats, where
/// `binary_search_by` may return any of the equal entries. A draw hits
/// one given value with probability at most 2⁻⁵³.
#[derive(Clone, Debug)]
pub struct ZipfTable {
    s: f64,
    n: usize,
    /// The sum of all `n` weights.
    total: f64,
    /// `cdf[i]` for the first `min(n, ZIPF_HEAD)` ranks.
    head: Vec<f64>,
    /// For each block of `ZIPF_BLOCK` ranks past the head, the running
    /// sum of the weights of every rank before the block.
    tail: Vec<f64>,
}

/// The unnormalized Zipf weight of rank `k`.
#[inline]
fn zipf_weight(k: usize, s: f64) -> f64 {
    1.0 / (k as f64).powf(s)
}

impl ZipfTable {
    /// Builds the table for `n` ranks and exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be non-negative: {s}"
        );
        let head_len = n.min(ZIPF_HEAD);
        let mut head = Vec::with_capacity(head_len);
        let mut tail = Vec::with_capacity((n - head_len).div_ceil(ZIPF_BLOCK));
        let mut acc = 0.0;
        for k in 1..=n {
            let i = k - 1;
            if i >= head_len && (i - head_len).is_multiple_of(ZIPF_BLOCK) {
                tail.push(acc);
            }
            acc += zipf_weight(k, s);
            if i < head_len {
                head.push(acc);
            }
        }
        let total = acc;
        for v in &mut head {
            *v /= total;
        }
        ZipfTable {
            s,
            n,
            total,
            head,
            tail,
        }
    }

    /// Samples a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        self.rank_at(rng.next_f64())
    }

    /// The first rank whose CDF is at least `u`; see the type docs.
    fn rank_at(&self, u: f64) -> usize {
        let i = self.head.partition_point(|&c| c < u);
        if i < self.head.len() {
            return i + 1;
        }
        // Block `b` ends where block `b + 1` begins, so its last CDF is
        // `tail[b + 1] / total`; the last block's is `total / total`, 1,
        // which no draw exceeds. Search the first block whose last CDF is
        // at least `u`.
        let b = self
            .tail
            .get(1..)
            .unwrap_or_default()
            .partition_point(|&next| next / self.total < u);
        let Some(&sum_before) = self.tail.get(b) else {
            return self.n;
        };
        // The block holds ranks `first + 1..=last`. Its last rank needs no
        // term: the search above found its CDF at least `u`.
        let first = self.head.len() + b * ZIPF_BLOCK;
        let last = self.n.min(first + ZIPF_BLOCK);
        let mut acc = sum_before;
        for k in first + 1..last {
            acc += zipf_weight(k, self.s);
            if acc / self.total >= u {
                return k;
            }
        }
        last
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: the constructor rejects `n == 0`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability mass of the top `k` ranks (a cache of the `k` hottest
    /// items yields this hit ratio under independent reference).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn top_k_mass(&self, k: usize) -> f64 {
        assert!(k > 0, "k must be positive");
        let k = k.min(self.n);
        if let Some(&c) = self.head.get(k - 1) {
            return c;
        }
        let b = (k - 1 - self.head.len()) / ZIPF_BLOCK;
        let first = self.head.len() + b * ZIPF_BLOCK;
        let sum = (first + 1..=k).fold(self.tail[b], |acc, r| acc + zipf_weight(r, self.s));
        sum / self.total
    }
}

/// A Poisson arrival process: exponential inter-arrival gaps at `rate_per_sec`.
#[derive(Clone, Copy, Debug)]
pub struct PoissonProcess {
    exp: Exp,
}

impl PoissonProcess {
    /// Creates a process with the given arrival rate (events per second).
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_sec` is finite and strictly positive.
    pub fn new(rate_per_sec: f64) -> Self {
        PoissonProcess {
            exp: Exp::new(rate_per_sec),
        }
    }

    /// Samples the next inter-arrival gap.
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.exp.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn moments(mut draw: impl FnMut(&mut SimRng) -> f64, seed: u64, n: usize) -> (f64, f64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn exp_mean_and_variance() {
        let d = Exp::new(2.0);
        let (mean, var) = moments(|r| d.sample(r), 17, 200_000);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn exp_from_mean() {
        let d = Exp::from_mean(3.0);
        let (mean, _) = moments(|r| d.sample(r), 23, 200_000);
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let (mean, var) = moments(standard_normal, 29, 200_000);
        assert!(mean.abs() < 0.025, "mean {mean}");
        assert!((var - 1.0).abs() < 0.025, "var {var}");
    }

    #[test]
    fn lognormal_median_and_p99() {
        let d = LogNormal::from_median(4.0, 0.4723);
        let mut rng = SimRng::seed_from_u64(31);
        let mut xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = xs[xs.len() / 2];
        let p99 = xs[(xs.len() as f64 * 0.99) as usize];
        assert!((p50 - 4.0).abs() < 0.1, "p50 {p50}");
        // exp(0.4723 * 2.326) ≈ 3.0, so p99 ≈ 12.
        assert!((p99 - 12.0).abs() < 0.5, "p99 {p99}");
    }

    #[test]
    fn zipf_rank_one_is_most_popular() {
        let z = ZipfTable::new(1_000, 1.0);
        let mut rng = SimRng::seed_from_u64(41);
        let mut counts = vec![0u32; 1_001];
        for _ in 0..100_000 {
            counts[z.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        // Rank-1 mass for n=1000, s=1 is 1/H(1000) ≈ 0.1336.
        let p1 = counts[1] as f64 / 100_000.0;
        assert!((p1 - 0.1336).abs() < 0.01, "p1 {p1}");
    }

    #[test]
    fn zipf_top_k_mass_is_monotone() {
        let z = ZipfTable::new(100, 0.9);
        let mut last = 0.0;
        for k in 1..=100 {
            let m = z.top_k_mass(k);
            assert!(m >= last);
            last = m;
        }
        assert!((z.top_k_mass(100) - 1.0).abs() < 1e-12);
    }

    /// The full-table sampler [`ZipfTable`] replaced: every normalized CDF
    /// value, and `binary_search_by` per draw.
    struct FullCdfZipf {
        cdf: Vec<f64>,
    }

    impl FullCdfZipf {
        fn new(n: usize, s: f64) -> Self {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for k in 1..=n {
                acc += 1.0 / (k as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for v in &mut cdf {
                *v /= total;
            }
            FullCdfZipf { cdf }
        }

        fn sample_rank(&self, rng: &mut SimRng) -> usize {
            let u = rng.next_f64();
            match self
                .cdf
                .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
            {
                Ok(i) => i + 1,
                Err(i) => (i + 1).min(self.cdf.len()),
            }
        }
    }

    /// Asserts that `draws` samples from the compact and the full table
    /// agree rank for rank under one seed.
    fn assert_zipf_draws_match(n: usize, s: f64, seed: u64, draws: usize) {
        let (compact, full) = (ZipfTable::new(n, s), FullCdfZipf::new(n, s));
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for d in 0..draws {
            assert_eq!(
                compact.sample_rank(&mut a),
                full.sample_rank(&mut b),
                "n {n}, s {s}, seed {seed}, draw {d}"
            );
        }
    }

    #[test]
    fn zipf_draws_match_the_full_table() {
        for (n, s) in [
            (200_000, 0.9),
            (1_000, 1.0),
            (37, 0.0),
            (1, 0.9),
            (ZIPF_HEAD - 1, 0.9),
            (ZIPF_HEAD, 0.9),
            (ZIPF_HEAD + 1, 0.9),
            (100_003, 2.5),
            (16_400, 3.0),
            (120_000, 4.0),
        ] {
            assert_zipf_draws_match(n, s, 0x21BF ^ n as u64, 200_000);
        }
    }

    /// Draws that land on, just below and just above every tail CDF value
    /// pick the first rank whose CDF is at least the draw. With `s = 3`,
    /// 41,937 of 250,000 values equal the one before, and with `s = 4`
    /// every value from rank 9,741 on is the same.
    #[test]
    fn zipf_tail_edges_pick_the_first_rank_at_or_above_the_draw() {
        for (n, s) in [
            (ZIPF_HEAD + 5 * ZIPF_BLOCK + 3, 0.9),
            (40_000, 0.9),
            (16_400, 3.0),
            (250_000, 3.0),
            (120_000, 4.0),
        ] {
            let (compact, full) = (ZipfTable::new(n, s), FullCdfZipf::new(n, s));
            for &c in &full.cdf[ZIPF_HEAD - 1..] {
                for u in [c.next_down(), c, c.next_up()] {
                    if u < 1.0 {
                        let expect = full.cdf.partition_point(|&v| v < u) + 1;
                        assert_eq!(compact.rank_at(u), expect, "n {n}, s {s}, u {u}");
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_top_k_mass_matches_the_full_table_bit_for_bit() {
        for (n, s) in [
            (200_000, 0.9),
            (ZIPF_HEAD + 7, 1.0),
            (16_400, 3.0),
            (37, 0.0),
        ] {
            let (compact, full) = (ZipfTable::new(n, s), FullCdfZipf::new(n, s));
            // Every rank through the first four tail blocks, both sides
            // of every block edge, and the last rank and one past it.
            let near = 1..(ZIPF_HEAD + 4 * ZIPF_BLOCK).min(n + 2);
            let edges = (0..)
                .map(|b| ZIPF_HEAD + b * ZIPF_BLOCK)
                .take_while(|&k| k <= n);
            for k in near.chain(edges.flat_map(|k| [k, k + 1])).chain([n, n + 1]) {
                assert_eq!(
                    compact.top_k_mass(k).to_bits(),
                    full.cdf[(k - 1).min(n - 1)].to_bits(),
                    "n {n}, s {s}, k {k}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random sizes, exponents and seeds draw the same ranks from the
        /// compact and the full table.
        #[test]
        fn prop_zipf_draws_match_the_full_table(
            n in 1usize..60_000,
            s in 0.0f64..3.0,
            seed in any::<u64>(),
        ) {
            assert_zipf_draws_match(n, s, seed, 4_000);
        }
    }

    #[test]
    fn poisson_process_rate() {
        let p = PoissonProcess::new(2_000.0);
        let mut rng = SimRng::seed_from_u64(43);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_secs_f64()).sum();
        let rate = n as f64 / total;
        assert!((rate - 2_000.0).abs() < 30.0, "rate {rate}");
    }
}
