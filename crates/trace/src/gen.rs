//! Index-stream generators.

use recnmp_types::rng::DetRng;
use recnmp_types::TableId;
use serde::{Deserialize, Serialize};

use crate::batch::{Pooling, SlsBatch};
use crate::spec::EmbeddingTableSpec;
use crate::zipf::Zipf;

/// Popularity distribution of embedding rows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IndexDistribution {
    /// Every row equally likely — the paper's "random trace" worst case.
    Uniform,
    /// Zipf-distributed popularity with skew `s`; rank 1 is the most
    /// popular row. Models the temporal reuse of production traffic.
    Zipf {
        /// Skew exponent (larger = more concentrated).
        s: f64,
    },
}

/// Deterministic generator of embedding-lookup indices for one table.
///
/// Popularity ranks are scattered over the row space with a multiplicative
/// permutation, so hot rows are spread across pages, banks and cache sets
/// — matching the paper's observation that embedding lookups have
/// essentially no spatial locality.
///
/// # Examples
///
/// ```
/// use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
/// use recnmp_types::TableId;
///
/// let spec = EmbeddingTableSpec::dlrm_default();
/// let mut g = TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Zipf { s: 0.9 }, 42);
/// let batch = g.batch(4, 80); // 4 poolings of 80 lookups
/// assert_eq!(batch.poolings.len(), 4);
/// assert!(batch.poolings.iter().all(|p| p.indices.len() == 80));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    table: TableId,
    spec: EmbeddingTableSpec,
    dist: IndexDistribution,
    /// The Zipf sampler of `dist`, built once: its constants depend only
    /// on the row count and the skew.
    zipf: Option<Zipf>,
    rng: DetRng,
    /// Multiplier of the rank→row permutation (a prime not dividing
    /// `rows`, so coprime with it).
    perm_mult: u64,
    /// Probability that a lookup re-references a recently drawn row — the
    /// *bursty temporal reuse* of production traffic that interleaved
    /// co-location destroys (and table-aware scheduling recovers).
    reuse_p: f64,
    /// Recent unique rows eligible for burst reuse.
    history: std::collections::VecDeque<u64>,
    history_cap: usize,
}

/// A large prime used to scatter popularity ranks over the row space.
const PERM_PRIME: u64 = 982_451_653;

/// The multiplier for the four valid row counts [`PERM_PRIME`] divides,
/// which it would collapse; no valid row count is a multiple of both.
const PERM_PRIME_ALT: u64 = 1_000_000_007;

impl TraceGenerator {
    /// Creates a generator with an explicit seed.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is invalid (see [`EmbeddingTableSpec::validate`]),
    /// under either distribution, or if `dist` is
    /// [`IndexDistribution::Zipf`] with a skew `s` that is not positive
    /// and finite.
    pub fn new(
        table: TableId,
        spec: EmbeddingTableSpec,
        dist: IndexDistribution,
        seed: u64,
    ) -> Self {
        if let Err(e) = spec.validate() {
            panic!("TraceGenerator needs a valid table spec: {e}");
        }
        let zipf = match dist {
            IndexDistribution::Uniform => None,
            IndexDistribution::Zipf { s } => {
                Some(Zipf::new(spec.rows, s).expect("valid Zipf parameters"))
            }
        };
        Self {
            table,
            spec,
            dist,
            zipf,
            rng: DetRng::seed(seed ^ (u32::from(table) as u64) << 32),
            perm_mult: if spec.rows.is_multiple_of(PERM_PRIME) {
                PERM_PRIME_ALT
            } else {
                PERM_PRIME
            },
            reuse_p: 0.0,
            history: std::collections::VecDeque::new(),
            history_cap: 0,
        }
    }

    /// Enables bursty temporal reuse: each lookup re-references one of the
    /// last `window` distinct rows with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn with_burst_reuse(mut self, p: f64, window: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "reuse probability must be in [0,1)"
        );
        self.reuse_p = p;
        self.history_cap = window;
        self
    }

    /// The table this generator draws lookups for.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The table spec.
    pub fn spec(&self) -> &EmbeddingTableSpec {
        &self.spec
    }

    /// The configured distribution.
    pub fn distribution(&self) -> IndexDistribution {
        self.dist
    }

    /// Maps a popularity rank (0 = hottest) to a scattered row index; a
    /// bijection on `0..rows`.
    pub fn rank_to_row(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.spec.rows);
        // rank < rows ≤ 2^32 and perm_mult < 2^30: the product is below
        // 2^62 and cannot wrap.
        rank * self.perm_mult % self.spec.rows
    }

    /// Draws the next row index.
    pub fn next_index(&mut self) -> u64 {
        if self.reuse_p > 0.0 && !self.history.is_empty() && self.rng.chance(self.reuse_p) {
            let i = self.rng.below(self.history.len() as u64) as usize;
            return self.history[i];
        }
        let rank = match &self.zipf {
            None => self.rng.below(self.spec.rows),
            Some(z) => z.sample(&mut self.rng) - 1,
        };
        let row = self.rank_to_row(rank);
        if self.history_cap > 0 {
            if self.history.len() == self.history_cap {
                self.history.pop_front();
            }
            self.history.push_back(row);
        }
        row
    }

    /// Draws a full SLS batch: `batch_size` poolings of `pooling_factor`.
    pub fn batch(&mut self, batch_size: usize, pooling_factor: usize) -> SlsBatch {
        SlsBatch {
            table: self.table,
            spec: self.spec,
            poolings: (0..batch_size)
                .map(|_| Pooling::unweighted(self.flat(pooling_factor)))
                .collect(),
        }
    }

    /// Draws a flat sequence of `n` indices (used by locality studies).
    pub fn flat(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_index()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn spec() -> EmbeddingTableSpec {
        EmbeddingTableSpec::new(100_000, 64)
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TraceGenerator::new(
            TableId::new(1),
            spec(),
            IndexDistribution::Zipf { s: 0.9 },
            7,
        );
        let mut b = TraceGenerator::new(
            TableId::new(1),
            spec(),
            IndexDistribution::Zipf { s: 0.9 },
            7,
        );
        assert_eq!(a.flat(100), b.flat(100));
    }

    #[test]
    fn zipf_prefixes_are_pinned() {
        // The first draws of two skews, fixed so that a change to how the
        // sampler is built or drawn from cannot silently move every trace.
        let prefix = |s| {
            TraceGenerator::new(
                TableId::new(3),
                EmbeddingTableSpec::dlrm_default(),
                IndexDistribution::Zipf { s },
                42,
            )
            .flat(16)
        };
        assert_eq!(
            prefix(0.9),
            [
                137713, 739850, 718897, 711161, 419836, 966762, 258265, 210534, 843432, 344710,
                915108, 536418, 811584, 640151, 278172, 323142
            ]
        );
        assert_eq!(
            prefix(1.2),
            [
                354959, 394735, 373604, 0, 0, 230177, 0, 818560, 235149, 135969, 356202, 903306,
                451653, 488442, 613224, 0
            ]
        );
    }

    #[test]
    fn index_arithmetic_prefixes_are_pinned() {
        // The first draws of the paths the two skews above miss: the
        // uniform stream, the skew whose integral is a plain `ln`, and a
        // row count `PERM_PRIME` divides (so the permutation multiplies
        // by `PERM_PRIME_ALT`).
        let prefix = |spec, dist| TraceGenerator::new(TableId::new(3), spec, dist, 42).flat(16);
        let dlrm = EmbeddingTableSpec::dlrm_default();
        assert_eq!(
            prefix(dlrm, IndexDistribution::Uniform),
            [
                814662, 64971, 417875, 700197, 726027, 308446, 396321, 489031, 198333, 518583,
                456540, 150443, 613403, 882877, 228531, 8873
            ]
        );
        assert_eq!(
            prefix(dlrm, IndexDistribution::Zipf { s: 1.0 }),
            [
                35546, 350849, 838638, 258265, 903306, 45046, 451653, 23153, 399320, 613560,
                604041, 421079, 871489, 648827, 628140, 903306
            ]
        );
        let alt = EmbeddingTableSpec::new(2 * PERM_PRIME, 64);
        assert_eq!(
            prefix(alt, IndexDistribution::Zipf { s: 1.2 }),
            [
                70193416, 782886758, 1951709859, 0, 0, 1053413582, 0, 757779438, 405405339,
                1229409464, 1807224291, 35096708, 1000000007, 228897115, 175483540, 0
            ]
        );
    }

    #[test]
    #[should_panic(expected = "valid Zipf parameters")]
    fn invalid_zipf_skew_panics_at_construction() {
        TraceGenerator::new(
            TableId::new(0),
            spec(),
            IndexDistribution::Zipf { s: 0.0 },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "valid table spec: invalid `rows`: must be positive")]
    fn zero_row_uniform_spec_panics_at_construction() {
        let spec = EmbeddingTableSpec::new(0, 64);
        TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Uniform, 1);
    }

    #[test]
    #[should_panic(expected = "valid table spec: invalid `rows`: must be positive")]
    fn zero_row_zipf_spec_panics_with_the_same_message() {
        let spec = EmbeddingTableSpec::new(0, 64);
        TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Zipf { s: 0.9 }, 1);
    }

    #[test]
    fn rank_to_row_is_a_bijection_on_small_tables() {
        for rows in [1, 2, 3, 7, 64, 1000, 4096, 65_537] {
            let spec = EmbeddingTableSpec::new(rows, 64);
            let g = TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Uniform, 1);
            let mut hit = vec![false; rows as usize];
            for rank in 0..rows {
                let row = g.rank_to_row(rank) as usize;
                assert!(!hit[row], "rows {rows}: row {row} drawn twice");
                hit[row] = true;
            }
        }
    }

    #[test]
    fn permutation_multiplier_is_coprime_with_every_valid_row_count() {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let multiples = (1..=4).flat_map(|k| [k * PERM_PRIME, k * PERM_PRIME_ALT]);
        let edges = [
            1_000_000,
            EmbeddingTableSpec::MAX_ROWS - 1,
            EmbeddingTableSpec::MAX_ROWS,
        ];
        for rows in multiples.chain(edges) {
            let spec = EmbeddingTableSpec::new(rows, 64);
            let g = TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Uniform, 1);
            assert_eq!(gcd(g.perm_mult, rows), 1, "rows {rows}");
            assert_ne!(g.rank_to_row(1), g.rank_to_row(0), "rows {rows}");
            // The largest rank maps in range without wrapping.
            assert!(g.rank_to_row(rows - 1) < rows);
        }
    }

    #[test]
    fn different_tables_get_different_streams() {
        let mut a = TraceGenerator::new(TableId::new(0), spec(), IndexDistribution::Uniform, 7);
        let mut b = TraceGenerator::new(TableId::new(1), spec(), IndexDistribution::Uniform, 7);
        assert_ne!(a.flat(50), b.flat(50));
    }

    #[test]
    fn indices_stay_in_range() {
        let mut g = TraceGenerator::new(
            TableId::new(0),
            spec(),
            IndexDistribution::Zipf { s: 1.2 },
            3,
        );
        for i in g.flat(10_000) {
            assert!(i < spec().rows);
        }
    }

    #[test]
    fn zipf_is_skewed_uniform_is_not() {
        let count_top = |dist, seed| {
            let mut g = TraceGenerator::new(TableId::new(0), spec(), dist, seed);
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for i in g.flat(20_000) {
                *counts.entry(i).or_default() += 1;
            }
            let mut v: Vec<u64> = counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(10).sum::<u64>()
        };
        let zipf_top = count_top(IndexDistribution::Zipf { s: 1.0 }, 5);
        let unif_top = count_top(IndexDistribution::Uniform, 5);
        assert!(
            zipf_top > 4 * unif_top,
            "zipf {zipf_top} vs uniform {unif_top}"
        );
    }

    #[test]
    fn permutation_scatters_hot_ranks() {
        let g = TraceGenerator::new(TableId::new(0), spec(), IndexDistribution::Uniform, 1);
        // Consecutive popularity ranks map to rows far apart.
        let r0 = g.rank_to_row(0);
        let r1 = g.rank_to_row(1);
        let r2 = g.rank_to_row(2);
        assert!(r0.abs_diff(r1) > 1000);
        assert!(r1.abs_diff(r2) > 1000);
    }

    #[test]
    fn permutation_is_injective_on_prefix() {
        let g = TraceGenerator::new(TableId::new(0), spec(), IndexDistribution::Uniform, 1);
        let rows: std::collections::HashSet<u64> = (0..10_000).map(|r| g.rank_to_row(r)).collect();
        assert_eq!(rows.len(), 10_000);
    }

    #[test]
    fn batch_shape() {
        let mut g = TraceGenerator::new(TableId::new(2), spec(), IndexDistribution::Uniform, 9);
        let b = g.batch(8, 80);
        assert_eq!(b.table, TableId::new(2));
        assert_eq!(b.poolings.len(), 8);
        assert_eq!(b.total_lookups(), 8 * 80);
    }
}
