//! Open-loop load generation: deterministic arrival processes and the
//! per-query SLS trace stream.
//!
//! An open-loop generator emits queries on a schedule that does **not**
//! react to the system under test — the defining property of tail-latency
//! methodology (a closed loop self-throttles and hides queueing delay).
//! Both processes here are driven by [`DetRng`], so a (seed, QPS, count)
//! triple always yields the same arrival schedule.
//!
//! Serving draws each query from its [`QueryStream`] when the core
//! dispatches it, so a run holds one query at a time, not its whole
//! stream. The placement plans need the stream's per-table profile
//! before the first dispatch; [`QueryStream::table_profile`] replays
//! only the table choices for that, and draws no rows.

use recnmp_backend::{SlsTrace, TableUsage};
use recnmp_model::{ModelConfig, RecModelKind};
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
use recnmp_types::rng::DetRng;
use recnmp_types::units::qps_to_interarrival_cycles;
use recnmp_types::{ConfigError, Cycle, PhysAddr, SimError, TableId};
use serde::{Deserialize, Serialize};

/// The inter-arrival distribution of the open-loop generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival gaps (memoryless bursty traffic — the
    /// standard model of independent user queries).
    Poisson,
    /// A fixed gap between consecutive queries (perfectly paced traffic;
    /// isolates service-time variance from arrival burstiness).
    Uniform,
}

impl ArrivalProcess {
    /// Short stable label for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Uniform => "uniform",
        }
    }

    /// The arrival cycle of each of `queries` queries at offered rate
    /// `qps`, in non-decreasing order starting after cycle 0.
    ///
    /// # Panics
    ///
    /// Panics when `qps` is not positive and finite.
    pub fn arrival_times(self, qps: f64, queries: usize, rng: &mut DetRng) -> Vec<Cycle> {
        let mean = qps_to_interarrival_cycles(qps);
        let mut t = 0.0f64;
        (0..queries)
            .map(|_| {
                let gap = match self {
                    // Inverse-CDF exponential draw; `1 - u` is in (0, 1]
                    // so the log is finite.
                    ArrivalProcess::Poisson => -mean * (1.0 - rng.unit_f64()).ln(),
                    ArrivalProcess::Uniform => mean,
                };
                t += gap;
                t as Cycle
            })
            .collect()
    }
}

/// The shape of one query: how much SLS work a single inference request
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryShape {
    /// Embedding tables touched per query.
    pub tables: usize,
    /// Samples per query batch (poolings per table).
    pub batch: usize,
    /// Lookups reduced per pooling, before table skew.
    pub pooling: usize,
    /// Skew of per-table traffic: 0 gives every table the same pooling
    /// factor; larger values concentrate lookups on low-numbered tables
    /// with Zipf-like weights `(t+1)^-skew` (Figure 7's observation that
    /// a few tables carry most of the traffic).
    pub table_skew: f64,
    /// Decorrelation stride of the skew: table `t` takes the Zipf weight
    /// of rank `(t * skew_rotate) % tables`, so hotness need not follow
    /// table-id order. The default stride 1 is the identity; a stride
    /// coprime to `tables` permutes the ranks (table 0 stays pinned at
    /// rank 0, every other hot rank scatters across the id space), which
    /// keeps id-ordered placements (hash) honest — they no longer get
    /// the frequency ordering for free.
    pub skew_rotate: usize,
    /// Tables drawn per query: 0 (the default) touches every table each
    /// query; `k > 0` samples `k` distinct tables per query, weighted by
    /// the skew weights, each at the flat [`pooling`](Self::pooling)
    /// factor. Sampling turns the skew from "hot tables pool more" into
    /// "hot tables appear in more queries" — the access pattern that
    /// lets a query avoid a storage tier entirely when none of its
    /// tables live there.
    pub sample_tables: usize,
    /// Zipf exponent of each table's *row* index stream (which rows
    /// within a table get looked up). The default 0.9 is the
    /// production-like skew of the trace conformance suite; the
    /// cache-aware serving workloads raise it (≈1.2) so that a bounded
    /// host cache sees enough repeat rows to matter within a short run.
    pub row_skew: f64,
}

impl QueryShape {
    /// A custom shape with uniform per-table traffic.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn new(tables: usize, batch: usize, pooling: usize) -> Self {
        Self {
            tables,
            batch,
            pooling,
            table_skew: 0.0,
            skew_rotate: 1,
            sample_tables: 0,
            row_skew: 0.9,
        }
        .checked()
    }

    /// Sets the Zipf exponent of the per-table row index streams (see
    /// [`row_skew`](Self::row_skew)).
    ///
    /// # Panics
    ///
    /// Panics when `skew` is negative or not finite.
    pub fn with_row_skew(mut self, skew: f64) -> Self {
        self.row_skew = skew;
        self.checked()
    }

    /// Skews per-table traffic with exponent `skew` (see
    /// [`table_skew`](Self::table_skew)). The total lookups per query
    /// stay close to the uniform shape's; per-table shares follow the
    /// Zipf-like weights.
    ///
    /// # Panics
    ///
    /// Panics when `skew` is negative or not finite.
    pub fn with_table_skew(mut self, skew: f64) -> Self {
        self.table_skew = skew;
        self.checked()
    }

    /// Strides the skew ranks by `rotate` (see
    /// [`skew_rotate`](Self::skew_rotate)), decorrelating table-id order
    /// from traffic order.
    ///
    /// # Panics
    ///
    /// Panics when `rotate` is not coprime to the table count (the rank
    /// map must be a permutation, or two tables would share one weight
    /// and another weight would go unused).
    pub fn with_skew_rotation(mut self, rotate: usize) -> Self {
        self.skew_rotate = rotate;
        self.checked()
    }

    /// Samples `k` distinct tables per query instead of touching all of
    /// them (see [`sample_tables`](Self::sample_tables)).
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero or exceeds the table count.
    pub fn with_table_sampling(mut self, k: usize) -> Self {
        assert!(k > 0, "a table sample must hold at least one table");
        self.sample_tables = k;
        self.checked()
    }

    /// Checks that the shape describes work the query stream can draw.
    /// The builders panic on the same rules, but the fields are public,
    /// so the serving entry points check a shape again before using it.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first bad field: a zero
    /// `tables`, `batch` or `pooling`, a `sample_tables` above `tables`,
    /// a negative or non-finite `table_skew` or `row_skew`, or a
    /// `skew_rotate` that is not coprime to `tables`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, n) in [
            ("tables", self.tables),
            ("batch", self.batch),
            ("pooling", self.pooling),
        ] {
            if n == 0 {
                return Err(ConfigError::new(field, "must be positive"));
            }
        }
        if self.sample_tables > self.tables {
            let msg = format!("{} exceeds {} tables", self.sample_tables, self.tables);
            return Err(ConfigError::new("sample_tables", msg));
        }
        for (field, skew) in [("table_skew", self.table_skew), ("row_skew", self.row_skew)] {
            if !(skew >= 0.0 && skew.is_finite()) {
                let msg = format!("must be finite and non-negative, got {skew}");
                return Err(ConfigError::new(field, msg));
            }
        }
        if gcd(self.skew_rotate, self.tables) != 1 {
            let msg = format!(
                "{} must be coprime to {} tables",
                self.skew_rotate, self.tables
            );
            return Err(ConfigError::new("skew_rotate", msg));
        }
        Ok(())
    }

    /// `self`, after panicking on a field [`validate`](Self::validate)
    /// rejects: the builders' one check.
    fn checked(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("invalid query shape: {e}");
        }
        self
    }

    /// The embedding-side shape of one paper model (`num_tables` tables,
    /// pooling 80) at `batch` samples per query.
    pub fn for_model(kind: RecModelKind, batch: usize) -> Self {
        let cfg = ModelConfig::new(kind);
        Self::new(cfg.num_tables, batch, cfg.pooling)
    }

    /// The reference skewed quick/smoke workload of the placement
    /// artifacts — 8 tables, batch 2, pooling 8, per-table traffic
    /// `(t+1)^-1.5` — one definition shared by `fig19_placement`
    /// (quick), `serve_sweep --placement --smoke` and the placement
    /// acceptance tests, so none can silently measure a different
    /// workload than the committed golden.
    pub fn reference_skewed() -> Self {
        Self::new(8, 2, 8).with_table_skew(1.5)
    }

    /// The pooling factor of every table under the configured skew:
    /// uniformly [`pooling`](Self::pooling) when unskewed, otherwise each
    /// table's Zipf-weighted share of the query's lookup budget (at
    /// least 1, so every table stays referenced). One O(tables) pass —
    /// per-query consumers compute this once and index into it.
    pub fn table_poolings(&self) -> Vec<usize> {
        if self.table_skew == 0.0 {
            return vec![self.pooling; self.tables];
        }
        let weights = self.table_weights();
        let total: f64 = weights.iter().sum();
        let budget = (self.tables * self.pooling) as f64;
        weights
            .iter()
            .map(|w| ((budget * w / total).round() as usize).max(1))
            .collect()
    }

    /// The Zipf-like traffic weight of every table under the configured
    /// skew and rotation (uniformly 1 when unskewed).
    pub fn table_weights(&self) -> Vec<f64> {
        (0..self.tables)
            .map(|i| {
                let rank = (i * self.skew_rotate) % self.tables;
                ((rank + 1) as f64).powf(-self.table_skew)
            })
            .collect()
    }

    /// Embedding lookups one query performs: the sum of the per-table
    /// pooling factors times the batch size, or — under table sampling —
    /// the flat pooling over the sampled tables.
    pub fn lookups_per_query(&self) -> u64 {
        if self.sample_tables > 0 {
            return (self.sample_tables * self.batch * self.pooling) as u64;
        }
        let per_sample: usize = self.table_poolings().iter().sum();
        (self.batch * per_sample) as u64
    }
}

/// Greatest common divisor (Euclid), for the skew-rotation coprimality
/// check.
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A deterministic stream of per-query [`SlsTrace`]s.
///
/// One persistent generator per table keeps the index stream warm across
/// queries (successive queries of one user population share hot entries),
/// and one shared hash translation places every table in a distinct
/// physical region — the same placement idiom the conformance tests use.
#[derive(Debug)]
pub struct QueryStream {
    shape: QueryShape,
    /// Per-table pooling factors, computed once from the shape's skew.
    poolings: Vec<usize>,
    /// Per-table sampling weights and the sampler's own RNG, present
    /// only when the shape samples tables per query.
    sampler: Option<(Vec<f64>, DetRng)>,
    gens: Vec<TraceGenerator>,
}

impl QueryStream {
    /// A stream of `shape`-sized queries over production-like skewed
    /// (Zipf [`QueryShape::row_skew`], default 0.9) index streams. A row
    /// skew of 0 is the uniform stream, the Zipf distribution's `s → 0`
    /// limit.
    pub fn new(shape: QueryShape, seed: u64) -> Self {
        let spec = EmbeddingTableSpec::dlrm_default();
        let dist = if shape.row_skew == 0.0 {
            IndexDistribution::Uniform
        } else {
            IndexDistribution::Zipf { s: shape.row_skew }
        };
        // Every table shares table 0's sampler: one head table per stream.
        let first = TraceGenerator::new(TableId::new(0), spec, dist, seed);
        let gens = (0..shape.tables)
            .map(|t| first.for_table(TableId::new(t as u32), seed.wrapping_add(131 * t as u64)))
            .collect();
        let sampler = (shape.sample_tables > 0).then(|| {
            (
                shape.table_weights(),
                DetRng::seed(seed ^ 0x7ab1_e5a2_90d3_11c7),
            )
        });
        Self {
            shape,
            poolings: shape.table_poolings(),
            sampler,
            gens,
        }
    }

    /// The shape every query of this stream has.
    pub fn shape(&self) -> QueryShape {
        self.shape
    }

    /// Generates the next query, translated with the shared
    /// deterministic placement: one batch per table (pooling factors
    /// following the shape's table skew), or — under table sampling —
    /// one flat-pooling batch per sampled table.
    pub fn next_query(&mut self) -> SlsTrace {
        let batch = self.shape.batch;
        // (table, pooling factor) of each batch, in table order.
        let tables: Vec<(usize, usize)> = match &mut self.sampler {
            None => self.poolings.iter().copied().enumerate().collect(),
            Some((weights, rng)) => {
                let (k, pooling) = (self.shape.sample_tables, self.shape.pooling);
                let mut keyed = Vec::with_capacity(weights.len());
                sample_tables(weights, rng, k, &mut keyed);
                keyed.iter().map(|&(_, t)| (t, pooling)).collect()
            }
        };
        // Draw straight into columns sized exactly for the query.
        let lookups = tables.iter().map(|&(_, pooling)| batch * pooling).sum();
        let mut trace = SlsTrace::with_capacity(tables.len(), tables.len() * batch, lookups);
        for (t, pooling) in tables {
            let g = &mut self.gens[t];
            trace.push_batch(g.table(), *g.spec());
            for _ in 0..batch {
                let rows = (0..pooling).map(|_| g.next_index());
                trace.push_pooling(rows, |row| {
                    PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
                });
            }
        }
        trace
    }

    /// Generates the next `n` queries.
    pub fn take_queries(&mut self, n: usize) -> Vec<SlsTrace> {
        (0..n).map(|_| self.next_query()).collect()
    }

    /// The per-table usage of the next `n` queries, exactly
    /// `TableUsage::from_traces(&self.take_queries(n))`, without drawing
    /// them: the stream itself does not advance. Only a sampling shape
    /// replays its table sampler (on a copy of its RNG); every other
    /// shape touches each table every query, so its profile is closed
    /// form. No row is drawn either way.
    pub fn table_profile(&self, n: usize) -> Vec<TableUsage> {
        let per_sample = self.shape.batch as u64;
        let accesses: Vec<u64> = match &self.sampler {
            None => (self.poolings.iter())
                .map(|&p| n as u64 * per_sample * p as u64)
                .collect(),
            Some((weights, rng)) => {
                let (mut rng, mut keyed) = (rng.clone(), Vec::with_capacity(weights.len()));
                let mut accesses = vec![0; self.shape.tables];
                for _ in 0..n {
                    sample_tables(weights, &mut rng, self.shape.sample_tables, &mut keyed);
                    for &(_, t) in &keyed {
                        accesses[t] += per_sample * self.shape.pooling as u64;
                    }
                }
                accesses
            }
        };
        // A table no query touched has no batch, so no usage record.
        (self.gens.iter().zip(accesses))
            .filter(|&(_, a)| a > 0)
            .map(|(g, a)| TableUsage::new(g.table(), g.spec().bytes(), a))
            .collect()
    }

    /// Bytes per embedding vector of the stream's largest-vector table
    /// (64, an empty trace's, for a stream without tables).
    pub(super) fn vector_bytes(&self) -> u64 {
        let bytes = self.gens.iter().map(|g| g.spec().vector_bytes);
        bytes.max().unwrap_or(64)
    }
}

/// Samples the `k` tables of one query into `keyed` as `(key, table)`,
/// ascending by table: Efraimidis–Spirakis weighted sampling without
/// replacement keys each table `u^(1/w)` and keeps the `k` largest. One
/// RNG draw per table per query, so the stream's draw sequence is
/// independent of `k`.
fn sample_tables(weights: &[f64], rng: &mut DetRng, k: usize, keyed: &mut Vec<(f64, usize)>) {
    keyed.clear();
    let keys = weights.iter().map(|&w| rng.unit_f64().powf(1.0 / w));
    keyed.extend(keys.zip(0..));
    keyed.select_nth_unstable_by(k - 1, |a, b| {
        b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1))
    });
    keyed.truncate(k);
    keyed.sort_unstable_by_key(|&(_, t)| t);
}

/// The offered load of one seeded run: each query's arrival cycle, and
/// the stream its queries are drawn from as they dispatch. Single-node
/// and fleet serving derive both from the seed the same way, so a
/// 1-node fleet replays the bare cluster's workload.
///
/// # Errors
///
/// Returns [`SimError::Config`] when `qps` is not positive and finite,
/// or `shape` fails [`QueryShape::validate`].
pub(super) fn offered_load(
    process: ArrivalProcess,
    qps: f64,
    queries: usize,
    shape: QueryShape,
    seed: u64,
) -> Result<(Vec<Cycle>, QueryStream), SimError> {
    if !(qps > 0.0 && qps.is_finite()) {
        let msg = format!("offered rate must be positive and finite, got {qps}");
        return Err(SimError::Config(ConfigError::new("qps", msg)));
    }
    shape.validate()?;
    let mut rng = DetRng::seed(seed ^ 0xa5a5_5a5a_0f0f_f0f0);
    let arrivals = process.arrival_times(qps, queries, &mut rng);
    Ok((arrivals, QueryStream::new(shape, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_deterministic_and_sorted() {
        let a = ArrivalProcess::Poisson.arrival_times(1e6, 200, &mut DetRng::seed(9));
        let b = ArrivalProcess::Poisson.arrival_times(1e6, 200, &mut DetRng::seed(9));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn poisson_mean_gap_matches_offered_rate() {
        // 1e6 QPS at 1.2 GHz: mean gap 1200 cycles; the 4000-sample mean
        // should land within a few percent.
        let a = ArrivalProcess::Poisson.arrival_times(1e6, 4000, &mut DetRng::seed(3));
        let mean = *a.last().unwrap() as f64 / a.len() as f64;
        assert!((mean - 1200.0).abs() < 120.0, "mean gap {mean}");
    }

    #[test]
    fn uniform_arrivals_are_evenly_paced() {
        let a = ArrivalProcess::Uniform.arrival_times(1e6, 5, &mut DetRng::seed(1));
        assert_eq!(a, vec![1200, 2400, 3600, 4800, 6000]);
    }

    #[test]
    fn model_shapes_follow_table1() {
        let s = QueryShape::for_model(RecModelKind::Rm1Small, 4);
        assert_eq!((s.tables, s.batch, s.pooling), (8, 4, 80));
        assert_eq!(s.lookups_per_query(), 8 * 4 * 80);
    }

    #[test]
    fn table_skew_concentrates_traffic_and_conserves_budget() {
        let flat = QueryShape::new(8, 2, 10);
        assert_eq!(flat.table_poolings()[0], 10);
        assert_eq!(flat.lookups_per_query(), 8 * 2 * 10);

        let skewed = flat.with_table_skew(1.5);
        let poolings = skewed.table_poolings();
        // Monotone non-increasing, table 0 dominates, every table kept.
        assert!(poolings.windows(2).all(|w| w[0] >= w[1]));
        assert!(poolings[0] > 4 * poolings[7]);
        assert!(poolings.iter().all(|&p| p >= 1));
        // The lookup budget stays within rounding of the uniform shape.
        let total = skewed.lookups_per_query() as f64;
        let uniform = flat.lookups_per_query() as f64;
        assert!(
            (total - uniform).abs() / uniform < 0.15,
            "{total} vs {uniform}"
        );
        // The stream honors the skewed poolings.
        let mut s = QueryStream::new(skewed, 3);
        let q = s.next_query();
        assert_eq!(q.total_lookups(), skewed.lookups_per_query());
        for (t, b) in q.batches().enumerate() {
            assert!(b.poolings().all(|p| p.rows().len() == poolings[t]));
        }
    }

    #[test]
    fn skew_rotation_permutes_ranks_and_conserves_budget() {
        let plain = QueryShape::new(8, 2, 10).with_table_skew(1.5);
        let rotated = plain.with_skew_rotation(5);
        let (a, b) = (plain.table_poolings(), rotated.table_poolings());
        // Same multiset of pooling factors, different assignment — the
        // hottest table is no longer id 0.
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        assert_ne!(a, b);
        // Table 0 is pinned at rank 0 (0·r ≡ 0), but the rest scramble:
        // table 1 drops from rank 1 to rank 5 under stride 5.
        assert_eq!(b[0], a[0]);
        assert!(b[1] < a[1]);
        assert_eq!(rotated.lookups_per_query(), plain.lookups_per_query());
        // Stride 1 is the identity, so default shapes are unchanged.
        assert_eq!(plain.with_skew_rotation(1).table_poolings(), a);
    }

    #[test]
    #[should_panic(expected = "coprime")]
    fn non_coprime_rotation_is_rejected() {
        QueryShape::new(8, 2, 10).with_skew_rotation(4);
    }

    #[test]
    fn row_skew_defaults_to_reference_and_raises_repeat_rate() {
        let base = QueryShape::new(4, 2, 8);
        assert!((base.row_skew - 0.9).abs() < f64::EPSILON);
        // The default-skew stream is byte-identical to an explicit 0.9
        // stream — existing goldens see no change from the new knob.
        let mut a = QueryStream::new(base, 11);
        let mut b = QueryStream::new(base.with_row_skew(0.9), 11);
        assert_eq!(a.take_queries(6), b.take_queries(6));
        // A hotter row stream concentrates lookups on fewer distinct
        // rows: count unique addresses over the same query budget.
        let distinct = |shape: QueryShape| {
            let mut s = QueryStream::new(shape, 11);
            let mut seen = std::collections::BTreeSet::new();
            for q in s.take_queries(24) {
                seen.extend(q.flat_addrs().map(|a| a.get()));
            }
            seen.len()
        };
        assert!(distinct(base.with_row_skew(1.2)) < distinct(base));
    }

    #[test]
    fn zero_row_skew_is_a_uniform_stream() {
        // Zero passes `with_row_skew`'s validation; the stream must draw
        // uniform rows instead of panicking on the first Zipf sample.
        let shape = QueryShape::new(2, 2, 8).with_row_skew(0.0);
        let queries = QueryStream::new(shape, 5).take_queries(3);
        assert!(queries
            .iter()
            .all(|q| q.total_lookups() == shape.lookups_per_query()));
        let mut uniform = TraceGenerator::new(
            TableId::new(0),
            EmbeddingTableSpec::dlrm_default(),
            IndexDistribution::Uniform,
            5,
        );
        let rows = queries[0].batch(0).poolings().next().unwrap().rows();
        let want = uniform.flat(8);
        assert!(rows.iter().map(|&r| u64::from(r)).eq(want));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn table_profile_replays_the_stream_exactly(
            tables in 1usize..25,
            sample in 0usize..25,
            size in (1usize..4, 1usize..9),
            skews in (
                proptest::prop_oneof![proptest::strategy::Just(0.0), 0.0f64..3.0],
                proptest::prop_oneof![proptest::strategy::Just(0.0), 0.0f64..1.5],
            ),
            draw in (1usize..48, 0usize..64, 0u64..1_000),
        ) {
            let ((batch, pooling), (table_skew, row_skew)) = (size, skews);
            let (rotate, n, seed) = draw;
            let shape = QueryShape {
                tables,
                batch,
                pooling,
                table_skew,
                // The first stride from `rotate` up that permutes the ranks.
                skew_rotate: (rotate..).find(|&r| gcd(r, tables) == 1).unwrap(),
                sample_tables: sample % (tables + 1),
                row_skew,
            };
            shape.validate().unwrap();
            let profiled = QueryStream::new(shape, seed);
            let profile = profiled.table_profile(n);
            let mut fresh = QueryStream::new(shape, seed);
            let queries = fresh.take_queries(n);
            assert_eq!(profile, TableUsage::from_traces(&queries), "{shape:?}, {n} queries");
            // Profiling leaves the stream where it was: it then yields
            // the fresh stream's queries, and they continue alike.
            let mut profiled = profiled;
            assert_eq!(profiled.take_queries(n), queries);
            assert_eq!(profiled.next_query(), fresh.next_query());
        }
    }

    #[test]
    fn query_stream_is_deterministic() {
        let shape = QueryShape::new(2, 3, 5);
        let mut s1 = QueryStream::new(shape, 7);
        let mut s2 = QueryStream::new(shape, 7);
        let (q1, q2) = (s1.take_queries(4), s2.take_queries(4));
        assert_eq!(q1, q2);
        for q in &q1 {
            assert_eq!(q.total_lookups(), shape.lookups_per_query());
        }
        // Successive queries differ (the index stream advances).
        assert_ne!(q1[0], q1[1]);
    }
}
