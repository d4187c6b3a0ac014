//! The host-side hot-embedding cache and the inter-query hot-vector
//! tracker — the serving-layer half of cache-aware serving.
//!
//! [`HostCache`] sits *in front of* dispatch: each job's trace is
//! filtered through a capacity-bounded LRU vector cache restricted to
//! the stream's hottest tables, absorbed lookups are removed from the
//! dispatched work (shards genuinely shrink), and the scheduler charges
//! the host-side hit cost instead. [`HotVectorTracker`] accumulates the
//! dispatched (post-cache) traffic so idle channels can stage the
//! vectors most likely to recur — the candidate source for
//! [`SlsBackend::prefetch_on`](recnmp_backend::SlsBackend::prefetch_on).

use std::collections::{BTreeMap, BTreeSet};

use recnmp_backend::{PlacementPlan, SlsBackend, SlsTrace, TableUsage};
use recnmp_cache::{CacheConfig, SetAssocCache};
use recnmp_types::{ConfigError, Cycle, PhysAddr, TableId};

use super::policy::HostCacheSpec;

/// The host-side hot-embedding cache: a set-associative vector cache
/// (one line per embedding vector) with a hottest-tables admission
/// filter. Purely trace-driven — it tracks presence, not contents.
#[derive(Debug, Clone)]
pub(super) struct HostCache {
    cache: SetAssocCache,
    admitted: BTreeSet<TableId>,
    hit_cycles: Cycle,
    hits: u64,
    misses: u64,
    absorbed_bytes: u64,
    per_table_hits: BTreeMap<TableId, u64>,
}

impl HostCache {
    /// Builds the cache for a stream whose profile is `usage`: lines are
    /// sized to the stream's largest vector and only the
    /// `spec.hot_tables` hottest tables (by observed accesses, ties to
    /// the lower table id) are admitted.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the capacity cannot hold even one
    /// vector-sized line (or is not a power-of-two line multiple).
    pub fn build(
        spec: HostCacheSpec,
        usage: &[TableUsage],
        vector_bytes: u64,
    ) -> Result<Self, ConfigError> {
        let mut by_heat: Vec<&TableUsage> = usage.iter().collect();
        by_heat.sort_by_key(|u| (std::cmp::Reverse(u.accesses), u.table));
        let admitted = by_heat
            .into_iter()
            .take(spec.hot_tables)
            .map(|u| u.table)
            .collect();
        let cache = SetAssocCache::new(CacheConfig::new(
            spec.capacity.get(),
            vector_bytes.max(1),
            8,
        ))?;
        Ok(Self {
            cache,
            admitted,
            hit_cycles: spec.hit_cycles,
            hits: 0,
            misses: 0,
            absorbed_bytes: 0,
            per_table_hits: BTreeMap::new(),
        })
    }

    /// Host-side cycles charged per absorbed lookup.
    pub fn hit_cycles(&self) -> Cycle {
        self.hit_cycles
    }

    /// Filters one job's trace through the cache, in place: every lookup
    /// of an admitted table probes it, hits are absorbed (dropped from
    /// the dispatched trace; a fully-absorbed pooling is computed
    /// entirely on the host and leaves its batch), misses allocate and
    /// stay. Non-admitted tables bypass the cache and count as misses.
    /// Returns the lookups this job absorbed.
    ///
    /// Conservation: over a run, `hits + misses` equals the offered
    /// lookups exactly.
    pub fn filter(&mut self, trace: &mut SlsTrace) -> u64 {
        let mut job_hits = 0u64;
        trace.retain_lookups(|table, spec, addr| {
            // A hit is absorbed: its bytes no longer move on a channel.
            let hit = self.admitted.contains(&table) && self.cache.access(addr.get()).is_hit();
            if hit {
                self.absorbed_bytes += spec.vector_bytes;
                *self.per_table_hits.entry(table).or_insert(0) += 1;
            }
            job_hits += u64::from(hit);
            !hit
        });
        self.hits += job_hits;
        self.misses += trace.total_lookups();
        job_hits
    }

    /// `(hits, misses, absorbed_bytes)` accumulated so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.absorbed_bytes)
    }

    /// Per-table absorbed lookups so far, ascending by table — the
    /// expected-absorption profile
    /// [`apply_absorption`](recnmp_backend::apply_absorption) consumes.
    pub fn absorbed_profile(&self) -> Vec<(TableId, u64)> {
        self.per_table_hits.iter().map(|(&t, &n)| (t, n)).collect()
    }
}

/// Accumulates the dispatched traffic's per-vector access counts and
/// surfaces the hottest candidates — the inter-query prediction that past
/// hot vectors recur (Zipf-skewed index streams make this a good bet).
#[derive(Debug, Clone)]
pub(super) struct HotVectorTracker {
    candidates: usize,
    counts: BTreeMap<u64, (u64, TableId, u32)>,
}

impl HotVectorTracker {
    /// A tracker surfacing the `candidates` hottest vectors.
    pub fn new(candidates: usize) -> Self {
        Self {
            candidates,
            counts: BTreeMap::new(),
        }
    }

    /// Accumulates every lookup of `trace` (call with the *dispatched*
    /// trace: host-cache-absorbed vectors never reach a channel, so
    /// staging them would waste idle budget).
    pub fn observe(&mut self, trace: &SlsTrace) {
        for batch in trace.batches() {
            let table = batch.table();
            let vbytes = batch.spec().vector_bytes.min(u64::from(u32::MAX)) as u32;
            for addr in batch.addrs() {
                let e = self.counts.entry(addr.get()).or_insert((0, table, vbytes));
                e.0 += 1;
            }
        }
    }

    /// The hottest vectors seen so far as `(addr, table, vector_bytes)`,
    /// hottest-first (count descending, ties to the lower address — fully
    /// deterministic).
    pub fn hottest(&self) -> Vec<(u64, TableId, u32)> {
        let mut all: Vec<(u64, u64, TableId, u32)> = self
            .counts
            .iter()
            .map(|(&addr, &(n, table, vb))| (addr, n, table, vb))
            .collect();
        all.sort_by_key(|&(addr, n, _, _)| (std::cmp::Reverse(n), addr));
        all.truncate(self.candidates);
        all.into_iter().map(|(a, _, t, vb)| (a, t, vb)).collect()
    }

    /// Spends each of `node`'s channels idle before `dispatch` staging the
    /// hottest tracked vectors into its RankCaches, and returns the fills.
    /// Candidates route to every channel of `plan` holding a replica of
    /// their table (the scatter picks replicas by backlog at dispatch
    /// time, so any replica may serve them).
    pub fn prefetch(
        &self,
        node: &mut dyn SlsBackend,
        plan: &PlacementPlan,
        dispatch: Cycle,
        free_at: &[Cycle],
    ) -> u64 {
        let mut per_channel: Vec<Vec<PhysAddr>> = vec![Vec::new(); free_at.len()];
        let mut vbytes = vec![0u32; free_at.len()];
        for (addr, table, vb) in self.hottest() {
            for &c in plan.replicas(table) {
                per_channel[c].push(PhysAddr::new(addr));
                vbytes[c] = vbytes[c].max(vb);
            }
        }
        let mut fills = 0;
        for (c, addrs) in per_channel.iter().enumerate() {
            let gap = dispatch.saturating_sub(free_at[c]);
            if !addrs.is_empty() && gap > 0 {
                fills += node.prefetch_on(c, addrs, vbytes[c], gap);
            }
        }
        fills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{QueryShape, QueryStream};
    use recnmp_types::ByteSize;

    fn trace(tables: u32, batch: usize, pool: usize) -> SlsTrace {
        let batches: Vec<recnmp_trace::SlsBatch> = (0..tables)
            .map(|t| {
                recnmp_trace::TraceGenerator::new(
                    TableId::new(t),
                    recnmp_trace::EmbeddingTableSpec::dlrm_default(),
                    recnmp_trace::IndexDistribution::Zipf { s: 0.9 },
                    7 + t as u64,
                )
                .batch(batch, pool)
            })
            .collect();
        SlsTrace::from_batches(&batches, &mut |t, row| {
            PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
        })
    }

    fn spec() -> HostCacheSpec {
        HostCacheSpec {
            capacity: ByteSize::kib(64),
            hot_tables: 2,
            hit_cycles: 2,
        }
    }

    #[test]
    fn filter_conserves_lookups_and_shrinks_reoffered_traffic() {
        let t = trace(4, 4, 20);
        let offered = t.total_lookups();
        let usage = TableUsage::from_trace(&t);
        let mut hc = HostCache::build(spec(), &usage, 128).unwrap();
        let mut first = t.clone();
        let first_hits = hc.filter(&mut first);
        assert_eq!(first.total_lookups() + first_hits, offered);
        // Re-offering the same traffic hits what the first pass cached.
        let mut second = t;
        let second_hits = hc.filter(&mut second);
        assert!(second_hits > first_hits);
        assert!(second.total_lookups() < first.total_lookups());
        let (hits, misses, bytes) = hc.stats();
        assert_eq!(hits + misses, 2 * offered, "conservation over the run");
        assert_eq!(hits, first_hits + second_hits);
        assert_eq!(bytes, hits * 128);
        // Only admitted (hot) tables absorb.
        let admitted: Vec<TableId> = hc.absorbed_profile().iter().map(|&(t, _)| t).collect();
        assert!(admitted.len() <= 2);
        assert!(hc.absorbed_profile().iter().all(|&(_, n)| n > 0));
    }

    /// One residual lookup `(row, address)`, pooling and batch.
    type Lookups = Vec<(u32, PhysAddr)>;
    type Residual = Vec<(TableId, Vec<Lookups>)>;

    /// Filters `queries` the slow way, per lookup and in order, with a
    /// copy of `hc`'s admission set and cache: admitted lookups probe,
    /// hits leave, and emptied poolings and batches leave too. Returns
    /// each query's residual and hit count.
    fn probe_reference(hc: &HostCache, queries: &[SlsTrace]) -> (Vec<Residual>, Vec<u64>) {
        let mut cache = hc.cache.clone();
        let mut residuals = Vec::new();
        let mut hits = Vec::new();
        for q in queries {
            let (mut residual, mut n) = (Residual::new(), 0);
            for b in q.batches() {
                let mut poolings = Vec::new();
                for p in b.poolings() {
                    let mut kept = Lookups::new();
                    for (&row, &addr) in p.rows().iter().zip(p.addrs()) {
                        if hc.admitted.contains(&b.table()) && cache.access(addr.get()).is_hit() {
                            n += 1;
                        } else {
                            kept.push((row, addr));
                        }
                    }
                    if !kept.is_empty() {
                        poolings.push(kept);
                    }
                }
                if !poolings.is_empty() {
                    residual.push((b.table(), poolings));
                }
            }
            residuals.push(residual);
            hits.push(n);
        }
        (residuals, hits)
    }

    /// Asserts that `filter`ing `queries` in order through a fresh
    /// `spec` cache compacts them to the reference residuals and hit
    /// counts, conserving lookups. Returns the total hits.
    fn assert_filtering_matches_reference(spec: HostCacheSpec, queries: &[SlsTrace]) -> u64 {
        let mut hc = HostCache::build(spec, &TableUsage::from_traces(queries), 128).unwrap();
        let (want, want_hits) = probe_reference(&hc, queries);
        let mut filtered = queries.to_vec();
        let hits: Vec<u64> = filtered.iter_mut().map(|q| hc.filter(q)).collect();
        assert_eq!(hits, want_hits);
        for (q, want) in filtered.iter().zip(&want) {
            let got: Residual = (q.batches())
                .map(|b| {
                    let poolings = b.poolings().map(|p| {
                        p.rows()
                            .iter()
                            .copied()
                            .zip(p.addrs().iter().copied())
                            .collect()
                    });
                    (b.table(), poolings.collect())
                })
                .collect();
            assert_eq!(&got, want);
        }
        let offered: u64 = queries.iter().map(SlsTrace::total_lookups).sum();
        let (hits, misses, bytes) = hc.stats();
        assert_eq!(hits, want_hits.iter().sum::<u64>());
        assert_eq!(hits + misses, offered, "conservation");
        assert_eq!(bytes, hits * 128);
        hits
    }

    #[test]
    fn dry_run_matches_per_lookup_probing() {
        let jobs = [trace(4, 4, 20), trace(4, 2, 30), trace(3, 4, 20)];
        assert!(
            assert_filtering_matches_reference(spec(), &jobs) > 0,
            "the jobs must hit"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn filter_all_matches_per_lookup_probing(
            tables in 1usize..6,
            batch in 1usize..4,
            pooling in 1usize..16,
            queries in 1usize..10,
            hot_tables in 0usize..5,
            kib_log in 0u32..4,
            seed in 0u64..1_000,
        ) {
            let shape = QueryShape::new(tables, batch, pooling).with_row_skew(1.3);
            let queries = QueryStream::new(shape, seed).take_queries(queries);
            let spec = HostCacheSpec {
                capacity: ByteSize::kib(1 << kib_log),
                hot_tables,
                hit_cycles: 2,
            };
            assert_filtering_matches_reference(spec, &queries);
        }
    }

    #[test]
    fn tracker_ranks_by_count_then_address() {
        let t = trace(2, 4, 25);
        let mut tr = HotVectorTracker::new(8);
        tr.observe(&t);
        let hot = tr.hottest();
        assert_eq!(hot.len(), 8);
        // Deterministic: observing the same trace again doubles counts
        // but preserves the ranking.
        let mut tr2 = HotVectorTracker::new(8);
        tr2.observe(&t);
        tr2.observe(&t);
        assert_eq!(
            hot.iter().map(|h| h.0).collect::<Vec<_>>(),
            tr2.hottest().iter().map(|h| h.0).collect::<Vec<_>>()
        );
        assert!(hot.iter().all(|&(_, _, vb)| vb == 128));
    }
}
