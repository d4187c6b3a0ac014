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

    /// Filters one job's trace through the cache: every lookup of an
    /// admitted table probes it, hits are absorbed (dropped from the
    /// dispatched trace, indices/weights/addresses rebuilt in lockstep),
    /// misses allocate and stay in the trace. Non-admitted tables bypass
    /// the cache and count as misses. Returns the residual trace and the
    /// number of lookups this job absorbed.
    ///
    /// Conservation: over a run, `hits + misses` equals the offered
    /// lookups exactly.
    pub fn filter(&mut self, trace: SlsTrace) -> (SlsTrace, u64) {
        let mut residual = SlsTrace::default();
        let mut job_hits = 0u64;
        for mut batch in trace.batches {
            let table = batch.batch.table;
            if !self.admitted.contains(&table) {
                self.misses += batch.lookups();
                residual.batches.push(batch);
                continue;
            }
            let vbytes = batch.batch.spec.vector_bytes;
            let mut kept_poolings = Vec::with_capacity(batch.batch.poolings.len());
            let mut kept_addrs = Vec::with_capacity(batch.addrs.len());
            for (pooling, addrs) in batch.batch.poolings.drain(..).zip(batch.addrs.drain(..)) {
                let weighted = !pooling.weights.is_empty();
                let mut indices = Vec::with_capacity(pooling.indices.len());
                let mut weights = Vec::with_capacity(pooling.weights.len());
                let mut kept = Vec::with_capacity(addrs.len());
                for (slot, addr) in addrs.iter().enumerate() {
                    if self.cache.access(addr.get()).is_hit() {
                        self.hits += 1;
                        job_hits += 1;
                        self.absorbed_bytes += vbytes;
                        *self.per_table_hits.entry(table).or_insert(0) += 1;
                    } else {
                        self.misses += 1;
                        indices.push(pooling.indices[slot]);
                        if weighted {
                            weights.push(pooling.weights[slot]);
                        }
                        kept.push(*addr);
                    }
                }
                // A fully-absorbed pooling is computed entirely on the
                // host; it leaves the dispatched batch.
                if !indices.is_empty() {
                    kept_poolings.push(recnmp_trace::Pooling { indices, weights });
                    kept_addrs.push(kept);
                }
            }
            if !kept_poolings.is_empty() {
                batch.batch.poolings = kept_poolings;
                batch.addrs = kept_addrs;
                residual.batches.push(batch);
            }
        }
        (residual, job_hits)
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

    /// Returns the cache to cold: contents and every counter cleared.
    /// The placement dry-run uses this so the measured pass starts from
    /// the same cold state a fresh cache would.
    pub fn reset(&mut self) {
        self.cache.reset();
        self.hits = 0;
        self.misses = 0;
        self.absorbed_bytes = 0;
        self.per_table_hits.clear();
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
        for batch in &trace.batches {
            let table = batch.batch.table;
            let vbytes = batch.batch.spec.vector_bytes.min(u64::from(u32::MAX)) as u32;
            for addrs in &batch.addrs {
                for addr in addrs {
                    let e = self.counts.entry(addr.get()).or_insert((0, table, vbytes));
                    e.0 += 1;
                }
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
        let (first, first_hits) = hc.filter(t.clone());
        assert_eq!(first.total_lookups() + first_hits, offered);
        // Re-offering the same traffic hits what the first pass cached.
        let (second, second_hits) = hc.filter(t);
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

    #[test]
    fn filter_rebuilds_indices_and_addrs_in_lockstep() {
        let t = trace(2, 2, 30);
        let usage = TableUsage::from_trace(&t);
        let mut hc = HostCache::build(spec(), &usage, 128).unwrap();
        let _ = hc.filter(t.clone());
        let (residual, _) = hc.filter(t);
        for batch in &residual.batches {
            assert_eq!(batch.batch.poolings.len(), batch.addrs.len());
            for (pooling, addrs) in batch.batch.poolings.iter().zip(&batch.addrs) {
                assert_eq!(pooling.indices.len(), addrs.len());
                assert!(!pooling.indices.is_empty(), "empty poolings are dropped");
            }
        }
    }

    #[test]
    fn reset_restores_cold_behaviour() {
        let t = trace(2, 2, 20);
        let usage = TableUsage::from_trace(&t);
        let mut hc = HostCache::build(spec(), &usage, 128).unwrap();
        let (cold, cold_hits) = hc.filter(t.clone());
        let _ = hc.filter(t.clone());
        hc.reset();
        assert_eq!(hc.stats(), (0, 0, 0));
        assert!(hc.absorbed_profile().is_empty());
        let (again, again_hits) = hc.filter(t);
        assert_eq!(again_hits, cold_hits);
        assert_eq!(again, cold);
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
