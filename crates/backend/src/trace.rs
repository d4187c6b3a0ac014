//! The shared physical SLS trace served by every backend.

use recnmp_trace::SlsBatch;
use recnmp_types::{PhysAddr, TableId};
use serde::{Deserialize, Serialize};

use crate::placement::{PlacementPlan, PlacementPolicy, TableUsage};

/// One SLS batch together with the physical address of every lookup.
///
/// `addrs[p][i]` is the translated address of
/// `batch.poolings[p].indices[i]` — the logical→physical page-mapping
/// step applied once, so all backends see the same addresses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceBatch {
    /// The logical batch (table, spec, poolings).
    pub batch: SlsBatch,
    /// Physical addresses, aligned with the batch's poolings/indices.
    pub addrs: Vec<Vec<PhysAddr>>,
}

impl TraceBatch {
    /// Translates `batch` with `translate` (row → physical address).
    pub fn new(batch: SlsBatch, translate: &mut dyn FnMut(u64) -> PhysAddr) -> Self {
        let addrs = batch
            .poolings
            .iter()
            .map(|p| p.indices.iter().map(|&row| translate(row)).collect())
            .collect();
        Self { batch, addrs }
    }

    /// The table this batch targets.
    pub fn table(&self) -> TableId {
        self.batch.table
    }

    /// Lookups in this batch.
    pub fn lookups(&self) -> u64 {
        self.addrs.iter().map(|p| p.len() as u64).sum()
    }

    /// The addresses in pooling order (the order instruction streams and
    /// flat traces are built in).
    pub fn flat_addrs(&self) -> impl Iterator<Item = PhysAddr> + Clone + '_ {
        self.addrs.iter().flatten().copied()
    }
}

/// How a multi-channel system splits a trace across channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardingPolicy {
    /// Deterministic table affinity: table `t` always lands on channel
    /// `t mod channels`, so a table's working set (and its RankCache
    /// locality) stays on one channel.
    #[default]
    HashByTable,
    /// Batches rotate across channels in arrival order regardless of
    /// table — best load balance, no table affinity.
    RoundRobin,
}

impl ShardingPolicy {
    /// The channel (of `channels`) that batch `arrival_index` targeting
    /// `table` is dispatched to.
    pub fn channel_for(self, table: TableId, arrival_index: usize, channels: usize) -> usize {
        match self {
            ShardingPolicy::HashByTable => table.index() % channels,
            ShardingPolicy::RoundRobin => arrival_index % channels,
        }
    }
}

/// One physical SLS workload: the single source of truth every
/// [`SlsBackend`](crate::SlsBackend) serves.
///
/// Batches are kept in arrival order (the parallel-SLS-thread interleave
/// of production serving); backends derive whatever internal form they
/// need — the flat vector trace for the host baseline and the DIMM-level
/// comparators, or the NMP packet stream for RecNMP.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SlsTrace {
    /// The translated batches, in arrival order.
    pub batches: Vec<TraceBatch>,
}

impl SlsTrace {
    /// Builds a trace from logical batches and a shared translation
    /// function (`(table_index, row) → physical address`).
    ///
    /// # Panics
    ///
    /// Panics when batches mix vector sizes: the flat-trace backends
    /// (host, TensorDIMM, Chameleon) read every vector with one burst
    /// count taken from [`bursts_per_vector`](Self::bursts_per_vector),
    /// so a mixed-size trace would be silently mis-served. The paper's
    /// workloads are uniform (128-byte DLRM vectors).
    pub fn from_batches(
        batches: &[SlsBatch],
        translate: &mut dyn FnMut(usize, u64) -> PhysAddr,
    ) -> Self {
        if let Some(first) = batches.first() {
            assert!(
                batches
                    .iter()
                    .all(|b| b.spec.vector_bytes == first.spec.vector_bytes),
                "SlsTrace requires a uniform vector size across batches"
            );
        }
        Self {
            batches: batches
                .iter()
                .map(|b| {
                    let t = b.table.index();
                    TraceBatch::new(b.clone(), &mut |row| translate(t, row))
                })
                .collect(),
        }
    }

    /// Total lookups across all batches.
    pub fn total_lookups(&self) -> u64 {
        self.batches.iter().map(TraceBatch::lookups).sum()
    }

    /// 64-byte bursts per embedding vector (from the first batch's table
    /// spec; 1 for an empty trace). All batches of one workload share a
    /// vector size, as in the paper's DLRM configuration.
    pub fn bursts_per_vector(&self) -> u8 {
        self.batches
            .first()
            .map_or(1, |b| b.batch.spec.bursts_per_vector() as u8)
    }

    /// Bytes per embedding vector (from the first batch's table spec).
    pub fn vector_bytes(&self) -> u64 {
        self.batches
            .first()
            .map_or(64, |b| b.batch.spec.vector_bytes)
    }

    /// Number of distinct tables referenced.
    pub fn tables(&self) -> usize {
        let mut ids: Vec<usize> = self.batches.iter().map(|b| b.table().index()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Every lookup's address in arrival order — the flat vector trace
    /// the host baseline and the DIMM-level NMP systems stream, borrowed
    /// rather than copied.
    pub fn flat_addrs(&self) -> impl Iterator<Item = PhysAddr> + Clone + '_ {
        self.batches.iter().flat_map(TraceBatch::flat_addrs)
    }

    /// Splits the trace into `channels` sub-traces under `policy`.
    ///
    /// Every batch lands in exactly one shard; shard order preserves
    /// arrival order. Shards may be empty (e.g. more channels than
    /// tables under [`ShardingPolicy::HashByTable`]).
    ///
    /// [`ShardingPolicy::HashByTable`] is served by building a
    /// [`PlacementPlan`] under [`PlacementPolicy::Hash`] and dispatching
    /// through it — the plan is the single sharding mechanism; the
    /// legacy per-batch hash survives only as that plan's policy.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn shard(&self, channels: usize, policy: ShardingPolicy) -> Vec<SlsTrace> {
        assert!(channels > 0, "need at least one channel");
        match policy {
            ShardingPolicy::HashByTable => {
                let usage = TableUsage::from_trace(self);
                let plan = PlacementPlan::build(channels, None, &usage, PlacementPolicy::Hash)
                    .expect("uncapped hash placement cannot fail");
                self.shard_with_plan(&plan)
            }
            ShardingPolicy::RoundRobin => {
                let mut shards = vec![SlsTrace::default(); channels];
                for (i, batch) in self.batches.iter().enumerate() {
                    let c = policy.channel_for(batch.table(), i, channels);
                    shards[c].batches.push(batch.clone());
                }
                shards
            }
        }
    }

    /// Splits the trace across the channels of a [`PlacementPlan`]: each
    /// batch lands on one replica of its table, picked deterministically
    /// from the batch's arrival index. Shard order preserves arrival
    /// order; shards of channels owning no referenced table are empty.
    ///
    /// # Panics
    ///
    /// Panics when a batch references a table the plan does not place —
    /// plans must be built from (a superset of) the workload's tables.
    pub fn shard_with_plan(&self, plan: &PlacementPlan) -> Vec<SlsTrace> {
        let mut shards = vec![SlsTrace::default(); plan.channels()];
        for (i, batch) in self.batches.iter().enumerate() {
            let c = plan
                .channel_for(batch.table(), i)
                .unwrap_or_else(|| panic!("table {} missing from placement plan", batch.table()));
            shards[c].batches.push(batch.clone());
        }
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_trace::{EmbeddingTableSpec, Pooling};

    fn batch(table: u32, poolings: usize, len: usize) -> SlsBatch {
        SlsBatch {
            table: TableId::new(table),
            spec: EmbeddingTableSpec::dlrm_default(),
            poolings: (0..poolings)
                .map(|p| Pooling::unweighted((0..len as u64).map(|i| i + p as u64).collect()))
                .collect(),
        }
    }

    fn trace(tables: u32) -> SlsTrace {
        let batches: Vec<_> = (0..tables).map(|t| batch(t, 2, 5)).collect();
        SlsTrace::from_batches(&batches, &mut |t, row| {
            PhysAddr::new(((t as u64) << 40) | (row * 128))
        })
    }

    #[test]
    fn translation_aligns_with_indices() {
        let tr = trace(2);
        assert_eq!(tr.total_lookups(), 2 * 2 * 5);
        assert_eq!(tr.tables(), 2);
        for tb in &tr.batches {
            for (pooling, addrs) in tb.batch.poolings.iter().zip(&tb.addrs) {
                assert_eq!(pooling.indices.len(), addrs.len());
                for (&row, &addr) in pooling.indices.iter().zip(addrs) {
                    assert_eq!(addr.get() & 0xffff_ffff, row * 128);
                }
            }
        }
    }

    #[test]
    fn flat_preserves_arrival_order() {
        let tr = trace(2);
        let flat: Vec<PhysAddr> = tr.flat_addrs().collect();
        assert_eq!(flat.len(), 20);
        // First batch's lookups precede the second's.
        assert!(flat[..10].iter().all(|a| a.get() >> 40 == 0));
        assert!(flat[10..].iter().all(|a| a.get() >> 40 == 1));
    }

    #[test]
    fn hash_by_table_keeps_tables_whole() {
        let tr = trace(8);
        let shards = tr.shard(4, ShardingPolicy::HashByTable);
        assert_eq!(shards.len(), 4);
        for (c, shard) in shards.iter().enumerate() {
            for b in &shard.batches {
                assert_eq!(b.table().index() % 4, c);
            }
        }
        let total: u64 = shards.iter().map(SlsTrace::total_lookups).sum();
        assert_eq!(total, tr.total_lookups());
    }

    #[test]
    fn round_robin_balances_batches() {
        let tr = trace(8);
        let shards = tr.shard(4, ShardingPolicy::RoundRobin);
        assert!(shards.iter().all(|s| s.batches.len() == 2));
    }

    #[test]
    #[should_panic(expected = "uniform vector size")]
    fn mixed_vector_sizes_are_rejected() {
        let batches = vec![
            SlsBatch {
                table: TableId::new(0),
                spec: EmbeddingTableSpec::new(100, 64),
                poolings: vec![Pooling::unweighted(vec![1, 2])],
            },
            SlsBatch {
                table: TableId::new(1),
                spec: EmbeddingTableSpec::new(100, 256),
                poolings: vec![Pooling::unweighted(vec![3])],
            },
        ];
        SlsTrace::from_batches(&batches, &mut |_, row| PhysAddr::new(row * 64));
    }

    #[test]
    fn plan_sharding_conserves_and_rotates_replicas() {
        let tr = trace(4);
        let usage = TableUsage::from_trace(&tr);
        let plan = PlacementPlan::build(
            2,
            None,
            &usage,
            PlacementPolicy::FrequencyBalanced { replicate: 1 },
        )
        .unwrap();
        let shards = tr.shard_with_plan(&plan);
        assert_eq!(shards.len(), 2);
        let total: u64 = shards.iter().map(SlsTrace::total_lookups).sum();
        assert_eq!(total, tr.total_lookups());
        // Every batch landed on a replica of its table.
        for (c, shard) in shards.iter().enumerate() {
            for b in &shard.batches {
                assert!(plan.replicas(b.table()).contains(&c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "missing from placement plan")]
    fn plan_sharding_rejects_unplaced_tables() {
        let tr = trace(3);
        let usage = TableUsage::from_trace(&trace(1));
        let plan = PlacementPlan::build(2, None, &usage, PlacementPolicy::Hash).unwrap();
        tr.shard_with_plan(&plan);
    }

    #[test]
    fn single_shard_is_identity() {
        let tr = trace(3);
        let shards = tr.shard(1, ShardingPolicy::HashByTable);
        assert_eq!(shards[0], tr);
    }
}
