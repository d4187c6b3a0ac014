//! The shared physical SLS trace served by every backend.
//!
//! A trace is stored flat, like the paper's SLS operator input (one
//! index vector plus per-pooling lengths): one column each of rows,
//! translated addresses, the pooling offsets into them, and one record
//! per batch
//! naming its table, spec and pooling range. Readers borrow
//! [`BatchView`]s; sub-traces copy contiguous column ranges.
//!
//! Rows are stored as `u32`, 4 bytes beside each 8-byte address: a valid
//! [`EmbeddingTableSpec`] has at most 2^32 rows, so every row of a valid
//! table fits, and [`SlsTrace::push_pooling`] refuses one that does not
//! rather than truncate it.

use recnmp_trace::{EmbeddingTableSpec, SlsBatch};
use recnmp_types::{PhysAddr, TableId};
use serde::{Deserialize, Serialize};

use crate::placement::{PlacementPlan, PlacementPolicy, TableUsage};

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

/// One batch: its table and spec, owning poolings `first..end`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct BatchRecord {
    table: TableId,
    spec: EmbeddingTableSpec,
    first: u32,
    end: u32,
}

/// `n` as a stored offset, panicking when it does not fit a `u32`.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("trace offsets fit in u32")
}

/// `row` as a stored row, panicking when it does not fit a `u32`.
fn narrow(row: u64) -> u32 {
    u32::try_from(row).unwrap_or_else(|_| panic!("row {row} does not fit a u32 row column"))
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
    /// Every lookup's row, in batch then pooling order.
    rows: Vec<u32>,
    /// Each row's physical address (the page-mapping step applied once,
    /// so all backends see the same addresses).
    addrs: Vec<PhysAddr>,
    /// Pooling `p` covers lookups `offsets[p]..offsets[p + 1]`; empty
    /// exactly when there are no batches.
    offsets: Vec<u32>,
    batches: Vec<BatchRecord>,
    /// Bursts per vector, shared by every batch and checked to fit the
    /// instruction's `vsize` field.
    bursts: u8,
}

impl SlsTrace {
    /// Builds a trace from logical batches and a shared translation
    /// function (`(table_index, row) → physical address`), called once
    /// per lookup in trace order.
    ///
    /// # Panics
    ///
    /// Panics when batches mix vector sizes: the flat-trace backends
    /// (host, TensorDIMM, Chameleon) read every vector with one burst
    /// count taken from [`bursts_per_vector`](Self::bursts_per_vector),
    /// so a mixed-size trace would be silently mis-served. The paper's
    /// workloads are uniform (128-byte DLRM vectors). Also panics when a
    /// vector spans more than 255 bursts (16,320 bytes), the most an
    /// instruction's `vsize` field encodes, and when a row is 2^32 or
    /// more, past the `u32` row column (no valid spec has such a row).
    pub fn from_batches(
        batches: &[SlsBatch],
        translate: &mut dyn FnMut(usize, u64) -> PhysAddr,
    ) -> Self {
        let poolings = batches.iter().map(SlsBatch::batch_size).sum();
        let lookups = batches.iter().map(SlsBatch::total_lookups).sum();
        let mut trace = Self::with_capacity(batches.len(), poolings, lookups);
        for b in batches {
            trace.push_batch(b.table, b.spec);
            for p in &b.poolings {
                let rows = p.indices.iter().copied();
                trace.push_pooling(rows, |r| translate(b.table.index(), r));
            }
        }
        trace
    }

    /// An empty trace with room for exactly `batches` batches, `poolings`
    /// poolings and `lookups` lookups.
    pub fn with_capacity(batches: usize, poolings: usize, lookups: usize) -> Self {
        Self {
            rows: Vec::with_capacity(lookups),
            addrs: Vec::with_capacity(lookups),
            offsets: Vec::with_capacity(if batches > 0 { poolings + 1 } else { 0 }),
            batches: Vec::with_capacity(batches),
            bursts: 0,
        }
    }

    /// Opens a batch against `table`; the poolings pushed next join it.
    /// Panics as [`from_batches`](Self::from_batches) does.
    pub fn push_batch(&mut self, table: TableId, spec: EmbeddingTableSpec) {
        let bursts = u8::try_from(spec.bursts_per_vector())
            .expect("a vector spans at most 255 bursts (16,320 bytes)");
        let same = |b: &BatchRecord| b.spec.vector_bytes == spec.vector_bytes;
        let uniform = self.batches.first().is_none_or(same);
        assert!(uniform, "SlsTrace requires a uniform vector size");
        if self.batches.is_empty() {
            self.offsets.push(0);
            self.bursts = bursts;
        }
        let first = offset(self.offsets.len() - 1);
        let end = first;
        self.batches.push(BatchRecord {
            table,
            spec,
            first,
            end,
        });
    }

    /// Appends a pooling of `rows` to the open batch, translating each
    /// row in order.
    ///
    /// # Panics
    ///
    /// Panics when no batch is open, and when a row is 2^32 or more: rows
    /// are stored as `u32`, and none is silently truncated.
    pub fn push_pooling(
        &mut self,
        rows: impl IntoIterator<Item = u64>,
        mut translate: impl FnMut(u64) -> PhysAddr,
    ) {
        let batch = self.batches.last_mut().expect("push_batch opens a batch");
        let start = self.rows.len();
        self.rows.extend(rows.into_iter().map(narrow));
        let added = &self.rows[start..];
        (self.addrs).extend(added.iter().map(|&row| translate(u64::from(row))));
        self.offsets.push(offset(self.rows.len()));
        batch.end += 1;
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when the trace holds no batch.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Batch `i`, borrowed.
    pub fn batch(&self, i: usize) -> BatchView<'_> {
        let b = self.batches[i];
        let view = BatchView {
            table: b.table,
            spec: b.spec,
            bursts: self.bursts,
            rows: &self.rows,
            addrs: &self.addrs,
            offsets: &self.offsets,
        };
        view.sub(b.first as usize, b.end as usize)
    }

    /// The batches in arrival order, borrowed.
    pub fn batches(&self) -> impl ExactSizeIterator<Item = BatchView<'_>> + Clone + '_ {
        (0..self.len()).map(|i| self.batch(i))
    }

    /// Total lookups across all batches.
    pub fn total_lookups(&self) -> u64 {
        self.rows.len() as u64
    }

    /// 64-byte bursts per embedding vector (1 for an empty trace).
    pub fn bursts_per_vector(&self) -> u8 {
        self.batches.first().map_or(1, |_| self.bursts)
    }

    /// Bytes per embedding vector (64 for an empty trace).
    pub fn vector_bytes(&self) -> u64 {
        self.batches.first().map_or(64, |b| b.spec.vector_bytes)
    }

    /// Number of distinct tables referenced.
    pub fn tables(&self) -> usize {
        let ids: std::collections::BTreeSet<TableId> =
            self.batches.iter().map(|b| b.table).collect();
        ids.len()
    }

    /// Every lookup's address in arrival order — the flat vector trace
    /// the host baseline and the DIMM-level NMP systems stream.
    pub fn flat_addrs(&self) -> impl Iterator<Item = PhysAddr> + Clone + '_ {
        self.addrs.iter().copied()
    }

    /// The batches whose arrival index `pick` accepts (asked twice per
    /// batch), copied in order into exactly sized columns.
    pub fn select(&self, pick: impl Fn(usize) -> bool) -> SlsTrace {
        let picked = || (0..self.len()).filter(|&i| pick(i)).map(|i| self.batch(i));
        let (n, poolings) = picked().fold((0, 0), |(n, p), b| (n + 1, p + b.batch_size()));
        let lookups = picked().map(|b| b.rows.len()).sum();
        let mut out = Self::with_capacity(n, poolings, lookups);
        for b in picked() {
            out.push_batch(b.table, b.spec);
            let (start, shift) = (b.offsets[0], offset(out.rows.len()));
            out.offsets
                .extend(b.offsets[1..].iter().map(|&o| o - start + shift));
            out.batches.last_mut().expect("just pushed").end += offset(b.batch_size());
            out.rows.extend_from_slice(b.rows);
            out.addrs.extend_from_slice(b.addrs);
        }
        out
    }

    /// Keeps the lookups `keep(table, spec, address)` accepts, asked once
    /// per lookup in trace order, compacting the columns in place. A
    /// pooling left empty leaves its batch; an emptied batch leaves the
    /// trace.
    pub fn retain_lookups(
        &mut self,
        mut keep: impl FnMut(TableId, &EmbeddingTableSpec, PhysAddr) -> bool,
    ) {
        // Write cursors trail the reads; `start` keeps each pooling's
        // original start, which the previous pooling may overwrite.
        let (mut kept, mut poolings, mut batches, mut start) = (0, 0, 0, 0);
        for bi in 0..self.batches.len() {
            let b = self.batches[bi];
            let first = poolings;
            for p in b.first as usize..b.end as usize {
                let (from, end) = (kept, self.offsets[p + 1] as usize);
                for i in start..end {
                    if keep(b.table, &b.spec, self.addrs[i]) {
                        self.rows[kept] = self.rows[i];
                        self.addrs[kept] = self.addrs[i];
                        kept += 1;
                    }
                }
                start = end;
                if kept > from {
                    poolings += 1;
                    self.offsets[poolings] = offset(kept);
                }
            }
            if poolings > first {
                let (first, end) = (offset(first), offset(poolings));
                self.batches[batches] = BatchRecord { first, end, ..b };
                batches += 1;
            }
        }
        if batches == 0 {
            *self = Self::default();
            return;
        }
        self.rows.truncate(kept);
        self.addrs.truncate(kept);
        self.offsets.truncate(poolings + 1);
        self.batches.truncate(batches);
    }

    /// Releases the columns' spare capacity, such as what
    /// [`retain_lookups`](Self::retain_lookups) leaves behind, so a trace
    /// kept for later holds only its own lookups.
    pub fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.batches.shrink_to_fit();
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
        if policy == ShardingPolicy::HashByTable {
            let usage = TableUsage::from_trace(self);
            let plan = PlacementPlan::build(channels, None, &usage, PlacementPolicy::Hash)
                .expect("uncapped hash placement cannot fail");
            return self.shard_with_plan(&plan);
        }
        (0..channels)
            .map(|c| self.select(|i| policy.channel_for(self.batches[i].table, i, channels) == c))
            .collect()
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
        let owner: Vec<usize> = (self.batches.iter().enumerate())
            .map(|(i, b)| {
                let c = plan.channel_for(b.table, i);
                c.unwrap_or_else(|| panic!("table {} missing from placement plan", b.table))
            })
            .collect();
        (0..plan.channels())
            .map(|c| self.select(|i| owner[i] == c))
            .collect()
    }
}

/// A borrowed run of consecutive poolings of one [`SlsTrace`] batch —
/// the whole batch, a packet's chunk of it, or one pooling.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    table: TableId,
    spec: EmbeddingTableSpec,
    bursts: u8,
    rows: &'a [u32],
    addrs: &'a [PhysAddr],
    /// The trace's offsets of these poolings, plus the end of the last;
    /// `offsets[0]` is where `rows` starts in the trace.
    offsets: &'a [u32],
}

impl<'a> BatchView<'a> {
    /// The table this batch targets.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The table's spec.
    pub fn spec(&self) -> EmbeddingTableSpec {
        self.spec
    }

    /// 64-byte bursts per vector, checked when the trace was built.
    pub fn bursts_per_vector(&self) -> u8 {
        self.bursts
    }

    /// Every lookup's row, in pooling order.
    pub fn rows(&self) -> &'a [u32] {
        self.rows
    }

    /// Every lookup's address, in pooling order.
    pub fn addrs(&self) -> &'a [PhysAddr] {
        self.addrs
    }

    /// Lookups in this batch.
    pub fn lookups(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Batch size (number of poolings / output rows).
    pub fn batch_size(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Bytes of output produced (one vector per pooling).
    pub fn output_bytes(&self) -> u64 {
        self.batch_size() as u64 * self.spec.vector_bytes
    }

    /// Poolings `p0..p1` of this view.
    fn sub(self, p0: usize, p1: usize) -> Self {
        let base = self.offsets[0];
        let range = (self.offsets[p0] - base) as usize..(self.offsets[p1] - base) as usize;
        Self {
            rows: &self.rows[range.clone()],
            addrs: &self.addrs[range],
            offsets: &self.offsets[p0..=p1],
            ..self
        }
    }

    /// Runs of at most `n` (positive) poolings, in order.
    pub fn chunks(self, n: usize) -> impl ExactSizeIterator<Item = BatchView<'a>> {
        let poolings = self.batch_size();
        (0..poolings.div_ceil(n)).map(move |k| self.sub(k * n, ((k + 1) * n).min(poolings)))
    }

    /// The poolings one by one, in order.
    pub fn poolings(self) -> impl ExactSizeIterator<Item = BatchView<'a>> {
        self.chunks(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_trace::Pooling;

    fn batch(table: u32, poolings: usize, len: usize) -> SlsBatch {
        SlsBatch {
            table: TableId::new(table),
            spec: EmbeddingTableSpec::dlrm_default(),
            poolings: (0..poolings)
                .map(|p| Pooling::new((0..len as u64).map(|i| i + p as u64).collect()))
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
        for tb in tr.batches() {
            assert_eq!(tb.batch_size(), 2);
            for pooling in tb.poolings() {
                assert_eq!(pooling.rows().len(), pooling.addrs().len());
                for (&row, &addr) in pooling.rows().iter().zip(pooling.addrs()) {
                    assert_eq!(addr.get() & 0xffff_ffff, u64::from(row) * 128);
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
            for b in shard.batches() {
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
        assert!(shards.iter().all(|s| s.len() == 2));
    }

    #[test]
    #[should_panic(expected = "uniform vector size")]
    fn mixed_vector_sizes_are_rejected() {
        let batches = vec![
            SlsBatch {
                table: TableId::new(0),
                spec: EmbeddingTableSpec::new(100, 64),
                poolings: vec![Pooling::new(vec![1, 2])],
            },
            SlsBatch {
                table: TableId::new(1),
                spec: EmbeddingTableSpec::new(100, 256),
                poolings: vec![Pooling::new(vec![3])],
            },
        ];
        SlsTrace::from_batches(&batches, &mut |_, row| PhysAddr::new(row * 64));
    }

    #[test]
    #[should_panic(expected = "at most 255 bursts")]
    fn vectors_past_the_vsize_field_are_rejected() {
        // 16,384 bytes is 256 bursts, which a u8 would wrap to 0.
        let batches = vec![SlsBatch {
            table: TableId::new(0),
            spec: EmbeddingTableSpec::new(100, 16_384),
            poolings: vec![Pooling::new(vec![1])],
        }];
        SlsTrace::from_batches(&batches, &mut |_, row| PhysAddr::new(row * 64));
    }

    #[test]
    #[should_panic(expected = "row 4294967296 does not fit")]
    fn rows_past_u32_are_rejected_by_from_batches() {
        let batches = vec![SlsBatch {
            table: TableId::new(0),
            spec: EmbeddingTableSpec::new(1 << 33, 64),
            poolings: vec![Pooling::new(vec![1, 1 << 32])],
        }];
        SlsTrace::from_batches(&batches, &mut |_, row| PhysAddr::new(row * 64));
    }

    #[test]
    #[should_panic(expected = "row 4294967296 does not fit")]
    fn rows_past_u32_are_rejected_by_push_pooling() {
        let mut tr = SlsTrace::default();
        tr.push_batch(TableId::new(0), EmbeddingTableSpec::new(1 << 33, 64));
        tr.push_pooling([1 << 32], |row| PhysAddr::new(row * 64));
    }

    #[test]
    fn the_largest_u32_row_reads_back_exactly() {
        let max = u64::from(u32::MAX);
        let mut tr = SlsTrace::default();
        tr.push_batch(TableId::new(0), EmbeddingTableSpec::new(1 << 32, 64));
        let mut seen = Vec::new();
        tr.push_pooling([0, max], |row| {
            seen.push(row);
            PhysAddr::new(row * 64)
        });
        assert_eq!(seen, [0, max]);
        let b = tr.batch(0);
        assert_eq!(b.rows(), [0, u32::MAX]);
        assert_eq!(b.addrs()[1], PhysAddr::new(max * 64));
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
            for b in shard.batches() {
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

    #[test]
    fn retain_compacts_in_place_and_drops_emptied_poolings() {
        let mut tr = trace(2);
        // Drop every lookup of table 0 and the odd rows of table 1.
        tr.retain_lookups(|t, _, addr| t.index() == 1 && (addr.get() / 128) % 2 == 0);
        assert_eq!(tr.len(), 1);
        let b = tr.batch(0);
        assert_eq!(b.table(), TableId::new(1));
        let rows: Vec<&[u32]> = b.poolings().map(|p| p.rows()).collect();
        assert_eq!(rows, [&[0, 2, 4][..], &[2, 4]]);
        tr.retain_lookups(|_, _, _| false);
        assert_eq!(tr, SlsTrace::default());
    }
}
