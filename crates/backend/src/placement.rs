//! Embedding-table placement: which channel(s) each table lives on.
//!
//! The paper's premise is that embedding tables are capacity-bound (tens
//! of GBs, Figure 1) and access-skewed (Figure 7). A multi-channel system
//! therefore has a *placement* problem before it has a scheduling one:
//! tables must be assigned to channels under each channel's capacity, and
//! the assignment decides how evenly the hot traffic spreads. This module
//! makes that decision a first-class, inspectable artifact:
//!
//! * [`TableUsage`] — the per-table facts placement needs: footprint in
//!   bytes (from [`EmbeddingTableSpec`](recnmp_trace::EmbeddingTableSpec)
//!   sizes) and observed access counts (from a trace or a profile);
//! * [`PlacementPolicy`] — how tables map to channels: the legacy
//!   [`Hash`](PlacementPolicy::Hash) affinity, capacity-aware greedy
//!   bin-packing, or frequency-balanced placement that equalizes *hot*
//!   traffic and optionally replicates the hottest tables;
//! * [`PlacementPlan`] — the materialized assignment: each table's
//!   replica set, per-channel byte/access accounting, and deterministic
//!   replica picking for dispatch.
//!
//! A plan is built once per workload and consulted per batch — sharding
//! never recomputes a hash. [`SlsTrace::shard`](crate::SlsTrace::shard)
//! and the multi-channel cluster both dispatch through a plan.
//!
//! # Examples
//!
//! ```
//! use recnmp_backend::placement::{PlacementPlan, PlacementPolicy, TableUsage};
//! use recnmp_types::TableId;
//!
//! // One hot table and three cold ones on two channels.
//! let usage = vec![
//!     TableUsage::new(TableId::new(0), 1 << 20, 900),
//!     TableUsage::new(TableId::new(1), 1 << 20, 50),
//!     TableUsage::new(TableId::new(2), 1 << 20, 30),
//!     TableUsage::new(TableId::new(3), 1 << 20, 20),
//! ];
//! let plan = PlacementPlan::build(
//!     2,
//!     None,
//!     &usage,
//!     PlacementPolicy::FrequencyBalanced { replicate: 1 },
//! )
//! .unwrap();
//! // The hot table is replicated on both channels; every table is placed.
//! assert_eq!(plan.replicas(TableId::new(0)).len(), 2);
//! assert!(usage.iter().all(|u| !plan.replicas(u.table).is_empty()));
//! ```

use recnmp_types::{ConfigError, TableId};
use serde::{Deserialize, Serialize};

use crate::trace::SlsTrace;

pub mod fleet;
pub mod tiered;

/// The placement-relevant profile of one embedding table: how big it is
/// and how often a workload touches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableUsage {
    /// The table.
    pub table: TableId,
    /// Footprint in bytes (`rows * vector_bytes` of its spec).
    pub bytes: u64,
    /// Observed lookups targeting this table (trace/profile counts).
    pub accesses: u64,
}

impl TableUsage {
    /// Creates a usage record.
    pub const fn new(table: TableId, bytes: u64, accesses: u64) -> Self {
        Self {
            table,
            bytes,
            accesses,
        }
    }

    /// Aggregates per-table usage over one trace: footprints from the
    /// batch specs, access counts from the actual lookups.
    pub fn from_trace(trace: &SlsTrace) -> Vec<TableUsage> {
        Self::from_traces(std::slice::from_ref(trace))
    }

    /// Aggregates per-table usage over many traces (e.g. a query stream),
    /// sorted by table id.
    pub fn from_traces(traces: &[SlsTrace]) -> Vec<TableUsage> {
        let mut map: std::collections::BTreeMap<TableId, (u64, u64)> =
            std::collections::BTreeMap::new();
        for trace in traces {
            for tb in trace.batches() {
                let entry = map.entry(tb.table()).or_insert((0, 0));
                entry.0 = entry.0.max(tb.spec().bytes());
                entry.1 += tb.lookups();
            }
        }
        map.into_iter()
            .map(|(table, (bytes, accesses))| TableUsage::new(table, bytes, accesses))
            .collect()
    }
}

/// Subtracts expected host-cache-absorbed traffic from a usage profile,
/// yielding the *residual* per-table accesses that will actually reach
/// the channels. `absorbed` pairs tables with the lookup counts a
/// host-side hot-embedding cache is expected to serve (typically from a
/// dry-run of the cache over the query stream); tables not listed absorb
/// nothing. This is what makes placement cache-aware: balancing residual
/// load keeps a table's *post-cache* traffic and its shard co-resident
/// instead of over-weighting hot tables whose heat the host cache
/// already soaks up (RecFlash-style frequency mapping, net of caching).
///
/// # Errors
///
/// Returns a [`ConfigError`] when an absorbed entry names a table absent
/// from `tables`, when a table appears twice in `absorbed`, or when an
/// absorbed count exceeds the table's observed accesses — absorption can
/// never exceed what was offered.
pub fn apply_absorption(
    tables: &[TableUsage],
    absorbed: &[(TableId, u64)],
) -> Result<Vec<TableUsage>, ConfigError> {
    let mut seen = std::collections::BTreeSet::new();
    let mut residual = tables.to_vec();
    for &(table, count) in absorbed {
        if !seen.insert(table) {
            return Err(ConfigError::new(
                "placement",
                format!("table {table} listed twice in absorbed traffic"),
            ));
        }
        let u = residual
            .iter_mut()
            .find(|u| u.table == table)
            .ok_or_else(|| {
                ConfigError::new(
                    "placement",
                    format!("absorbed traffic names unprofiled table {table}"),
                )
            })?;
        if count > u.accesses {
            return Err(ConfigError::new(
                "placement",
                format!(
                    "table {table} absorbs {count} lookups but only {} were observed",
                    u.accesses
                ),
            ));
        }
        u.accesses -= count;
    }
    Ok(residual)
}

/// How tables are assigned to channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlacementPolicy {
    /// Deterministic table affinity: table `t` lives on channel
    /// `t mod channels` — the stateless hash the cluster used before
    /// placement existed, kept as the baseline.
    #[default]
    Hash,
    /// Capacity-aware greedy bin-packing: tables are placed largest-first
    /// onto the channel with the fewest placed bytes that still fits —
    /// balances *footprint*, blind to traffic.
    CapacityGreedy,
    /// Frequency-balanced: tables are placed hottest-first onto the
    /// channel with the least accumulated *access* load, so hot traffic
    /// spreads evenly. The `replicate` hottest tables are additionally
    /// replicated onto every channel they fit on; dispatch picks one
    /// replica per batch with a deterministic replica-picker.
    FrequencyBalanced {
        /// Number of hottest tables to replicate across channels.
        replicate: usize,
    },
}

impl PlacementPolicy {
    /// Short stable label for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::Hash => "hash",
            PlacementPolicy::CapacityGreedy => "capacity-greedy",
            PlacementPolicy::FrequencyBalanced { .. } => "frequency-balanced",
        }
    }

    /// The three canonical policies compared by the placement experiments
    /// (frequency-balanced with one replicated hot table).
    pub const COMPARED: [PlacementPolicy; 3] = [
        PlacementPolicy::Hash,
        PlacementPolicy::CapacityGreedy,
        PlacementPolicy::FrequencyBalanced { replicate: 1 },
    ];
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The materialized table→channel assignment of one workload.
///
/// Built once (from [`TableUsage`] under a [`PlacementPolicy`] and an
/// optional per-channel byte capacity) and consulted per batch; every
/// lookup is O(log tables). Replica sets are sorted channel lists, and
/// [`channel_for`](Self::channel_for) picks among replicas
/// deterministically, so a plan makes sharding reproducible by
/// construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPlan {
    channels: usize,
    policy: PlacementPolicy,
    capacity: Option<u64>,
    /// `(table, replica channels)` sorted by table id for binary search.
    entries: Vec<(TableId, Vec<usize>)>,
    /// Placed bytes per channel (replicas count fully on each channel).
    bytes: Vec<u64>,
    /// Access load per channel (a replicated table's accesses split
    /// evenly across its replicas).
    load: Vec<f64>,
}

impl PlacementPlan {
    /// Builds a plan placing `tables` on `channels` channels under
    /// `policy`, with an optional per-channel byte `capacity`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `channels` is zero, when a table
    /// appears twice in `tables`, or when a table does not fit on any
    /// channel under the capacity bound. (Under
    /// [`PlacementPolicy::Hash`] the channel is fixed by the table id, so
    /// the capacity check applies to that one channel.)
    pub fn build(
        channels: usize,
        capacity: Option<u64>,
        tables: &[TableUsage],
        policy: PlacementPolicy,
    ) -> Result<Self, ConfigError> {
        if channels == 0 {
            return Err(ConfigError::new("placement", "need at least one channel"));
        }
        let mut plan = Self {
            channels,
            policy,
            capacity,
            entries: Vec::with_capacity(tables.len()),
            bytes: vec![0; channels],
            load: vec![0.0; channels],
        };
        let mut seen = std::collections::BTreeSet::new();
        for u in tables {
            if !seen.insert(u.table) {
                return Err(ConfigError::new(
                    "placement",
                    format!("table {} profiled twice", u.table),
                ));
            }
        }

        let mut order: Vec<&TableUsage> = tables.iter().collect();
        match policy {
            PlacementPolicy::Hash => {
                for u in &order {
                    let c = u.table.index() % channels;
                    if !plan.fits(c, u.bytes) {
                        return Err(plan.overflow(u));
                    }
                    plan.place(u, vec![c]);
                }
            }
            PlacementPolicy::CapacityGreedy => {
                // Largest-first onto the least-full channel that fits —
                // the classic greedy bin-balancing heuristic.
                order.sort_by_key(|u| (std::cmp::Reverse(u.bytes), u.table));
                for u in order {
                    let c = (0..channels)
                        .filter(|&c| plan.fits(c, u.bytes))
                        .min_by_key(|&c| (plan.bytes[c], c))
                        .ok_or_else(|| plan.overflow(u))?;
                    plan.place(u, vec![c]);
                }
            }
            PlacementPolicy::FrequencyBalanced { replicate } => {
                // Hottest-first. The `replicate` hottest tables go on
                // every channel with room (at least one); the rest join
                // the channel with the least accumulated access load.
                order.sort_by_key(|u| (std::cmp::Reverse(u.accesses), u.table));
                for (rank, u) in order.into_iter().enumerate() {
                    let replicas: Vec<usize> = if rank < replicate {
                        (0..channels).filter(|&c| plan.fits(c, u.bytes)).collect()
                    } else {
                        (0..channels)
                            .filter(|&c| plan.fits(c, u.bytes))
                            .min_by(|&a, &b| {
                                plan.load[a]
                                    .total_cmp(&plan.load[b])
                                    .then(plan.bytes[a].cmp(&plan.bytes[b]))
                                    .then(a.cmp(&b))
                            })
                            .map(|c| vec![c])
                            .unwrap_or_default()
                    };
                    if replicas.is_empty() {
                        return Err(plan.overflow(u));
                    }
                    plan.place(u, replicas);
                }
            }
        }
        plan.entries.sort_by_key(|(t, _)| *t);
        Ok(plan)
    }

    /// Builds a cache-aware plan: like [`build`](Self::build), but load
    /// balancing weighs each table by its *residual* accesses after the
    /// expected host-cache absorption (see [`apply_absorption`]).
    /// Footprints and capacity bounds are unchanged — the cache absorbs
    /// traffic, not bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] under the conditions of
    /// [`build`](Self::build) and [`apply_absorption`].
    pub fn build_with_absorption(
        channels: usize,
        capacity: Option<u64>,
        tables: &[TableUsage],
        absorbed: &[(TableId, u64)],
        policy: PlacementPolicy,
    ) -> Result<Self, ConfigError> {
        let residual = apply_absorption(tables, absorbed)?;
        Self::build(channels, capacity, &residual, policy)
    }

    /// Whether `bytes` more fit on channel `c` under the capacity bound.
    fn fits(&self, c: usize, bytes: u64) -> bool {
        self.capacity.is_none_or(|cap| self.bytes[c] + bytes <= cap)
    }

    fn overflow(&self, u: &TableUsage) -> ConfigError {
        ConfigError::new(
            "placement",
            format!(
                "no channel can hold table {} ({} bytes) under the per-channel capacity of \
                 {} bytes (placed bytes per channel: {:?})",
                u.table,
                u.bytes,
                self.capacity.unwrap_or(0),
                self.bytes,
            ),
        )
    }

    /// Records `u` on `replicas`, updating the capacity/load accounting.
    fn place(&mut self, u: &TableUsage, replicas: Vec<usize>) {
        debug_assert!(!replicas.is_empty());
        let share = u.accesses as f64 / replicas.len() as f64;
        for &c in &replicas {
            self.bytes[c] += u.bytes;
            self.load[c] += share;
        }
        self.entries.push((u.table, replicas));
    }

    /// Number of channels the plan places onto.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The policy the plan was built under.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The per-channel byte capacity, if bounded.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Number of placed tables.
    pub fn tables(&self) -> usize {
        self.entries.len()
    }

    /// The sorted replica channels of `table`; empty when the table is
    /// not in the plan.
    pub fn replicas(&self, table: TableId) -> &[usize] {
        match self.entries.binary_search_by_key(&table, |(t, _)| *t) {
            Ok(i) => &self.entries[i].1,
            Err(_) => &[],
        }
    }

    /// The deterministic replica-picker: the channel serving a batch for
    /// `table` given a dispatch `salt` (e.g. the batch's arrival index).
    /// Unreplicated tables always return their one channel; replicated
    /// tables rotate through their replica set. `None` for tables the
    /// plan does not place.
    pub fn channel_for(&self, table: TableId, salt: usize) -> Option<usize> {
        let reps = self.replicas(table);
        (!reps.is_empty()).then(|| reps[salt % reps.len()])
    }

    /// Bytes placed on channel `c` (replicas count fully).
    pub fn bytes_on(&self, c: usize) -> u64 {
        self.bytes[c]
    }

    /// Access load attributed to channel `c` (replicated tables split
    /// their accesses evenly across replicas).
    pub fn load_on(&self, c: usize) -> f64 {
        self.load[c]
    }

    /// Access-load imbalance: busiest channel's load over the mean
    /// (1.0 = perfectly even; `channels` = everything on one channel).
    ///
    /// Degenerate-plan convention: a plan with zero total accesses and a
    /// single-channel plan are both perfectly even *by construction* —
    /// there is nothing to spread, or nowhere else to spread it — so both
    /// report exactly 1.0 rather than 0 or NaN.
    pub fn load_imbalance(&self) -> f64 {
        let total: f64 = self.load.iter().sum();
        if total == 0.0 || self.load.len() == 1 {
            return 1.0;
        }
        let max = self.load.iter().copied().fold(0.0f64, f64::max);
        max * self.load.len() as f64 / total
    }

    /// Iterates `(table, replica channels)` in table-id order.
    pub fn assignments(&self) -> impl Iterator<Item = (TableId, &[usize])> {
        self.entries.iter().map(|(t, r)| (*t, r.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(specs: &[(u32, u64, u64)]) -> Vec<TableUsage> {
        specs
            .iter()
            .map(|&(t, bytes, acc)| TableUsage::new(TableId::new(t), bytes, acc))
            .collect()
    }

    #[test]
    fn hash_matches_legacy_affinity() {
        let u = usage(&[(0, 10, 1), (1, 10, 1), (2, 10, 1), (5, 10, 1)]);
        let plan = PlacementPlan::build(3, None, &u, PlacementPolicy::Hash).unwrap();
        for t in [0u32, 1, 2, 5] {
            assert_eq!(plan.replicas(TableId::new(t)), &[t as usize % 3]);
        }
        assert_eq!(plan.tables(), 4);
    }

    #[test]
    fn capacity_greedy_balances_bytes_and_respects_capacity() {
        let u = usage(&[(0, 80, 1), (1, 60, 1), (2, 50, 1), (3, 40, 1)]);
        let plan = PlacementPlan::build(2, Some(120), &u, PlacementPolicy::CapacityGreedy).unwrap();
        // Largest-first: 80→ch0, 60→ch1, 50 fits only ch1 (80+50 > 120),
        // 40→ch0.
        assert_eq!(plan.bytes_on(0), 120);
        assert_eq!(plan.bytes_on(1), 110);
        // A table that fits nowhere errors.
        let big = usage(&[(0, 200, 1)]);
        assert!(PlacementPlan::build(2, Some(120), &big, PlacementPolicy::CapacityGreedy).is_err());
    }

    #[test]
    fn frequency_balanced_equalizes_hot_traffic() {
        // Strong skew: hash would stack tables 0 and 2 (load 100+20) on
        // their hash channels; frequency-balanced pairs hot with cold.
        let u = usage(&[(0, 10, 100), (1, 10, 50), (2, 10, 20), (3, 10, 10)]);
        let plan = PlacementPlan::build(
            2,
            None,
            &u,
            PlacementPolicy::FrequencyBalanced { replicate: 0 },
        )
        .unwrap();
        // 100→ch0, 50→ch1, 20→ch1, 10→ch1: loads 100 vs 80.
        assert_eq!(plan.load_on(0), 100.0);
        assert_eq!(plan.load_on(1), 80.0);
        let hash = PlacementPlan::build(2, None, &u, PlacementPolicy::Hash).unwrap();
        assert!(plan.load_imbalance() < hash.load_imbalance());
    }

    #[test]
    fn replication_splits_hot_load() {
        let u = usage(&[(0, 10, 90), (1, 10, 30), (2, 10, 30)]);
        let plan = PlacementPlan::build(
            3,
            None,
            &u,
            PlacementPolicy::FrequencyBalanced { replicate: 1 },
        )
        .unwrap();
        let reps = plan.replicas(TableId::new(0));
        assert_eq!(reps, &[0, 1, 2]);
        // The hot table's 90 accesses split 30 per replica; tables 1 and
        // 2 then join the least-loaded channels. No channel carries the
        // whole hot table, and total load is conserved.
        let loads: Vec<f64> = (0..3).map(|c| plan.load_on(c)).collect();
        assert_eq!(loads.iter().sum::<f64>(), 150.0);
        assert!(loads.iter().all(|&l| l < 90.0));
        // Deterministic replica rotation.
        assert_eq!(plan.channel_for(TableId::new(0), 0), Some(0));
        assert_eq!(plan.channel_for(TableId::new(0), 4), Some(1));
        assert_eq!(
            plan.channel_for(TableId::new(1), 7),
            plan.replicas(TableId::new(1)).first().copied()
        );
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        let u = usage(&[(0, 10, 1)]);
        assert!(PlacementPlan::build(0, None, &u, PlacementPolicy::Hash).is_err());
        let dup = usage(&[(0, 10, 1), (0, 10, 1)]);
        assert!(PlacementPlan::build(2, None, &dup, PlacementPolicy::Hash).is_err());
        // Hash placement also enforces capacity on its fixed channel.
        let fat = usage(&[(0, 100, 1), (2, 100, 1)]);
        assert!(PlacementPlan::build(2, Some(150), &fat, PlacementPolicy::Hash).is_err());
    }

    #[test]
    fn load_imbalance_convention_on_degenerate_plans() {
        // Zero-access plan: nothing to imbalance, reads as perfectly even.
        let cold = usage(&[(0, 10, 0), (1, 10, 0)]);
        let plan = PlacementPlan::build(2, None, &cold, PlacementPolicy::Hash).unwrap();
        assert_eq!(plan.load_imbalance(), 1.0);
        // Single-channel plan: the one channel always holds the mean.
        let hot = usage(&[(0, 10, 100), (1, 10, 5)]);
        let single = PlacementPlan::build(1, None, &hot, PlacementPolicy::Hash).unwrap();
        assert_eq!(single.load_imbalance(), 1.0);
        // Empty single-channel plan hits both conventions at once.
        let empty = PlacementPlan::build(1, None, &[], PlacementPolicy::Hash).unwrap();
        assert_eq!(empty.load_imbalance(), 1.0);
        // Loaded multi-channel plans are unchanged: all-on-one-channel
        // still reads `channels`.
        let stacked = usage(&[(0, 10, 60), (2, 10, 40)]);
        let skew = PlacementPlan::build(2, None, &stacked, PlacementPolicy::Hash).unwrap();
        assert_eq!(skew.load_imbalance(), 2.0);
    }

    #[test]
    fn absorption_rebalances_residual_load() {
        // Table 0 looks hottest (100 accesses) but the host cache absorbs
        // 95 of them; residual-aware placement treats table 1 as the hot
        // one and pairs 0 with it instead of giving 0 its own channel.
        let u = usage(&[(0, 10, 100), (1, 10, 50), (2, 10, 20), (3, 10, 10)]);
        let absorbed = [(TableId::new(0), 95)];
        let plan = PlacementPlan::build_with_absorption(
            2,
            None,
            &u,
            &absorbed,
            PlacementPolicy::FrequencyBalanced { replicate: 0 },
        )
        .unwrap();
        // Residual: 5, 50, 20, 10 → 50 alone, then 20+10+5 on the other.
        assert_eq!(plan.load_on(0) + plan.load_on(1), 85.0);
        assert_eq!(plan.replicas(TableId::new(1)).len(), 1);
        let blind = PlacementPlan::build(
            2,
            None,
            &u,
            PlacementPolicy::FrequencyBalanced { replicate: 0 },
        )
        .unwrap();
        // The blind plan isolates table 0; the aware plan does not.
        assert_ne!(
            plan.replicas(TableId::new(0)),
            blind.replicas(TableId::new(0))
        );
    }

    #[test]
    fn absorption_validates_its_inputs() {
        let u = usage(&[(0, 10, 100)]);
        // More absorbed than observed.
        assert!(apply_absorption(&u, &[(TableId::new(0), 101)]).is_err());
        // Unknown table.
        assert!(apply_absorption(&u, &[(TableId::new(9), 1)]).is_err());
        // Duplicate absorbed entry.
        assert!(apply_absorption(&u, &[(TableId::new(0), 1), (TableId::new(0), 1)]).is_err());
        // Exact absorption of everything is legal: the table goes cold.
        let residual = apply_absorption(&u, &[(TableId::new(0), 100)]).unwrap();
        assert_eq!(residual[0].accesses, 0);
        // Empty absorption is the identity.
        assert_eq!(apply_absorption(&u, &[]).unwrap(), u);
    }

    #[test]
    fn unknown_table_is_unplaced() {
        let u = usage(&[(0, 10, 1)]);
        let plan = PlacementPlan::build(2, None, &u, PlacementPolicy::Hash).unwrap();
        assert!(plan.replicas(TableId::new(9)).is_empty());
        assert_eq!(plan.channel_for(TableId::new(9), 0), None);
    }

    #[test]
    fn usage_aggregates_traces() {
        use recnmp_trace::{EmbeddingTableSpec, Pooling, SlsBatch};
        use recnmp_types::PhysAddr;
        let batch = |t: u32, lookups: u64| SlsBatch {
            table: TableId::new(t),
            spec: EmbeddingTableSpec::new(1000, 128),
            poolings: vec![Pooling::new((0..lookups).collect())],
        };
        let mk = |batches: &[SlsBatch]| {
            SlsTrace::from_batches(batches, &mut |_, row| PhysAddr::new(row * 128))
        };
        let a = mk(&[batch(0, 5), batch(1, 3)]);
        let b = mk(&[batch(0, 2)]);
        let usage = TableUsage::from_traces(&[a, b]);
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0], TableUsage::new(TableId::new(0), 128_000, 7));
        assert_eq!(usage[1].accesses, 3);
    }
}
