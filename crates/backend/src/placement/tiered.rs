//! Capacity-tiered placement: DRAM-NMP channels for the hot tables, an
//! SSD near-data tier for the cold tail.
//!
//! The flat [`PlacementPlan`] assumes every table
//! fits in channel DRAM. Production embedding footprints do not (ROADMAP
//! item 3: multi-TB models vs. tens of GB of channel DRAM), so this module
//! adds a second, much larger but much slower tier and makes the
//! hot/cold split an explicit placement decision, RecFlash-style:
//!
//! * [`TierSpec`] — the capacity geometry: how many DRAM channels and SSD
//!   units exist and how many bytes each holds ([`ByteSize`]-typed);
//! * [`TieredPolicy`] — [`Hash`](TieredPolicy::Hash) (frequency-blind
//!   DRAM-first spill, the baseline) vs.
//!   [`FrequencyTiered`](TieredPolicy::FrequencyTiered) (hottest tables
//!   claim DRAM, the cold tail goes to SSD);
//! * [`TieredPlacementPlan`] — the materialized assignment over the
//!   *combined* unit space (DRAM channels `0..d`, SSD units `d..d+s`),
//!   holding a flat [`PlacementPlan`] so every
//!   existing scatter/shard consumer works unchanged, plus per-tier
//!   accounting;
//! * [`PromotionPolicy`] / [`TieredPlacementPlan::epoch_rebalance`] — the
//!   epoch loop: observe an epoch of traffic, rebuild frequency-tiered
//!   with a hysteresis bonus for resident tables, and report
//!   promotions/demotions with a modeled migration cost.
//!
//! # Examples
//!
//! ```
//! use recnmp_backend::placement::tiered::{
//!     StorageTier, TierSpec, TieredPlacementPlan, TieredPolicy,
//! };
//! use recnmp_backend::placement::TableUsage;
//! use recnmp_types::{ByteSize, TableId};
//!
//! // Two 1 MiB DRAM channels and one big SSD unit; three 1 MiB tables,
//! // so one table must spill.
//! let spec = TierSpec {
//!     dram_channels: 2,
//!     dram_channel_capacity: ByteSize::mib(1),
//!     ssd_units: 1,
//!     ssd_unit_capacity: ByteSize::gib(1),
//! };
//! let usage = vec![
//!     TableUsage::new(TableId::new(0), 1 << 20, 10),
//!     TableUsage::new(TableId::new(1), 1 << 20, 900),
//!     TableUsage::new(TableId::new(2), 1 << 20, 90),
//! ];
//! let plan = TieredPlacementPlan::build(
//!     spec,
//!     &usage,
//!     TieredPolicy::FrequencyTiered { replicate_hot: 0 },
//! )
//! .unwrap();
//! // The two hot tables hold the DRAM channels; the coldest spills.
//! assert_eq!(plan.tier_of_table(TableId::new(1)), Some(StorageTier::Dram));
//! assert_eq!(plan.tier_of_table(TableId::new(0)), Some(StorageTier::Ssd));
//! ```

use recnmp_types::units::KIB;
use recnmp_types::{ByteSize, ConfigError, Cycle, TableId};
use serde::{Deserialize, Serialize};

use super::{PlacementPlan, PlacementPolicy, TableUsage};

/// The two storage tiers of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StorageTier {
    /// Near-memory DRAM channels — fast, capacity-bound.
    Dram,
    /// Near-data SSD units — slow, effectively capacity-unbound.
    Ssd,
}

impl StorageTier {
    /// Both tiers, DRAM first.
    pub const ALL: [StorageTier; 2] = [StorageTier::Dram, StorageTier::Ssd];

    /// Short stable label for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StorageTier::Dram => "dram",
            StorageTier::Ssd => "ssd",
        }
    }
}

impl std::fmt::Display for StorageTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The capacity geometry of a tiered system: unit counts and per-unit
/// byte capacities for both tiers.
///
/// Units are numbered over a combined space — DRAM channels first
/// (`0..dram_channels`), then SSD units — so a flat
/// [`PlacementPlan`] over `units()` channels
/// describes a tiered assignment and existing scatter machinery needs no
/// changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierSpec {
    /// Number of DRAM-NMP channels.
    pub dram_channels: usize,
    /// Byte capacity of each DRAM channel.
    pub dram_channel_capacity: ByteSize,
    /// Number of SSD near-data units.
    pub ssd_units: usize,
    /// Byte capacity of each SSD unit.
    pub ssd_unit_capacity: ByteSize,
}

impl TierSpec {
    /// Total units across both tiers.
    pub fn units(&self) -> usize {
        self.dram_channels + self.ssd_units
    }

    /// The tier a combined-space unit index belongs to.
    ///
    /// # Panics
    ///
    /// Panics when `unit >= self.units()`.
    pub fn tier_of(&self, unit: usize) -> StorageTier {
        assert!(unit < self.units(), "unit {unit} out of range");
        if unit < self.dram_channels {
            StorageTier::Dram
        } else {
            StorageTier::Ssd
        }
    }

    /// Byte capacity of a combined-space unit.
    pub fn capacity_of(&self, unit: usize) -> u64 {
        match self.tier_of(unit) {
            StorageTier::Dram => self.dram_channel_capacity.get(),
            StorageTier::Ssd => self.ssd_unit_capacity.get(),
        }
    }

    /// Combined-space unit indices of `tier`.
    pub fn unit_range(&self, tier: StorageTier) -> std::ops::Range<usize> {
        match tier {
            StorageTier::Dram => 0..self.dram_channels,
            StorageTier::Ssd => self.dram_channels..self.units(),
        }
    }

    /// Total byte capacity of `tier`.
    pub fn tier_capacity(&self, tier: StorageTier) -> u64 {
        match tier {
            StorageTier::Dram => self.dram_channels as u64 * self.dram_channel_capacity.get(),
            StorageTier::Ssd => self.ssd_units as u64 * self.ssd_unit_capacity.get(),
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.dram_channels == 0 {
            return Err(ConfigError::new(
                "tiered-placement",
                "need at least one DRAM channel",
            ));
        }
        Ok(())
    }
}

/// How tables are split across tiers and spread within them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TieredPolicy {
    /// Frequency-blind baseline: table `t` homes on DRAM channel
    /// `t mod dram_channels`, wrap-scans DRAM for the first channel with
    /// room, and only then spills to SSD (same wrap-scan over units).
    /// DRAM-preferring but blind to traffic, so under skew it strands hot
    /// tables on the slow tier exactly as often as cold ones.
    #[default]
    Hash,
    /// RecFlash-style frequency split: tables are placed hottest-first;
    /// each joins the least-loaded DRAM channel with room, and falls to
    /// the least-loaded SSD unit only when no DRAM channel fits — so the
    /// cold tail, and only the cold tail, lives on SSD. The
    /// `replicate_hot` hottest tables are additionally replicated across
    /// every DRAM channel they fit on.
    FrequencyTiered {
        /// Number of hottest tables to replicate across DRAM channels.
        replicate_hot: usize,
    },
}

impl TieredPolicy {
    /// Short stable label for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TieredPolicy::Hash => "tiered-hash",
            TieredPolicy::FrequencyTiered { .. } => "tiered-frequency",
        }
    }

    /// The two policies the capacity experiments compare.
    pub const COMPARED: [TieredPolicy; 2] = [
        TieredPolicy::Hash,
        TieredPolicy::FrequencyTiered { replicate_hot: 0 },
    ];
}

impl std::fmt::Display for TieredPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The materialized tiered assignment: a flat
/// [`PlacementPlan`] over the combined unit space
/// plus the [`TierSpec`] that gives those units capacities and tiers.
///
/// Replica sets never span tiers (replication is DRAM-only), so a table
/// has exactly one tier and [`tier_of_table`](Self::tier_of_table) is
/// well-defined.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieredPlacementPlan {
    spec: TierSpec,
    policy: TieredPolicy,
    flat: PlacementPlan,
}

impl TieredPlacementPlan {
    /// Builds a tiered plan placing `tables` under `policy`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the spec has no DRAM channels, when
    /// a table appears twice, or when a table fits on no unit of either
    /// tier.
    pub fn build(
        spec: TierSpec,
        tables: &[TableUsage],
        policy: TieredPolicy,
    ) -> Result<Self, ConfigError> {
        spec.validate()?;
        let mut seen = std::collections::BTreeSet::new();
        for u in tables {
            if !seen.insert(u.table) {
                return Err(ConfigError::new(
                    "tiered-placement",
                    format!("table {} profiled twice", u.table),
                ));
            }
        }
        let units = spec.units();
        // The embedded flat plan carries the closest legacy policy label
        // and no uniform capacity: per-unit bounds are heterogeneous
        // across tiers, so this module enforces them itself via `fits`.
        let mut flat = PlacementPlan {
            channels: units,
            policy: match policy {
                TieredPolicy::Hash => PlacementPolicy::Hash,
                TieredPolicy::FrequencyTiered { replicate_hot } => {
                    PlacementPolicy::FrequencyBalanced {
                        replicate: replicate_hot,
                    }
                }
            },
            capacity: None,
            entries: Vec::with_capacity(tables.len()),
            bytes: vec![0; units],
            load: vec![0.0; units],
        };
        let fits = |flat: &PlacementPlan, unit: usize, bytes: u64| {
            flat.bytes[unit] + bytes <= spec.capacity_of(unit)
        };
        let overflow = |flat: &PlacementPlan, u: &TableUsage| {
            ConfigError::new(
                "tiered-placement",
                format!(
                    "no unit of either tier can hold table {} ({} bytes; DRAM cap {}, SSD cap {}, \
                     placed bytes per unit: {:?})",
                    u.table,
                    u.bytes,
                    spec.dram_channel_capacity,
                    spec.ssd_unit_capacity,
                    flat.bytes,
                ),
            )
        };

        let mut order: Vec<&TableUsage> = tables.iter().collect();
        match policy {
            TieredPolicy::Hash => {
                // Deterministic in table-id order regardless of input
                // order, matching the flat hash policy's spirit.
                order.sort_by_key(|u| u.table);
                for u in order {
                    let home = u.table.index() % spec.dram_channels;
                    let dram = (0..spec.dram_channels)
                        .map(|i| (home + i) % spec.dram_channels)
                        .find(|&c| fits(&flat, c, u.bytes));
                    let unit = dram.or_else(|| {
                        (spec.ssd_units > 0)
                            .then(|| {
                                (0..spec.ssd_units)
                                    .map(|i| {
                                        spec.dram_channels + (u.table.index() + i) % spec.ssd_units
                                    })
                                    .find(|&s| fits(&flat, s, u.bytes))
                            })
                            .flatten()
                    });
                    match unit {
                        Some(c) => flat.place(u, vec![c]),
                        None => return Err(overflow(&flat, u)),
                    }
                }
            }
            TieredPolicy::FrequencyTiered { replicate_hot } => {
                order.sort_by_key(|u| (std::cmp::Reverse(u.accesses), u.table));
                for (rank, u) in order.into_iter().enumerate() {
                    if rank < replicate_hot {
                        let replicas: Vec<usize> = spec
                            .unit_range(StorageTier::Dram)
                            .filter(|&c| fits(&flat, c, u.bytes))
                            .collect();
                        if !replicas.is_empty() {
                            flat.place(u, replicas);
                            continue;
                        }
                        // No DRAM room to replicate: fall through and
                        // place the table like any other.
                    }
                    let pick = |range: std::ops::Range<usize>, flat: &PlacementPlan| {
                        range.filter(|&c| fits(flat, c, u.bytes)).min_by(|&a, &b| {
                            flat.load[a]
                                .total_cmp(&flat.load[b])
                                .then(flat.bytes[a].cmp(&flat.bytes[b]))
                                .then(a.cmp(&b))
                        })
                    };
                    let unit = pick(spec.unit_range(StorageTier::Dram), &flat)
                        .or_else(|| pick(spec.unit_range(StorageTier::Ssd), &flat));
                    match unit {
                        Some(c) => flat.place(u, vec![c]),
                        None => return Err(overflow(&flat, u)),
                    }
                }
            }
        }
        flat.entries.sort_by_key(|(t, _)| *t);
        Ok(Self { spec, policy, flat })
    }

    /// The capacity geometry the plan was built for.
    pub fn spec(&self) -> TierSpec {
        self.spec
    }

    /// The policy the plan was built under.
    pub fn policy(&self) -> TieredPolicy {
        self.policy
    }

    /// The flat combined-space plan — what scatter/shard machinery
    /// consumes. DRAM channels are units `0..dram_channels`, SSD units
    /// follow.
    pub fn flat(&self) -> &PlacementPlan {
        &self.flat
    }

    /// The tier `table` lives on; `None` when the plan does not place it.
    /// Well-defined because replica sets never span tiers.
    pub fn tier_of_table(&self, table: TableId) -> Option<StorageTier> {
        self.flat
            .replicas(table)
            .first()
            .map(|&c| self.spec.tier_of(c))
    }

    /// Number of tables resident on `tier`.
    pub fn tables_in(&self, tier: StorageTier) -> usize {
        self.flat
            .assignments()
            .filter(|(_, reps)| reps.first().is_some_and(|&c| self.spec.tier_of(c) == tier))
            .count()
    }

    /// Bytes placed on `tier` (replicas count fully).
    pub fn bytes_in(&self, tier: StorageTier) -> u64 {
        self.spec
            .unit_range(tier)
            .map(|c| self.flat.bytes_on(c))
            .sum()
    }

    /// Access load attributed to `tier`.
    pub fn load_in(&self, tier: StorageTier) -> f64 {
        self.spec
            .unit_range(tier)
            .map(|c| self.flat.load_on(c))
            .sum()
    }

    /// Fraction of all placed accesses that `tier` serves; zero when the
    /// plan carries no accesses.
    pub fn load_share(&self, tier: StorageTier) -> f64 {
        let total: f64 = StorageTier::ALL.iter().map(|&t| self.load_in(t)).sum();
        if total == 0.0 {
            0.0
        } else {
            self.load_in(tier) / total
        }
    }

    /// One epoch of the promotion/demotion loop: rebuilds a
    /// frequency-tiered plan from `observed` usage — with resident DRAM
    /// tables' access counts inflated by the hysteresis bonus so
    /// borderline tables don't ping-pong — and reports which tables moved
    /// between tiers and what migrating their bytes costs.
    ///
    /// The returned plan's load accounting uses the *true* observed
    /// accesses (the hysteresis bonus only biases the assignment order).
    /// Tables absent from the old plan are placed fresh and not counted
    /// as migrations. A plan built under [`TieredPolicy::Hash`] rebalances
    /// into `FrequencyTiered { replicate_hot: 0 }` — the cold-start path:
    /// start frequency-blind, observe an epoch, earn the split.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] under the same conditions as
    /// [`build`](Self::build).
    pub fn epoch_rebalance(
        &self,
        observed: &[TableUsage],
        policy: PromotionPolicy,
    ) -> Result<(Self, MigrationReport), ConfigError> {
        let mut boosted: Vec<TableUsage> = observed.to_vec();
        for u in &mut boosted {
            if self.tier_of_table(u.table) == Some(StorageTier::Dram) {
                let scaled = u.accesses as u128 * (100 + policy.hysteresis_pct) as u128 / 100;
                u.accesses = scaled.min(u64::MAX as u128) as u64;
            }
        }
        let replicate_hot = match self.policy {
            TieredPolicy::FrequencyTiered { replicate_hot } => replicate_hot,
            TieredPolicy::Hash => 0,
        };
        let next_policy = TieredPolicy::FrequencyTiered { replicate_hot };
        let shadow = Self::build(self.spec, &boosted, next_policy)?;
        // Replay the shadow's assignment with the true accesses so the
        // new plan's load accounting is unbiased by the hysteresis bonus.
        let mut flat = PlacementPlan {
            channels: self.spec.units(),
            policy: shadow.flat.policy,
            capacity: None,
            entries: Vec::with_capacity(observed.len()),
            bytes: vec![0; self.spec.units()],
            load: vec![0.0; self.spec.units()],
        };
        for u in observed {
            flat.place(u, shadow.flat.replicas(u.table).to_vec());
        }
        flat.entries.sort_by_key(|(t, _)| *t);
        let next = Self {
            spec: self.spec,
            policy: next_policy,
            flat,
        };

        let mut report = MigrationReport::default();
        for u in observed {
            let (old, new) = (self.tier_of_table(u.table), next.tier_of_table(u.table));
            match (old, new) {
                (Some(StorageTier::Ssd), Some(StorageTier::Dram)) => {
                    report.promoted.push(u.table);
                    report.moved_bytes += u.bytes;
                }
                (Some(StorageTier::Dram), Some(StorageTier::Ssd)) => {
                    report.demoted.push(u.table);
                    report.moved_bytes += u.bytes;
                }
                _ => {}
            }
        }
        report.stall_cycles = policy.migration.cost_of(report.moved_bytes);
        Ok((next, report))
    }
}

/// The modeled cost of moving table bytes between tiers: a fixed setup
/// cost plus a per-KiB transfer cost, charged as stall cycles on the
/// affected units at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationCost {
    /// Fixed cycles per migration event (any nonzero move).
    pub base: Cycle,
    /// Cycles per KiB moved (rounded up).
    pub cycles_per_kib: Cycle,
}

impl MigrationCost {
    /// Creates a migration cost model.
    pub const fn new(base: Cycle, cycles_per_kib: Cycle) -> Self {
        Self {
            base,
            cycles_per_kib,
        }
    }

    /// Stall cycles for moving `bytes`; zero cost when nothing moves.
    pub fn cost_of(self, bytes: u64) -> Cycle {
        if bytes == 0 {
            0
        } else {
            self.base + bytes.div_ceil(KIB) * self.cycles_per_kib
        }
    }
}

/// Epoch promotion/demotion configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromotionPolicy {
    /// Stickiness bonus, in percent, added to the observed access count
    /// of tables already resident in DRAM when re-sorting — a table on
    /// SSD must beat a resident table by this margin to displace it.
    pub hysteresis_pct: u32,
    /// The migration cost model charged for moved bytes.
    pub migration: MigrationCost,
}

/// What one [`epoch_rebalance`](TieredPlacementPlan::epoch_rebalance)
/// moved and what it cost.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MigrationReport {
    /// Tables moved SSD → DRAM.
    pub promoted: Vec<TableId>,
    /// Tables moved DRAM → SSD.
    pub demoted: Vec<TableId>,
    /// Total bytes moved in either direction.
    pub moved_bytes: u64,
    /// Modeled stall charged to the affected units at the boundary.
    pub stall_cycles: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::apply_absorption;

    fn usage(specs: &[(u32, u64, u64)]) -> Vec<TableUsage> {
        specs
            .iter()
            .map(|&(t, bytes, acc)| TableUsage::new(TableId::new(t), bytes, acc))
            .collect()
    }

    fn spec2x1(dram_cap: u64) -> TierSpec {
        TierSpec {
            dram_channels: 2,
            dram_channel_capacity: ByteSize::bytes(dram_cap),
            ssd_units: 1,
            ssd_unit_capacity: ByteSize::gib(1),
        }
    }

    #[test]
    fn hash_spills_blindly_frequency_spills_cold() {
        // Four equal tables, one DRAM slot per channel: two must spill.
        // Hotness is on tables 2 and 3 — hash (id order) strands table 3
        // on SSD, frequency strands the two coldest.
        let u = usage(&[(0, 100, 5), (1, 100, 10), (2, 100, 900), (3, 100, 800)]);
        let hash = TieredPlacementPlan::build(spec2x1(100), &u, TieredPolicy::Hash).unwrap();
        assert_eq!(hash.tier_of_table(TableId::new(0)), Some(StorageTier::Dram));
        assert_eq!(hash.tier_of_table(TableId::new(1)), Some(StorageTier::Dram));
        assert_eq!(hash.tier_of_table(TableId::new(3)), Some(StorageTier::Ssd));
        let freq = TieredPlacementPlan::build(
            spec2x1(100),
            &u,
            TieredPolicy::FrequencyTiered { replicate_hot: 0 },
        )
        .unwrap();
        assert_eq!(freq.tier_of_table(TableId::new(2)), Some(StorageTier::Dram));
        assert_eq!(freq.tier_of_table(TableId::new(3)), Some(StorageTier::Dram));
        assert_eq!(freq.tier_of_table(TableId::new(0)), Some(StorageTier::Ssd));
        assert_eq!(freq.tier_of_table(TableId::new(1)), Some(StorageTier::Ssd));
        // Frequency keeps (900+800)/1715 of the traffic in DRAM.
        assert!(freq.load_share(StorageTier::Dram) > hash.load_share(StorageTier::Dram));
        assert_eq!(freq.tables_in(StorageTier::Ssd), 2);
        assert_eq!(freq.bytes_in(StorageTier::Ssd), 200);
    }

    #[test]
    fn capacity_bounds_hold_per_unit() {
        let spec = spec2x1(150);
        let u = usage(&[(0, 100, 1), (1, 100, 2), (2, 100, 3), (3, 100, 4)]);
        for policy in TieredPolicy::COMPARED {
            let plan = TieredPlacementPlan::build(spec, &u, policy).unwrap();
            for unit in 0..spec.units() {
                assert!(
                    plan.flat().bytes_on(unit) <= spec.capacity_of(unit),
                    "{policy}: unit {unit} over capacity"
                );
            }
            // Every table placed exactly once (no DRAM replication here).
            assert_eq!(plan.flat().tables(), 4);
            for t in 0..4u32 {
                assert_eq!(plan.flat().replicas(TableId::new(t)).len(), 1);
            }
        }
    }

    #[test]
    fn everything_fits_in_dram_means_empty_ssd() {
        let spec = spec2x1(1000);
        let u = usage(&[(0, 100, 5), (1, 100, 10), (2, 100, 900)]);
        for policy in TieredPolicy::COMPARED {
            let plan = TieredPlacementPlan::build(spec, &u, policy).unwrap();
            assert_eq!(plan.tables_in(StorageTier::Ssd), 0, "{policy}");
            assert_eq!(plan.load_share(StorageTier::Dram), 1.0, "{policy}");
        }
    }

    #[test]
    fn replication_stays_in_dram() {
        let spec = spec2x1(250);
        let u = usage(&[(0, 100, 900), (1, 100, 10), (2, 100, 5)]);
        let plan = TieredPlacementPlan::build(
            spec,
            &u,
            TieredPolicy::FrequencyTiered { replicate_hot: 1 },
        )
        .unwrap();
        let reps = plan.flat().replicas(TableId::new(0));
        assert_eq!(reps, &[0, 1]);
        assert!(reps.iter().all(|&c| spec.tier_of(c) == StorageTier::Dram));
        assert_eq!(plan.tier_of_table(TableId::new(0)), Some(StorageTier::Dram));
    }

    #[test]
    fn absorption_moves_cached_hot_table_off_dram() {
        // Table 2 looks hottest but the host cache absorbs nearly all of
        // it; the residual-aware split keeps the truly hot post-cache
        // tables (1 and 3) in DRAM and lets 2 spill.
        let u = usage(&[(0, 100, 5), (1, 100, 200), (2, 100, 900), (3, 100, 300)]);
        let policy = TieredPolicy::FrequencyTiered { replicate_hot: 0 };
        let blind = TieredPlacementPlan::build(spec2x1(100), &u, policy).unwrap();
        assert_eq!(
            blind.tier_of_table(TableId::new(2)),
            Some(StorageTier::Dram)
        );
        let residual = apply_absorption(&u, &[(TableId::new(2), 890)]).unwrap();
        let aware = TieredPlacementPlan::build(spec2x1(100), &residual, policy).unwrap();
        assert_eq!(
            aware.tier_of_table(TableId::new(1)),
            Some(StorageTier::Dram)
        );
        assert_eq!(
            aware.tier_of_table(TableId::new(3)),
            Some(StorageTier::Dram)
        );
        assert_eq!(aware.tier_of_table(TableId::new(2)), Some(StorageTier::Ssd));
        // Over-absorption is rejected here too.
        assert!(apply_absorption(&u, &[(TableId::new(2), 901)]).is_err());
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        let no_dram = TierSpec {
            dram_channels: 0,
            dram_channel_capacity: ByteSize::mib(1),
            ssd_units: 1,
            ssd_unit_capacity: ByteSize::gib(1),
        };
        let u = usage(&[(0, 100, 1)]);
        assert!(TieredPlacementPlan::build(no_dram, &u, TieredPolicy::Hash).is_err());
        let dup = usage(&[(0, 10, 1), (0, 10, 1)]);
        assert!(TieredPlacementPlan::build(spec2x1(100), &dup, TieredPolicy::Hash).is_err());
        // A table too fat for both tiers errors.
        let fat = usage(&[(0, 2 << 30, 1)]);
        assert!(TieredPlacementPlan::build(spec2x1(100), &fat, TieredPolicy::Hash).is_err());
    }

    #[test]
    fn epoch_promotes_newly_hot_and_respects_hysteresis() {
        let spec = spec2x1(100);
        // Start with 0 and 1 hot (in DRAM), 2 and 3 cold (on SSD).
        let before = usage(&[(0, 100, 900), (1, 100, 800), (2, 100, 10), (3, 100, 5)]);
        let plan = TieredPlacementPlan::build(
            spec,
            &before,
            TieredPolicy::FrequencyTiered { replicate_hot: 0 },
        )
        .unwrap();
        let policy = PromotionPolicy {
            hysteresis_pct: 20,
            migration: MigrationCost::new(1000, 10),
        };
        // Table 2 becomes clearly hottest and earns promotion. Table 3
        // (920) out-accesses resident table 0 (900) but not its boosted
        // count (1080), so hysteresis keeps 0 resident and 3 on SSD.
        let observed = usage(&[(0, 100, 900), (1, 100, 500), (2, 100, 950), (3, 100, 920)]);
        let (next, report) = plan.epoch_rebalance(&observed, policy).unwrap();
        assert_eq!(next.tier_of_table(TableId::new(2)), Some(StorageTier::Dram));
        assert_eq!(next.tier_of_table(TableId::new(0)), Some(StorageTier::Dram));
        assert_eq!(next.tier_of_table(TableId::new(3)), Some(StorageTier::Ssd));
        assert_eq!(report.promoted, vec![TableId::new(2)]);
        assert_eq!(report.demoted, vec![TableId::new(1)]);
        assert_eq!(report.moved_bytes, 200);
        assert_eq!(report.stall_cycles, 1000 + 10); // 200 B rounds to 1 KiB
                                                    // Load accounting in the new plan uses the true observed counts.
        let total: f64 = StorageTier::ALL.iter().map(|&t| next.load_in(t)).sum();
        assert_eq!(total, 900.0 + 500.0 + 950.0 + 920.0);
        // A second epoch with the same traffic is stable: no ping-pong.
        let (next2, report2) = next.epoch_rebalance(&observed, policy).unwrap();
        assert!(report2.promoted.is_empty() && report2.demoted.is_empty());
        assert_eq!(report2.stall_cycles, 0);
        assert_eq!(next2.flat().tables(), 4);
    }

    #[test]
    fn hash_plan_rebalances_into_frequency_plan() {
        // The cold-start path: begin frequency-blind, observe, replan.
        let spec = spec2x1(100);
        let u = usage(&[(0, 100, 5), (1, 100, 10), (2, 100, 900), (3, 100, 800)]);
        let hash = TieredPlacementPlan::build(spec, &u, TieredPolicy::Hash).unwrap();
        let policy = PromotionPolicy {
            hysteresis_pct: 10,
            migration: MigrationCost::new(0, 1),
        };
        let (next, report) = hash.epoch_rebalance(&u, policy).unwrap();
        assert_eq!(
            next.policy(),
            TieredPolicy::FrequencyTiered { replicate_hot: 0 }
        );
        assert_eq!(next.tier_of_table(TableId::new(2)), Some(StorageTier::Dram));
        assert_eq!(next.tier_of_table(TableId::new(3)), Some(StorageTier::Dram));
        assert!(!report.promoted.is_empty());
    }
}
