//! Dispatch policies and sharded, tiered and fleet scatter/gather
//! dispatch for the serving front.

use recnmp_backend::{PlacementPolicy, PromotionPolicy, TierSpec, TieredPolicy};
use recnmp_types::{ByteSize, Cycle};
use serde::{Deserialize, Serialize};

use super::fleet::FleetDispatch;

/// How the scheduler places dispatched queries onto the backend's
/// servers (channels of a cluster; the single pipeline of a one-channel
/// system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// One global FIFO queue: each query goes to whichever server frees
    /// first (central-queue M/G/k — the work-conserving reference).
    FifoSingleQueue,
    /// Queries rotate across servers in dispatch order regardless of load —
    /// cheap, stateless, but blind to service-time variance.
    RoundRobin,
    /// Join-least-work: each query goes to the server with the fewest
    /// outstanding *lookups* at dispatch time, a size-aware variant of
    /// join-shortest-queue.
    LeastOutstanding,
}

impl DispatchPolicy {
    /// Every policy, in report order.
    pub const ALL: [DispatchPolicy; 3] = [
        DispatchPolicy::FifoSingleQueue,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastOutstanding,
    ];

    /// Short stable label for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::FifoSingleQueue => "fifo",
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstanding => "least-outstanding",
        }
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The host-side cost of merging a scattered query's partial results.
///
/// A sharded query returns one set of partial pooled sums per shard; the
/// host reduces them into the final SLS output. The cost model is affine:
/// a fixed `base` (kernel launch, result-buffer setup) plus `per_shard`
/// cycles for each partial result merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatherCost {
    /// Fixed merge overhead per query.
    pub base: Cycle,
    /// Additional cycles per shard whose partials are merged.
    pub per_shard: Cycle,
}

impl GatherCost {
    /// An explicit cost model.
    pub const fn new(base: Cycle, per_shard: Cycle) -> Self {
        Self { base, per_shard }
    }

    /// The default host merge cost: ~50 ns of fixed overhead (60 cycles
    /// at DDR4-2400) plus 20 cycles per partial-sum set — small against
    /// per-query service times, as host-side final reduction is in
    /// production SLS serving.
    pub const fn host_default() -> Self {
        Self::new(60, 20)
    }
}

impl Default for GatherCost {
    fn default() -> Self {
        Self::host_default()
    }
}

/// A host-side hot-embedding cache in front of dispatch: a
/// capacity-bounded LRU vector cache that absorbs lookups to hot rows of
/// the hottest tables *before* they reach any channel. An absorbed
/// lookup is removed from the dispatched trace (the shard runs genuinely
/// less work) and costs `hit_cycles` of host time instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostCacheSpec {
    /// Total cache capacity in bytes (whole vectors are cached).
    pub capacity: ByteSize,
    /// Admission filter: only the `hot_tables` hottest tables of the
    /// stream's profile are cacheable — cold-table traffic bypasses the
    /// cache entirely instead of thrashing it.
    pub hot_tables: usize,
    /// Host-side cycles charged per absorbed lookup (the hit still reads
    /// host DRAM and feeds the final reduction).
    pub hit_cycles: Cycle,
}

impl HostCacheSpec {
    /// A host cache of `capacity` admitting the 4 hottest tables at the
    /// default hit cost.
    pub const fn with_capacity(capacity: ByteSize) -> Self {
        Self {
            capacity,
            hot_tables: 4,
            hit_cycles: 2,
        }
    }
}

/// Inter-query rank-cache prefetch: between arrivals, idle channels stage
/// the hottest vectors observed so far into their RankCaches as
/// low-priority traffic (the idle gap is the budget, so prefetch always
/// yields to demand work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchSpec {
    /// Hottest-first candidate list length (vectors), across channels.
    pub candidates: usize,
}

impl PrefetchSpec {
    /// A prefetcher tracking the `candidates` hottest vectors.
    pub const fn new(candidates: usize) -> Self {
        Self { candidates }
    }
}

/// Sharded scatter/gather dispatch: each query fans out to every channel
/// owning one of its tables under a
/// [`PlacementPlan`](recnmp_backend::PlacementPlan) built from the query
/// stream's table profile, and completes at the slowest shard plus the
/// host [`GatherCost`].
///
/// With `host_cache` set, a [`HostCacheSpec`] absorbs hot lookups before
/// sharding and the placement plan is built from the *residual* traffic
/// (cache/placement co-design via
/// [`apply_absorption`](recnmp_backend::apply_absorption)); with
/// `prefetch` set, idle channels stage predicted-hot vectors between
/// arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedDispatch {
    /// How tables are placed on channels.
    pub placement: PlacementPolicy,
    /// Host-side merge cost added after the slowest shard completes.
    pub gather: GatherCost,
    /// Optional per-channel byte capacity for the placement plan.
    pub channel_capacity: Option<ByteSize>,
    /// Optional host-side hot-embedding cache ahead of dispatch.
    pub host_cache: Option<HostCacheSpec>,
    /// Optional inter-query prefetch into channel RankCaches.
    pub prefetch: Option<PrefetchSpec>,
}

impl ShardedDispatch {
    /// Sharded dispatch under `placement`, default gather cost, no
    /// capacity bound, no host cache, no prefetch.
    pub const fn new(placement: PlacementPolicy) -> Self {
        Self {
            placement,
            gather: GatherCost::host_default(),
            channel_capacity: None,
            host_cache: None,
            prefetch: None,
        }
    }

    /// The same dispatch with a host cache in front.
    pub const fn with_host_cache(mut self, cache: HostCacheSpec) -> Self {
        self.host_cache = Some(cache);
        self
    }

    /// The same dispatch with inter-query prefetch enabled.
    pub const fn with_prefetch(mut self, prefetch: PrefetchSpec) -> Self {
        self.prefetch = Some(prefetch);
        self
    }
}

/// Epoch-based promotion/demotion layered on tiered serving: every
/// `epoch_queries` offered queries the scheduler rebuilds the tiered
/// plan from the traffic observed in the finished epoch
/// ([`TieredPlacementPlan::epoch_rebalance`][rebal]) and stalls the
/// units that gained or lost tables by the modeled migration cost.
///
/// [rebal]: recnmp_backend::TieredPlacementPlan::epoch_rebalance
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochPromotion {
    /// Queries per epoch (a rebalance happens at each epoch boundary).
    pub epoch_queries: usize,
    /// Hysteresis and migration-cost model of each rebalance.
    pub policy: PromotionPolicy,
}

/// Tiered scatter/gather dispatch: a
/// [`TieredPlacementPlan`](recnmp_backend::TieredPlacementPlan) assigns
/// each table to a DRAM channel or an SSD unit of the combined server
/// space; queries whose tables span tiers fan out to both and complete
/// at the slowest tier plus the host [`GatherCost`] — so tail latency
/// reflects the slow tier exactly when placement puts hot data there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TieredDispatch {
    /// How tables split across tiers.
    pub policy: TieredPolicy,
    /// Host-side merge cost added after the slowest shard completes.
    pub gather: GatherCost,
    /// The capacity geometry (must match the backend's server space:
    /// DRAM channels first, SSD units after).
    pub tiers: TierSpec,
    /// Optional epoch-based promotion/demotion; `None` serves a static
    /// plan built from the query stream's table profile.
    pub promotion: Option<EpochPromotion>,
}

impl TieredDispatch {
    /// Tiered dispatch under `policy` over `tiers`, default gather cost,
    /// no promotion epochs.
    pub const fn new(policy: TieredPolicy, tiers: TierSpec) -> Self {
        Self {
            policy,
            gather: GatherCost::host_default(),
            tiers,
            promotion: None,
        }
    }
}

/// How serving turns queries into backend work: on one node, whole-query
/// dispatch onto one server under a [`DispatchPolicy`], sharded
/// scatter/gather across the servers owning the query's tables, or
/// tier-aware scatter/gather over a DRAM+SSD server space; or
/// scatter/gather across the nodes of a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServingMode {
    /// Each query runs unsharded on a single server picked by the policy —
    /// the plan with every table on every server and a free gather.
    Queued(DispatchPolicy),
    /// Each query scatters across the channels its tables live on and
    /// gathers on the host.
    Sharded(ShardedDispatch),
    /// Each query scatters across both storage tiers under a
    /// [`TieredPlacementPlan`](recnmp_backend::TieredPlacementPlan).
    Tiered(TieredDispatch),
    /// Each query's batches route to nodes of a fleet under the router,
    /// then scatter across each node's channels.
    Fleet(FleetDispatch),
}

impl ServingMode {
    /// Short stable label for reports and JSON (queued modes keep their
    /// dispatch-policy names, so pre-placement report formats are
    /// unchanged).
    pub fn name(self) -> &'static str {
        match self {
            ServingMode::Queued(p) => p.name(),
            // A host cache changes the measured system, so cached runs get
            // their own label family; bare sharded names are unchanged and
            // the pre-caching report formats stay stable.
            ServingMode::Sharded(s) if s.host_cache.is_some() => match s.placement {
                PlacementPolicy::Hash => "cached-hash",
                PlacementPolicy::CapacityGreedy => "cached-capacity",
                PlacementPolicy::FrequencyBalanced { .. } => "cached-frequency",
            },
            ServingMode::Sharded(s) => match s.placement {
                PlacementPolicy::Hash => "sharded-hash",
                PlacementPolicy::CapacityGreedy => "sharded-capacity",
                PlacementPolicy::FrequencyBalanced { .. } => "sharded-frequency",
            },
            ServingMode::Tiered(t) => match (t.policy, t.promotion) {
                (TieredPolicy::Hash, None) => "tiered-hash",
                (TieredPolicy::FrequencyTiered { .. }, None) => "tiered-frequency",
                // With epochs the plan converges to frequency-tiered
                // regardless of the cold-start policy; the name records
                // that the split was *learned*, not given.
                (_, Some(_)) => "tiered-promote",
            },
            ServingMode::Fleet(f) => match f.node_policy {
                PlacementPolicy::FrequencyBalanced { replicate: 0 } => "fleet-sharded",
                PlacementPolicy::FrequencyBalanced { .. } => "fleet-replicated",
                PlacementPolicy::Hash => "fleet-hash",
                PlacementPolicy::CapacityGreedy => "fleet-capacity",
            },
        }
    }

    /// Sharded mode under `placement` with default gather cost.
    pub const fn sharded(placement: PlacementPolicy) -> Self {
        ServingMode::Sharded(ShardedDispatch::new(placement))
    }

    /// Sharded mode under `placement` with a host cache in front (default
    /// gather cost, no prefetch).
    pub const fn cached(placement: PlacementPolicy, cache: HostCacheSpec) -> Self {
        ServingMode::Sharded(ShardedDispatch::new(placement).with_host_cache(cache))
    }

    /// Tiered mode under `policy` over `tiers` with default gather cost
    /// and no promotion epochs.
    pub const fn tiered(policy: TieredPolicy, tiers: TierSpec) -> Self {
        ServingMode::Tiered(TieredDispatch::new(policy, tiers))
    }
}

impl From<DispatchPolicy> for ServingMode {
    fn from(p: DispatchPolicy) -> Self {
        ServingMode::Queued(p)
    }
}

/// The [`name`](ServingMode::name), with a fleet's replicated-table count
/// ([`FleetDispatch::label`]).
impl std::fmt::Display for ServingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingMode::Fleet(dispatch) => f.write_str(&dispatch.label()),
            mode => f.write_str(mode.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            DispatchPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), DispatchPolicy::ALL.len());
        assert_eq!(DispatchPolicy::FifoSingleQueue.to_string(), "fifo");
    }

    #[test]
    fn mode_names_cover_queued_and_sharded() {
        // Queued names match their dispatch policies (report-format
        // compatibility); sharded names are distinct per placement.
        for p in DispatchPolicy::ALL {
            assert_eq!(ServingMode::Queued(p).name(), p.name());
        }
        let sharded: std::collections::HashSet<&str> = PlacementPolicy::COMPARED
            .iter()
            .map(|&p| ServingMode::sharded(p).name())
            .collect();
        assert_eq!(sharded.len(), PlacementPolicy::COMPARED.len());
        assert!(sharded.iter().all(|n| n.starts_with("sharded-")));
    }

    #[test]
    fn cached_mode_names_are_distinct_from_bare_sharded() {
        use recnmp_types::ByteSize;
        let cache = HostCacheSpec::with_capacity(ByteSize::kib(64));
        let mut seen = std::collections::HashSet::new();
        for p in PlacementPolicy::COMPARED {
            let bare = ServingMode::sharded(p).name();
            let cached = ServingMode::cached(p, cache).name();
            assert!(bare.starts_with("sharded-"));
            assert!(cached.starts_with("cached-"), "{cached}");
            assert!(seen.insert(bare) && seen.insert(cached));
        }
        // Prefetch alone does not rename the mode: the system under
        // measurement is still bare sharded serving.
        let pf = ShardedDispatch::new(PlacementPolicy::Hash).with_prefetch(PrefetchSpec::new(32));
        assert_eq!(ServingMode::Sharded(pf).name(), "sharded-hash");
    }

    #[test]
    fn tiered_mode_names_distinguish_policy_and_promotion() {
        use recnmp_backend::MigrationCost;
        use recnmp_types::ByteSize;
        let tiers = TierSpec {
            dram_channels: 4,
            dram_channel_capacity: ByteSize::mib(128),
            ssd_units: 2,
            ssd_unit_capacity: ByteSize::gib(64),
        };
        assert_eq!(
            ServingMode::tiered(TieredPolicy::Hash, tiers).name(),
            "tiered-hash"
        );
        assert_eq!(
            ServingMode::tiered(TieredPolicy::FrequencyTiered { replicate_hot: 0 }, tiers).name(),
            "tiered-frequency"
        );
        let mut promote = TieredDispatch::new(TieredPolicy::Hash, tiers);
        promote.promotion = Some(EpochPromotion {
            epoch_queries: 8,
            policy: PromotionPolicy {
                hysteresis_pct: 10,
                migration: MigrationCost::new(1000, 10),
            },
        });
        assert_eq!(ServingMode::Tiered(promote).name(), "tiered-promote");
    }
}
