//! Fleet-scale serving: N RecNMP nodes behind a front-end router.
//!
//! One RecNMP node saturates at the capacity of its channels; production
//! recommendation traffic is served by a *fleet* of such nodes behind a
//! router. This module scales the single-node serving model up one
//! level:
//!
//! * a [`Fleet`] owns N node backends (each a multi-channel cluster or a
//!   tiered DRAM+SSD system — anything implementing
//!   [`SlsBackend`]);
//! * a [`FleetPlacementPlan`] places tables twice — tables → nodes (with
//!   cross-node replication of the hottest tables), then tables →
//!   channels within each node;
//! * a [`RouterPolicy`] picks, per batch, which node replica serves it
//!   (stateless hash-affinity rotation, least-outstanding-lookups, or
//!   placement-aware scatter onto the node whose owning channels are
//!   least backlogged);
//! * a [`NetworkCost`] charges the inter-node hop: a query whose batches
//!   span nodes completes at its slowest node (each node pays the usual
//!   per-node [`GatherCost`]) plus a base-plus-per-byte network gather
//!   over the pooled result vectors shipped back to the router. A
//!   single-node fleet pays **no** network cost (the router is
//!   co-located), which makes a 1-node fleet numerically identical to
//!   the bare cluster under sharded serving — the invariant the
//!   `serve_sweep --fleet` smoke and `fleet_determinism` tests pin.
//!
//! Fleets run on the same scatter/gather core as single-node sharded and
//! tiered serving: [`serve_fleet`] with the inert
//! [`ResilienceConfig::zero`], [`serve_fleet_resilient`] under a fault
//! plan. Each query runs one pool task per involved node, each node fans
//! its shards out as nested tasks ([`SlsBackend::try_run_shards`]), and
//! results merge in (node, channel) order, so fleet runs are
//! byte-identical at any worker count.
//!
//! A fleet is [`Sweepable`] under a [`FleetDispatch`]: the one sweep
//! driver ([`anchored_sweep`](super::sweep::anchored_sweep)) measures
//! fleet throughput–latency curves exactly as it does a backend's.
//!
//! # Examples
//!
//! ```no_run
//! use recnmp_sim::fleet::{serve_fleet, Fleet, FleetConfig, FleetDispatch};
//! use recnmp_sim::serving::{ArrivalProcess, QueryShape};
//!
//! let mut fleet = Fleet::reference(2);
//! let cfg = FleetConfig {
//!     process: ArrivalProcess::Poisson,
//!     qps: 50_000.0,
//!     queries: 64,
//!     shape: QueryShape::new(8, 2, 8).with_table_sampling(4),
//!     dispatch: FleetDispatch::replicated(2),
//!     seed: 7,
//! };
//! let report = serve_fleet(&mut fleet, &cfg).unwrap();
//! assert_eq!(report.latencies.len(), 64);
//! ```

use recnmp_backend::{FleetPlacementPlan, PlacementPolicy, RunReport, SlsBackend};
use recnmp_types::units::qps_to_interarrival_cycles;
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};
use serde::{Deserialize, Serialize};

use super::arrivals::{offered_load, ArrivalProcess, QueryShape, QueryStream};
use super::core::{Core, Plan, Stages};
use super::faults::{
    FaultPlan, HedgePolicy, QueryOutcome, ResilienceConfig, RetryPolicy, SloPolicy,
};
use super::policy::GatherCost;
use super::scheduler::{window_qps, LatencySummary};
use super::sweep::{reference_cluster4, run_each, Sweepable};

/// N node backends behind one router: the serving fleet.
///
/// Every node must expose the same
/// [`server_count`](SlsBackend::server_count) — the fleet's placement
/// plan assumes a uniform channels-per-node geometry.
pub struct Fleet {
    name: String,
    channels_per_node: usize,
    nodes: Vec<Box<dyn SlsBackend>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("name", &self.name)
            .field("channels_per_node", &self.channels_per_node)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl Fleet {
    /// Builds a fleet from node backends.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `nodes` is empty or the nodes
    /// disagree on server count.
    pub fn new(nodes: Vec<Box<dyn SlsBackend>>) -> Result<Self, ConfigError> {
        let Some(first) = nodes.first() else {
            return Err(ConfigError::new("fleet", "need at least one node"));
        };
        let channels_per_node = first.server_count();
        if let Some(odd) = nodes.iter().find(|n| n.server_count() != channels_per_node) {
            return Err(ConfigError::new(
                "fleet",
                format!(
                    "nodes disagree on geometry: {} exposes {} server(s), {} exposes {}",
                    first.name(),
                    channels_per_node,
                    odd.name(),
                    odd.server_count()
                ),
            ));
        }
        let name = format!("fleet[{} x {}]", nodes.len(), first.name());
        Ok(Self {
            name,
            channels_per_node,
            nodes,
        })
    }

    /// The reference fleet: `nodes` copies of the 4-channel reference
    /// serving cluster
    /// ([`reference_cluster4`]).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero.
    pub fn reference(nodes: usize) -> Self {
        Self::new((0..nodes).map(|_| reference_cluster4()).collect()).expect("reference fleet")
    }

    /// `"fleet[N x node-name]"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Channels (dispatchable servers) per node.
    pub fn channels_per_node(&self) -> usize {
        self.channels_per_node
    }
}

/// How the front-end router picks a node replica for each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Stateless: a batch of table `t` in query `i` goes to node replica
    /// `i mod replicas(t)` — replicated tables rotate through their node
    /// set, unreplicated tables always hit their single home.
    HashAffinity,
    /// Size-aware join-shortest-queue at node granularity: the replica
    /// with the fewest outstanding lookups at dispatch time (ties to the
    /// lowest node index).
    LeastOutstanding,
    /// Placement-aware scatter: the replica whose *owning channels* for
    /// this table free earliest — the router peeks one level deeper than
    /// [`LeastOutstanding`](Self::LeastOutstanding) and targets channel
    /// backlog rather than node backlog.
    PlacementScatter,
}

impl RouterPolicy {
    /// Every policy, in comparison order.
    pub const ALL: [RouterPolicy; 3] = [
        RouterPolicy::HashAffinity,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::PlacementScatter,
    ];

    /// A short stable label.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::HashAffinity => "hash-affinity",
            RouterPolicy::LeastOutstanding => "least-outstanding",
            RouterPolicy::PlacementScatter => "placement-scatter",
        }
    }
}

/// The modeled cost of shipping pooled results from the nodes back to
/// the router: `base + per_byte * result_bytes` cycles per query, where
/// `result_bytes` sums the pooled output vectors
/// ([`BatchView::output_bytes`](recnmp_backend::BatchView::output_bytes)) of
/// every batch the query scattered off-router. Charged once per query —
/// node transfers overlap on independent links, so the gather is
/// dominated by the aggregate bytes plus one base latency.
///
/// A single-node fleet pays nothing: the router is co-located with its
/// only node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkCost {
    /// Fixed per-query network latency (one rack round trip).
    pub base: Cycle,
    /// Cycles per pooled result byte shipped node → router.
    pub per_byte: Cycle,
}

impl NetworkCost {
    /// Builds a cost model.
    pub fn new(base: Cycle, per_byte: Cycle) -> Self {
        Self { base, per_byte }
    }

    /// The default intra-rack model: a fixed round-trip plus a per-byte
    /// charge an order of magnitude above the on-host
    /// [`GatherCost`] — crossing the network
    /// must cost visibly more than staying on the node, or the model
    /// would never penalize scattering a query fleet-wide.
    pub fn rack_default() -> Self {
        Self::new(1_200, 1)
    }

    /// Total network cycles for one query shipping `result_bytes` back,
    /// saturating at the end of the clock.
    pub fn cost_of(self, result_bytes: u64) -> Cycle {
        self.base
            .saturating_add(self.per_byte.saturating_mul(result_bytes))
    }
}

/// How a fleet turns queries into node work: the router, the two
/// placement levels, and the gather costs at both levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetDispatch {
    /// Node pick per batch.
    pub router: RouterPolicy,
    /// Level-1 placement: tables → nodes.
    pub node_policy: PlacementPolicy,
    /// Level-2 placement: tables → channels within each node.
    pub within_policy: PlacementPolicy,
    /// Per-node scatter/gather merge cost (same role as in sharded
    /// single-node serving).
    pub gather: GatherCost,
    /// Inter-node result gather cost.
    pub network: NetworkCost,
    /// Optional per-channel capacity bound both placement levels pack
    /// against.
    pub channel_capacity: Option<ByteSize>,
}

impl FleetDispatch {
    /// Pure sharding: every table lives on exactly one node
    /// (frequency-balanced, no replication) — the scaling baseline.
    pub fn sharded() -> Self {
        Self {
            router: RouterPolicy::HashAffinity,
            node_policy: PlacementPolicy::FrequencyBalanced { replicate: 0 },
            within_policy: PlacementPolicy::FrequencyBalanced { replicate: 0 },
            gather: GatherCost::host_default(),
            network: NetworkCost::rack_default(),
            channel_capacity: None,
        }
    }

    /// Hot-table replication: the `hot` hottest tables are replicated
    /// onto every node (level 1) so top-load traffic has more than one
    /// home. Router and within-node placement match
    /// [`sharded`](Self::sharded), so curves isolate the replication
    /// effect.
    pub fn replicated(hot: usize) -> Self {
        Self {
            node_policy: PlacementPolicy::FrequencyBalanced { replicate: hot },
            ..Self::sharded()
        }
    }

    /// A short stable label for the node-placement flavor
    /// (`"fleet-sharded"`, `"fleet-replicated(2)"`, ...).
    pub fn label(&self) -> String {
        match self.node_policy {
            PlacementPolicy::FrequencyBalanced { replicate: 0 } => "fleet-sharded".to_string(),
            PlacementPolicy::FrequencyBalanced { replicate } => {
                format!("fleet-replicated({replicate})")
            }
            PlacementPolicy::Hash => "fleet-hash".to_string(),
            PlacementPolicy::CapacityGreedy => "fleet-capacity".to_string(),
        }
    }
}

/// One fleet serving run: an offered load, a query shape, and a fleet
/// dispatch discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Arrival process of the open-loop generator.
    pub process: ArrivalProcess,
    /// Offered query rate (queries per second of simulated time).
    pub qps: f64,
    /// Queries to offer.
    pub queries: usize,
    /// SLS work per query.
    pub shape: QueryShape,
    /// Router, placement and gather model.
    pub dispatch: FleetDispatch,
    /// Seed for both the arrival schedule and the query index streams.
    pub seed: u64,
}

/// The outcome of one fleet serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet label the run was served by.
    pub system: String,
    /// Router the run was dispatched under.
    pub router: RouterPolicy,
    /// Offered query rate.
    pub offered_qps: f64,
    /// Arrival cycle of each query, in arrival order.
    pub arrivals: Vec<Cycle>,
    /// Completion cycle of each query, in arrival order.
    pub completions: Vec<Cycle>,
    /// Enqueue→completion latency of each query, in arrival order.
    pub latencies: Vec<Cycle>,
    /// Queries that touched each node (a query spanning k nodes counts
    /// once on each).
    pub node_queries: Vec<u64>,
    /// Tables the node-level plan replicated across nodes.
    pub replicated_tables: usize,
    /// What became of each offered query, in arrival order. Plain
    /// (fault-free) serving completes everything; under
    /// [`serve_fleet_resilient`] queries may be rejected, shed or
    /// failed, and their `completions`/`latencies` entries are zeroed
    /// relative to arrival.
    pub outcomes: Vec<QueryOutcome>,
    /// The per-query failures behind every
    /// [`QueryOutcome::Failed`] entry, aggregated instead of aborting
    /// the run.
    pub failures: Vec<SimError>,
    /// Counters merged over every node shard, with `query_completions`
    /// carrying the per-query timestamps and `total_cycles` the
    /// makespan.
    pub report: RunReport,
}

impl FleetReport {
    /// Queries served to completion.
    pub fn completed(&self) -> usize {
        self.completed_only(&self.completions).len()
    }

    /// Fraction of offered queries served to completion (1.0 for an
    /// empty run).
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.completed() as f64 / self.outcomes.len() as f64
        }
    }

    /// Per-query `values` of the completed queries only.
    fn completed_only(&self, values: &[Cycle]) -> Vec<Cycle> {
        values
            .iter()
            .zip(&self.outcomes)
            .filter(|(_, &o)| o == QueryOutcome::Completed)
            .map(|(&v, _)| v)
            .collect()
    }

    /// Latencies of the completed queries only — what the distribution
    /// summary and throughput window are computed over.
    pub fn completed_latencies(&self) -> Vec<Cycle> {
        self.completed_only(&self.latencies)
    }

    /// Completion throughput (queries per simulated second) over the
    /// completed queries, windowed over first→last completion exactly
    /// like
    /// [`ServingReport::achieved_qps`](super::scheduler::ServingReport::achieved_qps).
    pub fn achieved_qps(&self) -> f64 {
        window_qps(&self.completed_only(&self.completions))
    }

    /// The latency distribution over completed queries.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_latencies(&self.completed_latencies())
    }

    /// `(good, offered)` over the queries arriving in `[from, until)`:
    /// how many met the SLO deadline vs how many were offered — the
    /// windowed goodput used to compare pre-fault and post-fault
    /// service.
    pub fn goodput_in_window(&self, deadline: Cycle, from: Cycle, until: Cycle) -> (u64, u64) {
        let mut good = 0;
        let mut offered = 0;
        for ((&arr, &lat), &out) in self
            .arrivals
            .iter()
            .zip(&self.latencies)
            .zip(&self.outcomes)
        {
            if arr < from || arr >= until {
                continue;
            }
            offered += 1;
            if out == QueryOutcome::Completed && lat <= deadline {
                good += 1;
            }
        }
        (good, offered)
    }
}

/// Serves `cfg.queries` open-loop queries on `fleet` and accounts
/// per-query latency in simulated time: [`serve_fleet_resilient`] under
/// [`ResilienceConfig::zero`] (no faults, inert policies).
///
/// Arrival schedule and query streams derive from `cfg.seed` exactly as
/// in single-node [`serve`](super::scheduler::serve), so a 1-node fleet
/// replays the same workload as the bare cluster.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any node's cycle-level run stalls,
/// or [`SimError::Config`] when the offered rate is not positive and
/// finite or placement cannot fit the workload's tables at either level.
pub fn serve_fleet(fleet: &mut Fleet, cfg: &FleetConfig) -> Result<FleetReport, SimError> {
    serve_fleet_resilient(fleet, cfg, &ResilienceConfig::zero())
}

/// Serves `cfg.queries` open-loop queries on `fleet` under a fault
/// schedule and resilience policies, aggregating per-query failures
/// into the report instead of aborting the run.
///
/// Arrival schedule and query streams derive from `cfg.seed` exactly as
/// in [`serve_fleet`], which is this function under
/// [`ResilienceConfig::zero`]. On top of the plain scatter/gather the
/// core applies the [`faults`](super::faults) semantics: health-aware
/// failover (the *first* query to discover a fresh crash pays a fixed
/// 2,400-cycle re-dispatch penalty; a table
/// with no surviving replica fails its query with
/// [`SimError::QueryFailed`]), per-shard retry with exponential backoff
/// onto the least-backlogged replica channel owning the shard's tables
/// ([`SimError::DeadlineExceeded`] on exhaustion), hedging of straggler
/// node jobs onto a replica node holding all their tables (both copies
/// occupy their channels, the earlier completion wins), and the SLO
/// guard (admission rejection on the optimistic queue estimate, shedding
/// on the actual routed start). Rejected and shed queries run no
/// cycle-level work.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if a node's cycle-level run stalls, or
/// [`SimError::Config`] when the offered rate is not positive and
/// finite, the query shape fails [`QueryShape::validate`], `res` fails
/// [`ResilienceConfig::validate`] on this fleet, or placement
/// cannot fit the workload — run-level problems
/// only; per-query failures land in [`FleetReport::failures`].
pub fn serve_fleet_resilient(
    fleet: &mut Fleet,
    cfg: &FleetConfig,
    res: &ResilienceConfig,
) -> Result<FleetReport, SimError> {
    res.validate(fleet.nodes(), fleet.channels_per_node())?;
    let (arrivals, stream) = offered_load(cfg.process, cfg.qps, cfg.queries, cfg.shape, cfg.seed)?;
    serve_fleet_resilient_arrivals(fleet, cfg, res, &arrivals, stream)
}

/// The fleet front of the scatter/gather core, shared by
/// [`serve_fleet_resilient`] and the sweeps: builds both placement levels
/// from the stream's [`table_profile`](QueryStream::table_profile), then
/// serves one query of `stream` per arrival on the fleet's nodes,
/// drawing each as it dispatches.
fn serve_fleet_resilient_arrivals(
    fleet: &mut Fleet,
    cfg: &FleetConfig,
    res: &ResilienceConfig,
    arrivals: &[Cycle],
    mut stream: QueryStream,
) -> Result<FleetReport, SimError> {
    let dispatch = cfg.dispatch;
    let n = arrivals.len();
    let plan = FleetPlacementPlan::build(
        fleet.nodes.len(),
        fleet.channels_per_node,
        dispatch.channel_capacity.map(ByteSize::get),
        &stream.table_profile(n),
        dispatch.node_policy,
        dispatch.within_policy,
    )
    .map_err(SimError::Config)?;
    let replicated_tables = plan.replicated_tables();
    let core = Core {
        plan: Plan::Fleet(plan),
        router: dispatch.router,
        scatter: RouterPolicy::PlacementScatter,
        gather: dispatch.gather,
        network: dispatch.network,
        stages: Stages::default(),
    };
    let mut nodes: Vec<&mut dyn SlsBackend> = fleet
        .nodes
        .iter_mut()
        .map(|n| n.as_mut() as &mut dyn SlsBackend)
        .collect();
    let queries = (0..n).map(|_| stream.next_query());
    let mut served = core.run(&mut nodes, res, arrivals, queries, &fleet.name)?;
    let latencies = served.finish(arrivals);
    Ok(FleetReport {
        system: fleet.name.clone(),
        router: dispatch.router,
        offered_qps: cfg.qps,
        arrivals: arrivals.to_vec(),
        completions: served.completions,
        latencies,
        node_queries: served.node_queries,
        replicated_tables,
        outcomes: served.outcomes,
        failures: served.failures,
        report: served.report,
    })
}

/// A fleet sweeps under each [`FleetDispatch`], on the inert
/// [`ResilienceConfig::zero`] — the same runs as [`serve_fleet`].
impl Sweepable for Fleet {
    type Arm = FleetDispatch;

    fn label(&self) -> String {
        self.name.clone()
    }

    fn serve_load(
        &mut self,
        dispatch: FleetDispatch,
        shape: QueryShape,
        arrivals: &[Cycle],
        seed: u64,
    ) -> Result<(f64, LatencySummary), SimError> {
        // The rate and process only label the report: the arrivals are
        // given.
        let cfg = FleetConfig {
            process: ArrivalProcess::Uniform,
            qps: 1.0,
            queries: arrivals.len(),
            shape,
            dispatch,
            seed,
        };
        let zero = ResilienceConfig::zero();
        let stream = QueryStream::new(shape, seed);
        let report = serve_fleet_resilient_arrivals(self, &cfg, &zero, arrivals, stream)?;
        Ok((report.achieved_qps(), report.summary()))
    }
}

/// Everything that parameterizes one resilience sweep: the workload, the
/// SLO derivation, and the severity of the injected faults. The fault
/// *schedule* is fixed by protocol — the last node crashes at the mean
/// arrival cycle of query N/2, and the `crash+slow` level additionally
/// sticks channel 0 of node 0 at `degrade_multiplier`x service time from
/// the crash onward — so two runs of the same spec are identical.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceSpec {
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Offered load (whole-fleet queries per second).
    pub qps: f64,
    /// Queries per run.
    pub queries: usize,
    /// Query shape.
    pub shape: QueryShape,
    /// Arrival/placement seed.
    pub seed: u64,
    /// The SLO deadline is this multiple of the fault-free replicated
    /// run's p99.
    pub deadline_p99_multiple: u64,
    /// Post-crash goodput must keep at least this fraction of the
    /// pre-crash rate to count as sustained.
    pub sustain_fraction: f64,
    /// Service-time multiplier of the stuck-at-slow channel in the
    /// `crash+slow` level.
    pub degrade_multiplier: u64,
}

/// One arm of the resilience sweep: a fault level crossed with a
/// placement flavor and hedging on/off, plus its measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceArm {
    /// Fault-level label (`"none"`, `"crash"`, `"crash+slow"`).
    pub faults: &'static str,
    /// Placement label (`"fleet-replicated"` or `"fleet-sharded"`).
    pub placement: &'static str,
    /// Whether p95 hedging was on.
    pub hedged: bool,
    /// Fraction of offered queries that completed.
    pub availability: f64,
    /// Goodput-under-SLO over arrivals before the crash cycle.
    pub pre_goodput: f64,
    /// Goodput-under-SLO over arrivals from the crash cycle on.
    pub post_goodput: f64,
    /// `post_goodput >= sustain_fraction * pre_goodput`.
    pub sustained: bool,
    /// The full fleet report (outcome counters, latencies).
    pub report: FleetReport,
}

impl ResilienceArm {
    /// Post/pre goodput ratio (1.0 for an idle pre window).
    pub fn goodput_ratio(&self) -> f64 {
        if self.pre_goodput > 0.0 {
            self.post_goodput / self.pre_goodput
        } else {
            1.0
        }
    }
}

/// The outcome of [`resilience_sweep`]: the derived SLO anchors plus one
/// [`ResilienceArm`] per (fault level x placement x hedging) combination,
/// in level-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceSweep {
    /// SLO deadline in cycles (`deadline_p99_multiple` x the fault-free
    /// replicated p99).
    pub deadline: Cycle,
    /// The fault-free replicated p99 the deadline derives from.
    pub baseline_p99: Cycle,
    /// Crash cycle (mean arrival of query N/2).
    pub crash_at: Cycle,
    /// The node the crash levels take down (the last node).
    pub crashed_node: usize,
    /// The sustain bar the arms were judged against.
    pub sustain_fraction: f64,
    /// All measured arms.
    pub arms: Vec<ResilienceArm>,
}

impl ResilienceSweep {
    /// The arm at one (fault level, placement, hedging) coordinate.
    pub fn arm(&self, faults: &str, placement: &str, hedged: bool) -> Option<&ResilienceArm> {
        self.arms
            .iter()
            .find(|a| a.faults == faults && a.placement == placement && a.hedged == hedged)
    }

    /// The crash-level replicated+hedged arm — the configuration the
    /// resilience verdict claims sustains the crash.
    pub fn verdict_arm(&self) -> &ResilienceArm {
        self.arm("crash", "fleet-replicated", true)
            .expect("crash-level replicated+hedged arm ran")
    }

    /// The crash-level sharded unhedged arm — the configuration the
    /// resilience verdict claims collapses.
    pub fn verdict_baseline(&self) -> &ResilienceArm {
        self.arm("crash", "fleet-sharded", false)
            .expect("crash-level sharded arm ran")
    }

    /// The resilience claim itself: replicated+hedged sustains the crash
    /// while unreplicated placement does not.
    pub fn verdict_holds(&self) -> bool {
        self.verdict_arm().sustained && !self.verdict_baseline().sustained
    }
}

/// Measures fleet resilience through escalating injected faults: no
/// faults, a mid-horizon node crash, and the crash plus a stuck-at-slow
/// channel on a survivor, each crossed with {replicated-everywhere,
/// sharded} placement and p95 hedging on/off — every arm under the same
/// SLO (deadline = `deadline_p99_multiple` x the fault-free replicated
/// p99) with bounded retries, admission control and deadline shedding.
///
/// Arms are independent simulations over fresh fleets, run as one pool
/// task each, so the sweep is byte-identical at any worker count.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if a cycle-level run stalls, or
/// [`SimError::Config`] when the offered rate is not positive and finite,
/// the degrade multiplier is 0 or placement fails.
pub fn resilience_sweep(
    make_fleet: &mut dyn FnMut() -> Fleet,
    spec: &ResilienceSpec,
) -> Result<ResilienceSweep, SimError> {
    let replicated = FleetDispatch::replicated(spec.shape.tables);
    let cfg = |dispatch: FleetDispatch| FleetConfig {
        process: spec.process,
        qps: spec.qps,
        queries: spec.queries,
        shape: spec.shape,
        dispatch,
        seed: spec.seed,
    };
    // Both anchors are pure arithmetic from the spec plus one fault-free
    // run, so the sweep is deterministic end to end. That run rejects a
    // bad offered rate before the crash cycle divides by it.
    let mut baseline_fleet = make_fleet();
    let crashed_node = baseline_fleet.nodes() - 1;
    let baseline_p99 = serve_fleet(&mut baseline_fleet, &cfg(replicated))?
        .summary()
        .p99;
    let deadline = spec.deadline_p99_multiple * baseline_p99;
    let crash_at = ((spec.queries as f64 / 2.0) * qps_to_interarrival_cycles(spec.qps)) as Cycle;

    let crash = FaultPlan::none().with_crash(crashed_node, crash_at);
    let slow = (crash.clone()).with_degrade(0, 0, crash_at, u64::MAX, spec.degrade_multiplier);
    let levels = [
        ("none", FaultPlan::none()),
        ("crash", crash),
        ("crash+slow", slow),
    ];
    let placements = [
        ("fleet-replicated", replicated),
        ("fleet-sharded", FleetDispatch::sharded()),
    ];
    let mut runs = Vec::with_capacity(levels.len() * placements.len() * 2);
    for (faults, plan) in &levels {
        for &(placement, dispatch) in &placements {
            for hedged in [false, true] {
                let mut res = ResilienceConfig::new(plan.clone())
                    .with_retry(RetryPolicy::serving_default(deadline))
                    .with_slo(SloPolicy::new(deadline));
                if hedged {
                    res = res.with_hedge(HedgePolicy::p95());
                }
                let arm = (*faults, placement, hedged);
                runs.push((arm, make_fleet(), cfg(dispatch), res));
            }
        }
    }
    let reports = run_each(&mut runs, |(_, fleet, cfg, res)| {
        serve_fleet_resilient(fleet, cfg, res)
    })?;

    let goodput = |report: &FleetReport, from: Cycle, until: Cycle| {
        let (good, offered) = report.goodput_in_window(deadline, from, until);
        if offered == 0 {
            1.0
        } else {
            good as f64 / offered as f64
        }
    };
    let arms = runs
        .iter()
        .zip(reports)
        .map(|(&((faults, placement, hedged), ..), report)| {
            let pre_goodput = goodput(&report, 0, crash_at);
            let post_goodput = goodput(&report, crash_at, Cycle::MAX);
            ResilienceArm {
                faults,
                placement,
                hedged,
                availability: report.availability(),
                pre_goodput,
                post_goodput,
                sustained: post_goodput >= spec.sustain_fraction * pre_goodput,
                report,
            }
        })
        .collect();
    Ok(ResilienceSweep {
        deadline,
        baseline_p99,
        crash_at,
        crashed_node,
        sustain_fraction: spec.sustain_fraction,
        arms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::policy::{ServingMode, ShardedDispatch};
    use crate::serving::scheduler::serve;
    use crate::serving::ServingConfig;
    use recnmp_backend::SlsTrace;

    fn quick_shape() -> QueryShape {
        QueryShape::new(8, 2, 6)
            .with_table_skew(1.0)
            .with_table_sampling(3)
    }

    fn quick_cfg(nodes_hint: f64, queries: usize, dispatch: FleetDispatch) -> FleetConfig {
        FleetConfig {
            process: ArrivalProcess::Poisson,
            qps: 40_000.0 * nodes_hint,
            queries,
            shape: quick_shape(),
            dispatch,
            seed: 23,
        }
    }

    #[test]
    fn fleet_rejects_degenerate_geometry() {
        assert!(Fleet::new(vec![]).is_err());
        let mixed: Vec<Box<dyn SlsBackend>> = vec![
            reference_cluster4(),
            Box::new(recnmp_baselines::HostBaseline::new(1, 2).unwrap()),
        ];
        assert!(Fleet::new(mixed).is_err());
        let fleet = Fleet::reference(2);
        assert_eq!(fleet.nodes(), 2);
        assert_eq!(fleet.channels_per_node(), 4);
        assert_eq!(fleet.name(), "fleet[2 x recnmp-cluster[4]]");
    }

    #[test]
    fn fleet_serving_conserves_lookups_across_nodes() {
        let cfg = quick_cfg(2.0, 10, FleetDispatch::replicated(1));
        let mut fleet = Fleet::reference(2);
        let report = serve_fleet(&mut fleet, &cfg).unwrap();
        let expected: u64 = QueryStream::new(cfg.shape, cfg.seed)
            .take_queries(cfg.queries)
            .iter()
            .map(SlsTrace::total_lookups)
            .sum();
        assert_eq!(report.report.insts, expected);
        assert_eq!(report.latencies.len(), 10);
        // Replication spread at least one table fleet-wide and both
        // nodes served traffic.
        assert!(report.replicated_tables >= 1);
        assert!(report.node_queries.iter().all(|&q| q > 0));
    }

    #[test]
    fn single_node_fleet_matches_bare_cluster() {
        // The keystone invariant: a 1-node fleet is numerically the bare
        // cluster under sharded serving — same arrivals, same placement,
        // same channel queues, no network charge.
        let dispatch = FleetDispatch::sharded();
        let fleet_cfg = quick_cfg(1.0, 12, dispatch);
        let mut fleet = Fleet::reference(1);
        let fleet_report = serve_fleet(&mut fleet, &fleet_cfg).unwrap();

        let mut cluster = reference_cluster4();
        let cluster_cfg = ServingConfig {
            process: fleet_cfg.process,
            qps: fleet_cfg.qps,
            queries: fleet_cfg.queries,
            shape: fleet_cfg.shape,
            mode: ServingMode::Sharded(ShardedDispatch {
                placement: dispatch.within_policy,
                gather: dispatch.gather,
                channel_capacity: dispatch.channel_capacity,
                host_cache: None,
                prefetch: None,
            }),
            seed: fleet_cfg.seed,
        };
        let cluster_report = serve(cluster.as_mut(), &cluster_cfg).unwrap();

        assert_eq!(fleet_report.arrivals, cluster_report.arrivals);
        assert_eq!(fleet_report.completions, cluster_report.completions);
        assert_eq!(fleet_report.latencies, cluster_report.latencies);
        assert_eq!(fleet_report.report.insts, cluster_report.report.insts);
        assert_eq!(
            fleet_report.report.total_cycles,
            cluster_report.report.total_cycles
        );
    }

    #[test]
    fn every_router_serves_and_conserves() {
        for router in RouterPolicy::ALL {
            let dispatch = FleetDispatch {
                router,
                ..FleetDispatch::replicated(1)
            };
            let cfg = quick_cfg(2.0, 8, dispatch);
            let mut fleet = Fleet::reference(2);
            let report = serve_fleet(&mut fleet, &cfg).unwrap();
            let expected: u64 = QueryStream::new(cfg.shape, cfg.seed)
                .take_queries(cfg.queries)
                .iter()
                .map(SlsTrace::total_lookups)
                .sum();
            assert_eq!(report.report.insts, expected, "router {}", router.name());
            assert_eq!(report.router, router);
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let cfg = quick_cfg(2.0, 8, FleetDispatch::replicated(1));
        let mut a = Fleet::reference(2);
        let mut b = Fleet::reference(2);
        assert_eq!(
            serve_fleet(&mut a, &cfg).unwrap(),
            serve_fleet(&mut b, &cfg).unwrap()
        );
    }

    #[test]
    fn multi_node_queries_pay_the_network_gather() {
        // Same workload, same per-node arithmetic: a 2-node fleet with
        // zero network cost must strictly undercut one with the rack
        // default on every completion that left the router's rack slot.
        let mut free = quick_cfg(2.0, 8, FleetDispatch::sharded());
        free.dispatch.network = NetworkCost::new(0, 0);
        let charged = quick_cfg(2.0, 8, FleetDispatch::sharded());
        let mut a = Fleet::reference(2);
        let mut b = Fleet::reference(2);
        let r_free = serve_fleet(&mut a, &free).unwrap();
        let r_charged = serve_fleet(&mut b, &charged).unwrap();
        for (f, c) in r_free.latencies.iter().zip(&r_charged.latencies) {
            assert!(f + charged.dispatch.network.base <= *c + 1);
            assert!(f < c);
        }
    }

    fn assert_conserved(report: &FleetReport) {
        let count = |o: QueryOutcome| report.outcomes.iter().filter(|&&x| x == o).count() as u64;
        assert_eq!(
            report.outcomes.len() as u64,
            count(QueryOutcome::Completed)
                + count(QueryOutcome::Rejected)
                + count(QueryOutcome::Shed)
                + count(QueryOutcome::Failed),
            "every offered query has exactly one outcome"
        );
        assert_eq!(
            report.report.queries_rejected,
            count(QueryOutcome::Rejected)
        );
        assert_eq!(report.report.queries_shed, count(QueryOutcome::Shed));
        assert_eq!(report.report.queries_failed, count(QueryOutcome::Failed));
        assert_eq!(report.failures.len() as u64, count(QueryOutcome::Failed));
    }

    #[test]
    fn crash_fails_unreplicated_queries_and_fails_over_replicated_ones() {
        use super::super::faults::FaultPlan;
        let faults = FaultPlan::none().with_crash(1, 0);

        // Unreplicated: tables homed on the dead node have no surviving
        // replica, so their queries fail (counted, not panicked).
        let cfg = quick_cfg(2.0, 12, FleetDispatch::sharded());
        let mut fleet = Fleet::reference(2);
        let sharded =
            serve_fleet_resilient(&mut fleet, &cfg, &ResilienceConfig::new(faults.clone()))
                .unwrap();
        assert!(
            sharded.availability() < 1.0,
            "dead tables must fail queries"
        );
        assert!(matches!(sharded.failures[0], SimError::QueryFailed { .. }));
        assert_eq!(sharded.node_queries[1], 0, "no query runs on a dead node");
        assert_conserved(&sharded);

        // Fully replicated: every table survives on node 0, so every
        // query fails over and completes.
        let cfg = quick_cfg(2.0, 12, FleetDispatch::replicated(64));
        let mut fleet = Fleet::reference(2);
        let replicated =
            serve_fleet_resilient(&mut fleet, &cfg, &ResilienceConfig::new(faults)).unwrap();
        assert_eq!(replicated.availability(), 1.0);
        assert!(replicated.report.failovers > 0);
        assert_eq!(replicated.node_queries[1], 0);
        assert_conserved(&replicated);
    }

    #[test]
    fn permanent_timeouts_exhaust_retries_into_deadline_failures() {
        use super::super::faults::{FaultPlan, RetryPolicy};
        let mut faults = FaultPlan::none();
        for node in 0..2 {
            for channel in 0..4 {
                faults = faults.with_timeout(node, channel, 0, u64::MAX);
            }
        }
        let cfg = quick_cfg(2.0, 6, FleetDispatch::replicated(64));
        let mut fleet = Fleet::reference(2);
        let res = ResilienceConfig::new(faults).with_retry(RetryPolicy {
            max_attempts: 3,
            timeout: 50_000,
            backoff: 1_000,
        });
        let report = serve_fleet_resilient(&mut fleet, &cfg, &res).unwrap();
        assert_eq!(
            report.availability(),
            0.0,
            "every channel times out forever"
        );
        assert!(report.report.retries > 0, "attempts were retried first");
        assert!(matches!(
            report.failures[0],
            SimError::DeadlineExceeded { attempts: 3, .. }
        ));
        assert_conserved(&report);
    }

    #[test]
    fn slo_guard_rejects_and_sheds_under_overload() {
        use super::super::faults::{FaultPlan, SloPolicy};
        // Oversaturate by 100x with a deadline close to bare service
        // time: the backlog must trip admission control.
        let mut cfg = quick_cfg(2.0, 48, FleetDispatch::replicated(1));
        cfg.qps *= 1_000.0;
        let mut fleet = Fleet::reference(2);
        let res = ResilienceConfig::new(FaultPlan::none()).with_slo(SloPolicy::new(2_000));
        let report = serve_fleet_resilient(&mut fleet, &cfg, &res).unwrap();
        let guarded = report.report.queries_rejected + report.report.queries_shed;
        assert!(guarded > 0, "1000x overload must trip the SLO guard");
        assert!(report.completed() > 0, "early queries still meet the SLO");
        // Guarded queries never ran: their latency entries are zero.
        for (lat, out) in report.latencies.iter().zip(&report.outcomes) {
            if *out != QueryOutcome::Completed {
                assert_eq!(*lat, 0);
            }
        }
        assert_conserved(&report);
    }

    #[test]
    fn hedging_duplicates_stragglers_deterministically() {
        use super::super::faults::{FaultPlan, HedgePolicy};
        // One stuck-at-slow channel on node 0 creates stragglers; with
        // full replication node 1 can absorb the hedges.
        let faults = FaultPlan::none().with_degrade(0, 0, 0, u64::MAX, 16);
        let cfg = quick_cfg(2.0, 48, FleetDispatch::replicated(64));
        let res = ResilienceConfig::new(faults).with_hedge(HedgePolicy {
            quantile: 0.5,
            min_samples: 8,
            window: 32,
        });
        let mut a = Fleet::reference(2);
        let mut b = Fleet::reference(2);
        let r1 = serve_fleet_resilient(&mut a, &cfg, &res).unwrap();
        let r2 = serve_fleet_resilient(&mut b, &cfg, &res).unwrap();
        assert_eq!(r1, r2, "hedged runs are deterministic");
        assert!(
            r1.report.hedges > 0,
            "a 16x-slow channel must trigger hedges"
        );
        assert_eq!(r1.availability(), 1.0);
        assert_conserved(&r1);
    }

    #[test]
    fn fleet_sweeps_anchor_every_dispatch_to_the_first() {
        use crate::serving::sweep::{anchored_sweep, SweepSpec};
        let spec = SweepSpec {
            process: ArrivalProcess::Uniform,
            shape: quick_shape(),
            utilizations: vec![0.5, 1.2],
            queries: 6,
            probe_queries: 6,
            seed: 23,
        };
        let mut make = || Fleet::reference(2);
        let dispatches = [FleetDispatch::replicated(1), FleetDispatch::sharded()];
        let curves = anchored_sweep(&mut make, dispatches[0], &dispatches, &spec).unwrap();
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].arm.label(), "fleet-replicated(1)");
        assert_eq!(curves[1].arm.label(), "fleet-sharded");
        assert_eq!(curves[0].saturation_qps, curves[1].saturation_qps);
        for (a, b) in curves[0].points.iter().zip(&curves[1].points) {
            assert_eq!(a.offered_qps, b.offered_qps);
        }
        assert_eq!(curves[0].system, "fleet[2 x recnmp-cluster[4]]");
        // A fleet sweep of no dispatch is a configuration error.
        let none = anchored_sweep(&mut make, dispatches[0], &[], &spec);
        assert!(matches!(none, Err(SimError::Config(_))));
    }
}
