//! The serving front: one config ([`ServingConfig`]), one entry point
//! ([`run`]) and one report ([`ServingRun`]) for every topology.
//!
//! A bare backend is a one-node fleet: every [`ServingMode`] serves its
//! nodes on the scatter/gather core (`serving::core`). Each query
//! dispatches at its arrival, its batches go to nodes and channels, the
//! shards queue independently, and the query completes at its slowest
//! shard plus the gather costs. The mode picks the plan: **queued** puts
//! every table on every server with a free gather and lets the
//! [`DispatchPolicy`] pick the channel, so each query runs whole on one
//! server; **sharded** builds a [`PlacementPlan`] (optionally behind a
//! host cache and with idle-gap prefetch); **tiered** a
//! [`TieredPlacementPlan`] (optionally with promotion epochs); **fleet**
//! a two-level [`FleetPlacementPlan`] behind a router.

use recnmp_backend::{
    FleetPlacementPlan, PlacementPlan, PlacementPolicy, RunReport, SlsBackend, SlsTrace,
    TableUsage, TieredPlacementPlan,
};
use recnmp_types::units::{completions_to_qps, cycles_to_us};
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};
use serde::{Deserialize, Serialize};

use super::arrivals::{offered_load, ArrivalProcess, QueryShape, QueryStream};
use super::core::{Core, Plan, Promotion, Stages};
use super::faults::{QueryOutcome, ResilienceConfig};
use super::fleet::{node_servers, NetworkCost, RouterPolicy};
use super::host_cache::{HostCache, HotVectorTracker};
use super::policy::{DispatchPolicy, GatherCost, ServingMode};

/// One serving run: an offered load, a query shape, and a scheduling
/// discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Arrival process of the open-loop generator.
    pub process: ArrivalProcess,
    /// Offered query rate (queries per second of simulated time).
    pub qps: f64,
    /// Queries to offer.
    pub queries: usize,
    /// SLS work per query.
    pub shape: QueryShape,
    /// How queries become backend work: queued whole-query dispatch,
    /// sharded or tiered scatter/gather on one node, or fleet
    /// scatter/gather behind a router.
    pub mode: ServingMode,
    /// Seed for both the arrival schedule and the query index streams.
    pub seed: u64,
}

impl ServingConfig {
    /// A Poisson FIFO configuration — the baseline serving discipline.
    pub fn poisson(qps: f64, queries: usize, shape: QueryShape, seed: u64) -> Self {
        Self {
            process: ArrivalProcess::Poisson,
            qps,
            queries,
            shape,
            mode: ServingMode::Queued(DispatchPolicy::FifoSingleQueue),
            seed,
        }
    }
}

/// Latency distribution of one serving run, in simulator cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: Cycle,
    /// 95th-percentile latency.
    pub p95: Cycle,
    /// 99th-percentile latency.
    pub p99: Cycle,
    /// Mean latency.
    pub mean: f64,
    /// Worst-case latency.
    pub max: Cycle,
}

impl LatencySummary {
    /// Summarizes `latencies` (need not be sorted). Zeroed for an empty
    /// slice.
    pub fn from_latencies(latencies: &[Cycle]) -> Self {
        if latencies.is_empty() {
            return Self::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        Self {
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            // Summed wide: latencies near the end of the clock must not
            // overflow the mean.
            mean: sorted.iter().map(|&l| u128::from(l)).sum::<u128>() as f64 / sorted.len() as f64,
            max: *sorted.last().unwrap(),
        }
    }

    /// The (p50, p95, p99) triple in microseconds.
    pub fn percentiles_us(&self) -> (f64, f64, f64) {
        (
            cycles_to_us(self.p50),
            cycles_to_us(self.p95),
            cycles_to_us(self.p99),
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty slice.
pub(super) fn percentile(sorted: &[Cycle], q: f64) -> Cycle {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Completion throughput (queries per simulated second) of the served
/// queries completing at `done`, measured over the completion window
/// (first to last completion) so the initial ramp and final drain don't
/// bias short runs. Falls back to the full makespan when the window is
/// degenerate (fewer than two distinct completion times).
pub(super) fn window_qps(done: &[Cycle]) -> f64 {
    let n = done.len() as u64;
    let first = done.iter().copied().min().unwrap_or(0);
    let last = done.iter().copied().max().unwrap_or(0);
    if n >= 2 && last > first {
        completions_to_qps(n - 1, last - first)
    } else {
        completions_to_qps(n, last)
    }
}

/// The outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRun {
    /// System label: the node's own name, or `fleet[N x name]` under
    /// [`ServingMode::Fleet`].
    pub system: String,
    /// Serving mode the run was scheduled under.
    pub mode: ServingMode,
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
    /// Tables the node-level plan replicated across nodes (0 off the
    /// fleet mode).
    pub replicated_tables: usize,
    /// What became of each offered query, in arrival order. Without
    /// faults or an SLO every query completes; otherwise queries may be
    /// rejected, shed or failed, and their `completions`/`latencies`
    /// entries are zeroed relative to arrival.
    pub outcomes: Vec<QueryOutcome>,
    /// The per-query failures behind every [`QueryOutcome::Failed`]
    /// entry, aggregated instead of aborting the run.
    pub failures: Vec<SimError>,
    /// Counters merged over every shard, with `query_completions`
    /// carrying the per-query timestamps and `total_cycles` the makespan.
    pub report: RunReport,
}

impl ServingRun {
    /// Queries served to completion.
    pub fn completed(&self) -> usize {
        (self.outcomes.iter())
            .filter(|&&o| o == QueryOutcome::Completed)
            .count()
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
    /// summary is computed over.
    pub fn completed_latencies(&self) -> Vec<Cycle> {
        self.completed_only(&self.latencies)
    }

    /// Completion throughput (queries per simulated second) of the
    /// completed queries, measured over the completion window (first to
    /// last completion) so the initial ramp and final drain don't bias
    /// short runs.
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

/// Serves `cfg.queries` open-loop queries on `nodes` under `cfg.mode` and
/// `res`, and accounts per-query latency in simulated time.
///
/// The queueing model: each node exposes
/// [`server_count`](SlsBackend::server_count) independent servers
/// (cluster channels); each query dispatches at its arrival and each of
/// its shards occupies one server for the `total_cycles` its cycle-level
/// run reports, and work placed on a busy server waits for it to free.
/// Hardware state (row buffers, caches) persists across queries on each
/// server, as it would under sustained traffic; idle gaps between
/// queries are not separately simulated. The single-node modes serve
/// one node; [`ServingMode::Fleet`] serves any number behind its router.
///
/// On top of the plain scatter/gather the core applies `res`'s
/// [`faults`](super::faults) semantics in every mode: health-aware
/// failover (the *first* query to discover a fresh crash pays a fixed
/// 2,400-cycle re-dispatch penalty; a table with no surviving replica
/// fails its query with [`SimError::QueryFailed`]), per-shard retry with
/// exponential backoff onto the least-backlogged replica channel owning
/// the shard's tables ([`SimError::DeadlineExceeded`] on exhaustion),
/// hedging of straggler node jobs onto a replica node holding all their
/// tables (both copies occupy their channels, the earlier completion
/// wins), and the SLO guard (admission rejection on the optimistic queue
/// estimate, shedding on the actual routed start). Rejected and shed
/// queries run no cycle-level work. [`ResilienceConfig::zero`] makes
/// every one of these inert.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if a node's cycle-level run stalls, or
/// [`SimError::Config`] when the offered rate is not positive and
/// finite, the query shape fails [`QueryShape::validate`], `nodes` is
/// empty, disagrees on server count or exposes no servers, a
/// single-node mode gets more than one node, a tiered mode's units are
/// not the node's servers, `res` fails [`ResilienceConfig::validate`],
/// or placement cannot fit the workload — run-level problems only;
/// per-query failures land in [`ServingRun::failures`].
pub fn run(
    nodes: &mut [&mut dyn SlsBackend],
    cfg: &ServingConfig,
    res: &ResilienceConfig,
) -> Result<ServingRun, SimError> {
    let (arrivals, stream) = offered_load(cfg.process, cfg.qps, cfg.queries, cfg.shape, cfg.seed)?;
    run_at(nodes, cfg, res, arrivals, stream)
}

/// [`run`] at given arrivals: serves one query of `stream` per arrival
/// (query `i` at `arrivals[i]`), drawing each as it dispatches. The
/// saturation probe's entry point.
pub(super) fn run_at(
    nodes: &mut [&mut dyn SlsBackend],
    cfg: &ServingConfig,
    res: &ResilienceConfig,
    arrivals: Vec<Cycle>,
    stream: QueryStream,
) -> Result<ServingRun, SimError> {
    let servers = node_servers(nodes.iter().map(|n| &**n as &dyn SlsBackend))?;
    let config_error = |field, msg| Err(SimError::Config(ConfigError::new(field, msg)));
    let name = nodes[0].name();
    if servers == 0 {
        return config_error("backend", format!("{name} exposes no servers"));
    }
    let fleet = matches!(cfg.mode, ServingMode::Fleet(_));
    if nodes.len() > 1 && !fleet {
        let msg = format!("{} serves one node, got {}", cfg.mode, nodes.len());
        return config_error("nodes", msg);
    }
    let units = match cfg.mode {
        ServingMode::Tiered(tiered) => tiered.tiers.units(),
        _ => servers,
    };
    if units != servers {
        let msg = format!("spec describes {units} unit(s) but {name} exposes {servers} server(s)");
        return config_error("tiers", msg);
    }
    res.validate(nodes.len(), servers)?;
    let system = if fleet {
        format!("fleet[{} x {name}]", nodes.len())
    } else {
        name.to_string()
    };
    let (core, queries) = plan(cfg, nodes.len(), servers, stream, arrivals.len())?;
    let served = ServingRun::new(system, cfg, arrivals, nodes.len());
    core.run(nodes, res, served, queries)
}

/// The scatter/gather core of `cfg.mode` on `nodes` nodes of `servers`
/// servers each for the first `n` queries of `stream`, with the plan
/// built once per run from the stream's
/// [`table_profile`](QueryStream::table_profile), and the queries the
/// core serves, drawn as it dispatches them.
///
/// The fleet plan places tables twice, tables → nodes (replicating the
/// hottest across nodes) and tables → channels within each node; every
/// other mode is one node, which needs no router and pays no network
/// gather. Queued mode is the replicate-everywhere plan with a free gather; its
/// scatter rule sees no channel clock move mid-query, so each query runs
/// whole on one server.
///
/// Behind a host cache the sharded plan balances the *residual* profile
/// (cache/placement co-design): a dry run draws the queries and filters
/// each through the cold cache once, in arrival order, recording its
/// hits for the core to charge, and the cache's per-table absorption
/// weights the plan. The core then serves those residuals, each trimmed
/// to its size, in place of the stream. With
/// promotion epochs the tiered plan starts *cold* — every table weighted
/// equally, since the profile is unknown at t=0 — and the core's
/// promotion stage learns the split.
fn plan(
    cfg: &ServingConfig,
    nodes: usize,
    servers: usize,
    mut stream: QueryStream,
    n: usize,
) -> Result<(Core, Box<dyn Iterator<Item = SlsTrace>>), SimError> {
    let usage = stream.table_profile(n);
    let mut residuals: Option<Vec<SlsTrace>> = None;
    let mut stages = Stages::default();
    let (mut router, mut scatter) = (RouterPolicy::HashAffinity, RouterPolicy::PlacementScatter);
    let mut network = NetworkCost::new(0, 0);
    let (plan, gather) = match cfg.mode {
        ServingMode::Queued(policy) => {
            scatter = match policy {
                DispatchPolicy::FifoSingleQueue => RouterPolicy::PlacementScatter,
                DispatchPolicy::RoundRobin => RouterPolicy::HashAffinity,
                DispatchPolicy::LeastOutstanding => RouterPolicy::LeastOutstanding,
            };
            let everywhere = PlacementPolicy::FrequencyBalanced {
                replicate: usize::MAX,
            };
            let plan = PlacementPlan::build(servers, None, &usage, everywhere);
            (
                Plan::Node(plan.map_err(SimError::Config)?),
                GatherCost::new(0, 0),
            )
        }
        ServingMode::Sharded(sharded) => {
            stages.prefetch = (sharded.prefetch).map(|p| HotVectorTracker::new(p.candidates));
            let mut absorbed = Vec::new();
            if let Some(spec) = sharded.host_cache {
                // Lines fit the stream's largest vector.
                let mut hc = HostCache::build(spec, &usage, stream.vector_bytes())
                    .map_err(SimError::Config)?;
                let (kept, hits) = (0..n)
                    .map(|_| {
                        let mut query = stream.next_query();
                        let hits = hc.filter(&mut query);
                        query.shrink_to_fit();
                        (query, hits)
                    })
                    .unzip();
                residuals = Some(kept);
                absorbed = hc.absorbed_profile();
                stages.host_cache = Some((hc, hits));
            }
            let capacity = sharded.channel_capacity.map(ByteSize::get);
            let plan = PlacementPlan::build_with_absorption(
                servers,
                capacity,
                &usage,
                &absorbed,
                sharded.placement,
            );
            (Plan::Node(plan.map_err(SimError::Config)?), sharded.gather)
        }
        ServingMode::Tiered(tiered) => {
            let profile = match tiered.promotion {
                Some(epochs) => {
                    // Every table weighs the same in the cold plan; the
                    // observed counts start at zero.
                    let flat = |n| {
                        usage
                            .iter()
                            .map(move |u| TableUsage::new(u.table, u.bytes, n))
                    };
                    let observed = flat(0).collect();
                    stages.promotion = Some(Promotion { epochs, observed });
                    flat(1).collect()
                }
                None => usage,
            };
            let plan = TieredPlacementPlan::build(tiered.tiers, &profile, tiered.policy);
            (Plan::Tiered(plan.map_err(SimError::Config)?), tiered.gather)
        }
        ServingMode::Fleet(dispatch) => {
            (router, network) = (dispatch.router, dispatch.network);
            let plan = FleetPlacementPlan::build(
                nodes,
                servers,
                dispatch.channel_capacity.map(ByteSize::get),
                &usage,
                dispatch.node_policy,
                dispatch.within_policy,
            );
            (
                Plan::Fleet(plan.map_err(SimError::Config)?),
                dispatch.gather,
            )
        }
    };
    let core = Core {
        plan,
        router,
        scatter,
        gather,
        network,
        stages,
    };
    let queries: Box<dyn Iterator<Item = SlsTrace>> = match residuals {
        Some(residuals) => Box::new(residuals.into_iter()),
        None => Box::new((0..n).map(move |_| stream.next_query())),
    };
    Ok((core, queries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::fleet::FleetDispatch;
    use crate::serving::policy::ShardedDispatch;
    use crate::serving::sweep::reference_cluster4;
    use crate::serving::FaultPlan;
    use recnmp_baselines::HostBaseline;

    fn quick_cfg(qps: f64, queries: usize, policy: DispatchPolicy) -> ServingConfig {
        ServingConfig {
            process: ArrivalProcess::Poisson,
            qps,
            queries,
            shape: QueryShape::new(2, 2, 8),
            mode: ServingMode::Queued(policy),
            seed: 11,
        }
    }

    /// `cfg` on one fresh one-channel host, fault-free.
    fn on_host(cfg: &ServingConfig) -> Result<ServingRun, SimError> {
        let mut host = HostBaseline::new(1, 2).unwrap();
        run(&mut [&mut host], cfg, &ResilienceConfig::zero())
    }

    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let lat: Vec<Cycle> = (1..=100).collect();
        let s = LatencySummary::from_latencies(&lat);
        assert_eq!((s.p50, s.p95, s.p99, s.max), (50, 95, 99, 100));
        assert!((s.mean - 50.5).abs() < 1e-9);
        let zero = LatencySummary::from_latencies(&[]);
        assert_eq!(zero.max, 0);
    }

    #[test]
    fn serving_accounts_queue_wait() {
        // Low offered load: latency ≈ service. Extreme offered load: the
        // tail must include queueing delay on the single host pipeline.
        let low = on_host(&quick_cfg(1_000.0, 12, DispatchPolicy::FifoSingleQueue)).unwrap();
        let hot = on_host(&quick_cfg(
            50_000_000.0,
            12,
            DispatchPolicy::FifoSingleQueue,
        ))
        .unwrap();
        assert!(hot.summary().p99 > low.summary().p99);
        assert_eq!(low.latencies.len(), 12);
        // Even overload completes every query: no fault plan, no SLO.
        assert_eq!(hot.completed(), 12);
        assert_eq!(hot.report.queries_rejected, 0);
        assert_eq!(
            low.report.insts,
            12 * quick_cfg(1.0, 1, DispatchPolicy::RoundRobin)
                .shape
                .lookups_per_query()
        );
        assert_eq!(low.report.query_completions, low.completions);
    }

    #[test]
    fn policies_coincide_on_a_single_server() {
        let runs: Vec<ServingRun> = DispatchPolicy::ALL
            .iter()
            .map(|&p| on_host(&quick_cfg(100_000.0, 8, p)).unwrap())
            .collect();
        assert_eq!(runs[0].latencies, runs[1].latencies);
        assert_eq!(runs[1].latencies, runs[2].latencies);
    }

    #[test]
    fn sharded_single_server_pays_exactly_the_gather_cost() {
        // On one server the scatter degenerates to one shard, so the
        // sharded completion schedule equals the queued FIFO schedule
        // shifted by base + 1*per_shard gather cycles per query.
        let queued = quick_cfg(100_000.0, 8, DispatchPolicy::FifoSingleQueue);
        let base = on_host(&queued).unwrap();

        let mut sharded_cfg = queued;
        let mut dispatch = ShardedDispatch::new(PlacementPolicy::Hash);
        dispatch.gather = GatherCost::new(100, 7);
        sharded_cfg.mode = ServingMode::Sharded(dispatch);
        let sharded = on_host(&sharded_cfg).unwrap();

        assert_eq!(sharded.report.insts, base.report.insts);
        for (s, q) in sharded.completions.iter().zip(&base.completions) {
            assert_eq!(*s, q + 107);
        }
    }

    #[test]
    fn sharded_mode_surfaces_capacity_overflow() {
        let mut cfg = quick_cfg(100_000.0, 4, DispatchPolicy::FifoSingleQueue);
        let mut dispatch = ShardedDispatch::new(PlacementPolicy::CapacityGreedy);
        dispatch.channel_capacity = Some(ByteSize::bytes(1)); // nothing fits
        cfg.mode = ServingMode::Sharded(dispatch);
        assert!(matches!(on_host(&cfg), Err(SimError::Config(_))));
    }

    #[test]
    fn a_backend_without_servers_is_a_config_error_in_every_mode() {
        use recnmp_backend::{TierSpec, TieredPolicy};

        struct NoServers;
        impl SlsBackend for NoServers {
            fn name(&self) -> &str {
                "no-servers"
            }
            fn try_run(&mut self, _: &SlsTrace) -> Result<RunReport, SimError> {
                unreachable!("a serverless backend never runs work")
            }
            fn server_count(&self) -> usize {
                0
            }
        }

        let tiers = TierSpec {
            dram_channels: 1,
            dram_channel_capacity: ByteSize::mib(128),
            ssd_units: 1,
            ssd_unit_capacity: ByteSize::gib(1),
        };
        for mode in [
            ServingMode::Queued(DispatchPolicy::FifoSingleQueue),
            ServingMode::sharded(PlacementPolicy::Hash),
            ServingMode::tiered(TieredPolicy::Hash, tiers),
            ServingMode::Fleet(FleetDispatch::sharded()),
        ] {
            let mut cfg = quick_cfg(100_000.0, 4, DispatchPolicy::FifoSingleQueue);
            cfg.mode = mode;
            let served = run(&mut [&mut NoServers], &cfg, &ResilienceConfig::zero());
            assert!(matches!(served, Err(SimError::Config(_))), "{mode}");
        }
    }

    #[test]
    fn a_single_node_mode_on_two_nodes_is_a_config_error() {
        let mut cfg = quick_cfg(100_000.0, 4, DispatchPolicy::FifoSingleQueue);
        cfg.mode = ServingMode::sharded(PlacementPolicy::Hash);
        let (mut a, mut b) = (reference_cluster4(), reference_cluster4());
        let served = run(
            &mut [a.as_mut(), b.as_mut()],
            &cfg,
            &ResilienceConfig::zero(),
        );
        assert!(matches!(served, Err(SimError::Config(_))));
        // The fleet mode serves the same two nodes.
        cfg.mode = ServingMode::Fleet(FleetDispatch::sharded());
        let served = run(
            &mut [a.as_mut(), b.as_mut()],
            &cfg,
            &ResilienceConfig::zero(),
        );
        assert_eq!(served.unwrap().system, "fleet[2 x recnmp-cluster[4]]");
    }

    #[test]
    fn resilience_is_validated_in_a_single_node_mode() {
        let mut cfg = quick_cfg(100_000.0, 4, DispatchPolicy::FifoSingleQueue);
        cfg.mode = ServingMode::sharded(PlacementPolicy::Hash);
        let mut cluster = reference_cluster4();
        // Channels 0..4 exist; channel 4 does not.
        let res =
            |channel| ResilienceConfig::new(FaultPlan::none().with_degrade(0, channel, 0, 100, 2));
        let served = run(&mut [cluster.as_mut()], &cfg, &res(4));
        assert!(matches!(served, Err(SimError::Config(_))));
        let served = run(&mut [cluster.as_mut()], &cfg, &res(3)).unwrap();
        assert_eq!(served.completed(), 4);
    }
}
