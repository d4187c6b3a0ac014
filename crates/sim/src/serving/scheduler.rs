//! The single-node query scheduler: turns a backend into an open-loop
//! queueing system and accounts per-query enqueue→completion latency in
//! simulated time.
//!
//! Every [`ServingMode`] serves the backend as a one-node fleet on the
//! scatter/gather core (`serving::core`): each query dispatches at its
//! arrival, its batches go to channels, the shards queue independently,
//! and the query completes at its slowest shard plus a host
//! [`GatherCost`] merge. The mode picks the plan: **queued** puts every
//! table on every server with a free gather and lets the
//! [`DispatchPolicy`] pick the channel, so each query runs whole on one
//! server; **sharded** builds a [`PlacementPlan`]
//! (optionally behind a host cache and with idle-gap prefetch);
//! **tiered** a [`TieredPlacementPlan`] (optionally with promotion
//! epochs).

use recnmp_backend::{
    PlacementPlan, PlacementPolicy, RunReport, SlsBackend, SlsTrace, TableUsage,
    TieredPlacementPlan,
};
use recnmp_types::units::{completions_to_qps, cycles_to_us};
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};
use serde::{Deserialize, Serialize};

use super::arrivals::{offered_load, ArrivalProcess, QueryShape};
use super::core::{Core, Plan, Promotion, Stages};
use super::faults::ResilienceConfig;
use super::fleet::{NetworkCost, RouterPolicy};
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
    /// sharded or tiered scatter/gather.
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
pub struct ServingReport {
    /// Backend label the run was served by.
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
    /// Dispatched units: always the query count, since each query
    /// dispatches on its own.
    pub jobs: usize,
    /// Arrival-order indices of rejected queries: always empty, since
    /// single-node serving has no admission control (the SLO guard is a
    /// fleet policy, [`ResilienceConfig::slo`]).
    pub rejected: Vec<usize>,
    /// Counters merged over every dispatched query, with
    /// `query_completions` carrying the per-query timestamps and
    /// `total_cycles` the makespan.
    pub report: RunReport,
}

impl ServingReport {
    /// Completion throughput (queries per simulated second), measured
    /// over the completion window (first to last completion) so the
    /// initial ramp and final drain don't bias short runs.
    pub fn achieved_qps(&self) -> f64 {
        window_qps(&self.completions)
    }

    /// The latency distribution.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_latencies(&self.latencies)
    }
}

/// Serves `cfg.queries` open-loop queries on `backend` and accounts
/// per-query latency in simulated time.
///
/// The queueing model: the backend exposes
/// [`server_count`](SlsBackend::server_count) independent servers
/// (cluster channels); each query dispatches at its arrival and (in
/// sharded and tiered mode, each of its shards) occupies one server for
/// the `total_cycles` its cycle-level run reports, and work placed on a
/// busy server waits for it to free. Hardware state (row buffers,
/// caches) persists across queries on each server, as it would under
/// sustained traffic; idle gaps between queries are not separately
/// simulated.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any job's cycle-level run stalls, or
/// [`SimError::Config`] when the offered rate is not positive and finite,
/// the query shape fails [`QueryShape::validate`], the backend exposes no
/// servers, or the placement cannot fit the workload's tables.
pub fn serve(backend: &mut dyn SlsBackend, cfg: &ServingConfig) -> Result<ServingReport, SimError> {
    let (arrivals, queries) = offered_load(cfg.process, cfg.qps, cfg.queries, cfg.shape, cfg.seed)?;
    serve_arrivals(backend, cfg, &arrivals, queries)
}

/// The single-node scheduler, shared by [`serve`] and the saturation
/// probe: serves `queries` (arrival `arrivals[i]` each) on the
/// scatter/gather core as a one-node fleet, consuming them.
pub(super) fn serve_arrivals(
    backend: &mut dyn SlsBackend,
    cfg: &ServingConfig,
    arrivals: &[Cycle],
    mut queries: Vec<SlsTrace>,
) -> Result<ServingReport, SimError> {
    assert_eq!(arrivals.len(), queries.len(), "one arrival per query");
    let servers = backend.server_count();
    if servers == 0 {
        return Err(SimError::Config(ConfigError::new(
            "backend",
            format!("{} exposes no servers", backend.name()),
        )));
    }
    let system = backend.name().to_string();
    let core = node_core(cfg, servers, &mut queries)?;
    let zero = ResilienceConfig::zero();
    let mut served = core.run(&mut [backend], &zero, arrivals, queries, &system)?;
    let latencies = served.finish(arrivals);
    Ok(ServingReport {
        system,
        mode: cfg.mode,
        offered_qps: cfg.qps,
        arrivals: arrivals.to_vec(),
        completions: served.completions,
        latencies,
        jobs: arrivals.len(),
        rejected: Vec::new(),
        report: served.report,
    })
}

/// The one-node scatter/gather core of `cfg.mode`, with the plan built
/// once per run from the query stream's table profile.
///
/// Queued mode is the replicate-everywhere plan with a free gather; its
/// scatter rule sees no channel clock move mid-query, so each query runs
/// whole on one server.
///
/// Behind a host cache the sharded plan balances the *residual* profile
/// (cache/placement co-design): a dry run filters every query through the
/// cold cache once, in arrival order, leaving each query as its residual
/// and recording its hits for the core to charge, and the cache's
/// per-table absorption weights the plan. With promotion epochs the tiered plan
/// starts *cold* — every table weighted equally, since the profile is
/// unknown at t=0 — and the core's promotion stage learns the split.
fn node_core(
    cfg: &ServingConfig,
    servers: usize,
    queries: &mut [SlsTrace],
) -> Result<Core, SimError> {
    let usage = TableUsage::from_traces(queries);
    let mut stages = Stages::default();
    let mut scatter = RouterPolicy::PlacementScatter;
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
                // Lines fit the stream's largest vector (each trace's is
                // uniform).
                let line = queries
                    .iter()
                    .filter(|q| !q.is_empty())
                    .map(SlsTrace::vector_bytes);
                let mut hc = HostCache::build(spec, &usage, line.max().unwrap_or(64))
                    .map_err(SimError::Config)?;
                let hits = hc.filter_all(queries);
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
            if tiered.tiers.units() != servers {
                return Err(SimError::Config(ConfigError::new(
                    "tiers",
                    format!(
                        "spec describes {} unit(s) but the backend exposes {servers} server(s)",
                        tiered.tiers.units()
                    ),
                )));
            }
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
    };
    // One node needs no router and pays no network gather.
    Ok(Core {
        plan,
        router: RouterPolicy::HashAffinity,
        scatter,
        gather,
        network: NetworkCost::new(0, 0),
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::policy::ShardedDispatch;
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
        let mut relaxed = HostBaseline::new(1, 2).unwrap();
        let low = serve(
            &mut relaxed,
            &quick_cfg(1_000.0, 12, DispatchPolicy::FifoSingleQueue),
        )
        .unwrap();
        let mut slammed = HostBaseline::new(1, 2).unwrap();
        let hot = serve(
            &mut slammed,
            &quick_cfg(50_000_000.0, 12, DispatchPolicy::FifoSingleQueue),
        )
        .unwrap();
        assert!(hot.summary().p99 > low.summary().p99);
        assert_eq!(low.latencies.len(), 12);
        // Even overload dispatches every query on its own and rejects
        // none.
        assert_eq!(hot.jobs, 12);
        assert!(hot.rejected.is_empty());
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
        let reports: Vec<ServingReport> = DispatchPolicy::ALL
            .iter()
            .map(|&p| {
                let mut host = HostBaseline::new(1, 2).unwrap();
                serve(&mut host, &quick_cfg(100_000.0, 8, p)).unwrap()
            })
            .collect();
        assert_eq!(reports[0].latencies, reports[1].latencies);
        assert_eq!(reports[1].latencies, reports[2].latencies);
    }

    #[test]
    fn sharded_single_server_pays_exactly_the_gather_cost() {
        // On one server the scatter degenerates to one shard, so the
        // sharded completion schedule equals the queued FIFO schedule
        // shifted by base + 1*per_shard gather cycles per query.
        use crate::serving::policy::GatherCost;
        use recnmp_backend::PlacementPolicy;

        let queued = quick_cfg(100_000.0, 8, DispatchPolicy::FifoSingleQueue);
        let mut host = HostBaseline::new(1, 2).unwrap();
        let base = serve(&mut host, &queued).unwrap();

        let mut sharded_cfg = queued;
        let mut dispatch = ShardedDispatch::new(PlacementPolicy::Hash);
        dispatch.gather = GatherCost::new(100, 7);
        sharded_cfg.mode = ServingMode::Sharded(dispatch);
        let mut host2 = HostBaseline::new(1, 2).unwrap();
        let sharded = serve(&mut host2, &sharded_cfg).unwrap();

        assert_eq!(sharded.report.insts, base.report.insts);
        for (s, q) in sharded.completions.iter().zip(&base.completions) {
            assert_eq!(*s, q + 107);
        }
    }

    #[test]
    fn sharded_mode_surfaces_capacity_overflow() {
        use recnmp_backend::PlacementPolicy;
        let mut cfg = quick_cfg(100_000.0, 4, DispatchPolicy::FifoSingleQueue);
        let mut dispatch = ShardedDispatch::new(PlacementPolicy::CapacityGreedy);
        dispatch.channel_capacity = Some(ByteSize::bytes(1)); // nothing fits
        cfg.mode = ServingMode::Sharded(dispatch);
        let mut host = HostBaseline::new(1, 2).unwrap();
        assert!(matches!(serve(&mut host, &cfg), Err(SimError::Config(_))));
    }

    #[test]
    fn a_backend_without_servers_is_a_config_error_in_every_mode() {
        use recnmp_backend::{PlacementPolicy, TierSpec, TieredPolicy};

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
        ] {
            let mut cfg = quick_cfg(100_000.0, 4, DispatchPolicy::FifoSingleQueue);
            cfg.mode = mode;
            assert!(
                matches!(serve(&mut NoServers, &cfg), Err(SimError::Config(_))),
                "{mode}"
            );
        }
    }
}
