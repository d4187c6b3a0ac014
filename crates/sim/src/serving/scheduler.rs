//! The single-node query scheduler: turns a backend into an open-loop
//! queueing system and accounts per-query enqueue→completion latency in
//! simulated time.
//!
//! [`ServingMode`] picks how jobs become backend work:
//!
//! * **Queued** — each job runs whole on one server picked by a
//!   [`DispatchPolicy`], on this module's own loop;
//! * **Sharded** and **Tiered** — the backend is served as a one-node
//!   fleet by the scatter/gather core (`serving::core`): a
//!   [`PlacementPlan`] (sharded, optionally behind a host cache and with
//!   idle-gap prefetch) or a [`TieredPlacementPlan`] (optionally with
//!   promotion epochs) places each job's batches on channels, the shards
//!   queue independently, and the query completes at the slowest shard
//!   plus a host [`GatherCost`](super::policy::GatherCost) merge.

use recnmp_backend::{
    PlacementPlan, RunReport, SlsBackend, SlsTrace, TableUsage, TieredPlacementPlan,
};
use recnmp_types::units::{completions_to_qps, cycles_to_us};
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};
use serde::{Deserialize, Serialize};

use super::arrivals::{offered_load, ArrivalProcess, QueryShape};
use super::core::{
    coalesce, merge_queries, Core, DepthGuard, Job, Plan, Promotion, Served, Stages,
};
use super::faults::{QueryOutcome, ResilienceConfig};
use super::fleet::{NetworkCost, RouterPolicy};
use super::host_cache::{HostCache, HotVectorTracker};
use super::policy::{Coalescing, DispatchPolicy, ServingMode};

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
    /// How jobs become backend work: queued whole-query dispatch or
    /// sharded scatter/gather.
    pub mode: ServingMode,
    /// Optional batch coalescing ahead of dispatch.
    pub coalescing: Option<Coalescing>,
    /// Optional bound on queries in flight (dispatched, not yet
    /// complete). A job arriving while the bound is met is *rejected* —
    /// counted in [`ServingReport::rejected`] and
    /// `RunReport::queries_rejected` — instead of growing the queue
    /// without limit through a long overload sweep. `None` keeps the
    /// historical unbounded queue.
    pub max_queue_depth: Option<usize>,
    /// Seed for both the arrival schedule and the query index streams.
    pub seed: u64,
}

impl ServingConfig {
    /// A Poisson FIFO configuration with no coalescing — the baseline
    /// serving discipline.
    pub fn poisson(qps: f64, queries: usize, shape: QueryShape, seed: u64) -> Self {
        Self {
            process: ArrivalProcess::Poisson,
            qps,
            queries,
            shape,
            mode: ServingMode::Queued(DispatchPolicy::FifoSingleQueue),
            coalescing: None,
            max_queue_depth: None,
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
            mean: sorted.iter().sum::<Cycle>() as f64 / sorted.len() as f64,
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
    /// Backend runs dispatched (equals query count without coalescing).
    pub jobs: usize,
    /// Arrival-order indices of queries rejected at the
    /// [`max_queue_depth`](ServingConfig::max_queue_depth) bound,
    /// ascending. Their `completions` entries equal their dispatch cycle
    /// and they are excluded from the summary and throughput window.
    pub rejected: Vec<usize>,
    /// Counters merged over every dispatched job, with
    /// `query_completions` carrying the per-query timestamps and
    /// `total_cycles` the makespan.
    pub report: RunReport,
}

impl ServingReport {
    /// Per-query values with the rejected queries dropped (`rejected` is
    /// ascending).
    fn served(&self, values: &[Cycle]) -> Vec<Cycle> {
        values
            .iter()
            .enumerate()
            .filter(|(i, _)| self.rejected.binary_search(i).is_err())
            .map(|(_, &v)| v)
            .collect()
    }

    /// Completion throughput (queries per simulated second) over the
    /// served (non-rejected) queries, measured over the completion window
    /// (first to last completion) so the initial ramp and final drain
    /// don't bias short runs.
    pub fn achieved_qps(&self) -> f64 {
        window_qps(&self.served(&self.completions))
    }

    /// The latency distribution over served (non-rejected) queries.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_latencies(&self.served(&self.latencies))
    }
}

/// Serves `cfg.queries` open-loop queries on `backend` and accounts
/// per-query latency in simulated time.
///
/// The queueing model: the backend exposes
/// [`server_count`](SlsBackend::server_count) independent servers
/// (cluster channels); each dispatched job (in sharded and tiered mode,
/// each of its shards) occupies one server for the `total_cycles` its
/// cycle-level run reports, and work placed on a busy server waits for it
/// to free. Hardware state (row buffers, caches) persists across jobs on
/// each server, as it would under sustained traffic; idle gaps between
/// jobs are not separately simulated.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any job's cycle-level run stalls, or
/// [`SimError::Config`] when the backend exposes no servers or the
/// placement cannot fit the workload's tables.
pub fn serve(backend: &mut dyn SlsBackend, cfg: &ServingConfig) -> Result<ServingReport, SimError> {
    let (arrivals, queries) = offered_load(cfg.process, cfg.qps, cfg.queries, cfg.shape, cfg.seed);
    serve_arrivals(backend, cfg, &arrivals, &queries)
}

/// The single-node scheduler, shared by [`serve`] and the saturation
/// probe: coalesces `queries` (arrival `arrivals[i]` each) into jobs and
/// serves them under `cfg.mode` — `Queued` on its own whole-job loop,
/// `Sharded` and `Tiered` on the scatter/gather core as a one-node
/// fleet.
pub(super) fn serve_arrivals(
    backend: &mut dyn SlsBackend,
    cfg: &ServingConfig,
    arrivals: &[Cycle],
    queries: &[SlsTrace],
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
    let jobs = coalesce(arrivals, cfg.coalescing);
    let mut served = match cfg.mode {
        ServingMode::Queued(policy) => {
            serve_queued(backend, policy, &jobs, queries, cfg.max_queue_depth)?
        }
        ServingMode::Sharded(_) | ServingMode::Tiered(_) => {
            let core = node_core(cfg, servers, &jobs, queries)?;
            let zero = ResilienceConfig::zero();
            core.run(&mut [backend], &zero, &jobs, queries, &system)?
        }
    };
    let latencies = served.finish(arrivals);
    let rejected = (0..queries.len()).filter(|&q| served.outcomes[q] == QueryOutcome::Rejected);
    Ok(ServingReport {
        system,
        mode: cfg.mode,
        offered_qps: cfg.qps,
        arrivals: arrivals.to_vec(),
        completions: served.completions,
        latencies,
        jobs: jobs.len(),
        rejected: rejected.collect(),
        report: served.report,
    })
}

/// The one-node scatter/gather core of sharded or tiered mode, with the
/// plan built once per run from the query stream's table profile.
///
/// Behind a host cache the sharded plan balances the *residual* profile:
/// a dry run replays the jobs through the cache to learn each table's
/// absorption, and the cache returns to cold before the measured pass
/// (cache/placement co-design). With promotion epochs the tiered plan
/// starts *cold* — every table weighted equally, since the profile is
/// unknown at t=0 — and the core's promotion stage learns the split.
fn node_core(
    cfg: &ServingConfig,
    servers: usize,
    jobs: &[Job],
    queries: &[SlsTrace],
) -> Result<Core, SimError> {
    let usage = TableUsage::from_traces(queries);
    let mut stages = Stages {
        max_queue_depth: cfg.max_queue_depth,
        ..Stages::default()
    };
    let (plan, gather) = match cfg.mode {
        ServingMode::Sharded(sharded) => {
            stages.prefetch = (sharded.prefetch).map(|p| HotVectorTracker::new(p.candidates));
            let mut absorbed = Vec::new();
            if let Some(spec) = sharded.host_cache {
                let mut hc = HostCache::build(spec, &usage, max_vector_bytes(queries))
                    .map_err(SimError::Config)?;
                for job in jobs {
                    let _ = hc.filter(merge_queries(queries, &job.members));
                }
                absorbed = hc.absorbed_profile();
                hc.reset();
                stages.host_cache = Some(hc);
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
        ServingMode::Queued(_) => unreachable!("queued mode dispatches whole jobs"),
    };
    // One node needs no router and pays no network gather.
    Ok(Core {
        plan,
        router: RouterPolicy::HashAffinity,
        gather,
        network: NetworkCost::new(0, 0),
        stages,
    })
}

/// `Queued` mode: each job runs whole on one server picked by `policy`.
fn serve_queued(
    backend: &mut dyn SlsBackend,
    policy: DispatchPolicy,
    jobs: &[Job],
    queries: &[SlsTrace],
    max_queue_depth: Option<usize>,
) -> Result<Served, SimError> {
    let servers = backend.server_count();
    // Earliest cycle each server is free.
    let mut free_at = vec![0 as Cycle; servers];
    // For LeastOutstanding: the completion/lookup pairs of work still in
    // flight per server.
    let mut in_flight: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); servers];
    let mut served = Served::new(backend.name(), queries.len(), 1);
    let mut guard = DepthGuard::new(max_queue_depth);
    for (job_idx, job) in jobs.iter().enumerate() {
        if !guard.admits(job.dispatch) {
            served.settle(job, QueryOutcome::Rejected, job.dispatch);
            continue;
        }
        let server = match policy {
            // Central queue: the job runs on whichever server frees first
            // (ties to the lowest index).
            DispatchPolicy::FifoSingleQueue => {
                (0..servers).min_by_key(|&s| (free_at[s], s)).unwrap()
            }
            DispatchPolicy::RoundRobin => job_idx % servers,
            // Size-aware join-shortest-queue: least outstanding lookups at
            // dispatch time. Dispatch times are non-decreasing, so work
            // completed by now can never count again and is dropped before
            // the scan.
            DispatchPolicy::LeastOutstanding => (0..servers)
                .min_by_key(|&s| {
                    in_flight[s].retain(|(done, _)| *done > job.dispatch);
                    let backlog: u64 = in_flight[s].iter().map(|(_, lookups)| lookups).sum();
                    (backlog, s)
                })
                .unwrap(),
        };

        let trace = merge_queries(queries, &job.members);
        let report = backend.try_run_on(server, &trace)?;
        let complete = job.dispatch.max(free_at[server]) + report.total_cycles;
        free_at[server] = complete;
        if policy == DispatchPolicy::LeastOutstanding {
            in_flight[server].push((complete, trace.total_lookups()));
        }
        served.settle(job, QueryOutcome::Completed, complete);
        guard.admit(complete);
        served.report.absorb_parallel(report);
    }
    Ok(served)
}

/// The largest vector size across the stream — the host cache's line
/// size, so any table's vector fits one line.
fn max_vector_bytes(queries: &[SlsTrace]) -> u64 {
    queries
        .iter()
        .flat_map(|q| &q.batches)
        .map(|b| b.batch.spec.vector_bytes)
        .max()
        .unwrap_or(64)
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
            coalescing: None,
            max_queue_depth: None,
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
    fn coalescing_honors_size_and_deadline() {
        let arrivals = vec![0, 10, 20, 500, 520, 2000];
        let jobs = coalesce(&arrivals, Some(Coalescing::new(3, 100)));
        let groups: Vec<Vec<usize>> = jobs.iter().map(|j| j.members.clone()).collect();
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
        // Full group releases at its filling arrival; deadline groups at
        // first-arrival + max_wait.
        assert_eq!(jobs[0].dispatch, 20);
        assert_eq!(jobs[1].dispatch, 600);
        assert_eq!(jobs[2].dispatch, 2100);
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
    fn queue_depth_bound_rejects_overload_and_none_is_unbounded() {
        // Unbounded behavior is byte-identical to the historical
        // scheduler; a tight bound under extreme load must reject.
        let cfg = quick_cfg(50_000_000.0, 16, DispatchPolicy::FifoSingleQueue);
        let mut a = HostBaseline::new(1, 2).unwrap();
        let unbounded = serve(&mut a, &cfg).unwrap();
        assert!(unbounded.rejected.is_empty());
        assert_eq!(unbounded.report.queries_rejected, 0);

        let mut bounded_cfg = cfg;
        bounded_cfg.max_queue_depth = Some(2);
        let mut b = HostBaseline::new(1, 2).unwrap();
        let bounded = serve(&mut b, &bounded_cfg).unwrap();
        assert!(
            !bounded.rejected.is_empty(),
            "a depth-2 queue under 50M qps must reject"
        );
        assert_eq!(
            bounded.report.queries_rejected,
            bounded.rejected.len() as u64
        );
        // Rejected queries complete at dispatch: zero latency entries.
        for &q in &bounded.rejected {
            assert_eq!(bounded.latencies[q], 0);
        }
        // The summary ignores rejected queries, so the bounded tail can
        // only improve on the unbounded one.
        assert!(bounded.summary().p99 <= unbounded.summary().p99);
        // Every admitted query still ran to completion.
        assert_eq!(
            bounded.latencies.len() - bounded.rejected.len(),
            bounded
                .latencies
                .iter()
                .enumerate()
                .filter(|(i, _)| !bounded.rejected.contains(i))
                .count()
        );
    }

    #[test]
    fn queue_depth_bound_applies_to_sharded_mode() {
        use recnmp_backend::PlacementPolicy;
        let mut cfg = quick_cfg(50_000_000.0, 16, DispatchPolicy::FifoSingleQueue);
        cfg.mode = ServingMode::Sharded(ShardedDispatch::new(PlacementPolicy::Hash));
        cfg.max_queue_depth = Some(2);
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = serve(&mut host, &cfg).unwrap();
        assert!(!report.rejected.is_empty());
        assert_eq!(report.report.queries_rejected, report.rejected.len() as u64);
        // Rejected work never reached a channel: dispatched lookups
        // cover exactly the admitted queries.
        let all: u64 = 16 * cfg.shape.lookups_per_query();
        let rejected: u64 = report.rejected.len() as u64 * cfg.shape.lookups_per_query();
        assert_eq!(report.report.insts, all - rejected);
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
