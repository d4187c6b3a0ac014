//! The scatter/gather core behind every serving mode: single-node
//! queued, sharded and tiered serving (a one-node fleet) and fleet
//! serving.
//!
//! Each query dispatches at its arrival. It routes its batches to nodes
//! under the [`RouterPolicy`], then to a replica channel of each batch's
//! table under the scatter rule; both levels share one rule set (`pick`).
//! Queued serving scatters by its dispatch policy over a plan with every
//! table on every channel, every other mode to the least-backlogged
//! channel. Every touched node simulates its shards as one pool task,
//! each shard queues on its channel, and the query completes at its
//! slowest node (slowest shard plus the per-node [`GatherCost`]) plus the
//! [`NetworkCost`] of a multi-node fleet plus the host-cache charge.
//! Optional per-query stages do nothing when their `Option` is `None`:
//! tier promotion epochs, idle-gap prefetch, the host cache, and the
//! [`ResilienceConfig`] layer (failover, SLO guard, retry, hedging —
//! inert under [`ResilienceConfig::zero`]).

use std::collections::{BTreeSet, VecDeque};

use recnmp_backend::{
    FleetPlacementPlan, PlacementPlan, RunReport, SlsBackend, SlsTrace, TableUsage,
    TieredPlacementPlan,
};
use recnmp_types::{ConfigError, Cycle, SimError, TableId};

use super::faults::{HealthTracker, NodeHealth, QueryOutcome, ResilienceConfig};
use super::fleet::{NetworkCost, RouterPolicy};
use super::host_cache::{HostCache, HotVectorTracker};
use super::policy::{EpochPromotion, GatherCost};
use super::scheduler::{percentile, ServingConfig, ServingRun};

/// Where the core finds each table: a two-level fleet plan, or one
/// node's channel plan (sharded, or a tiered plan's flat view).
pub(super) enum Plan {
    Fleet(FleetPlacementPlan),
    Node(PlacementPlan),
    Tiered(TieredPlacementPlan),
}

impl Plan {
    /// The nodes holding `table`; empty when no node places it.
    fn node_replicas(&self, table: TableId) -> &[usize] {
        match self {
            Plan::Fleet(p) => p.node_replicas(table),
            _ if self.node(0).replicas(table).is_empty() => &[],
            _ => &[0],
        }
    }

    /// Node `n`'s channel plan.
    fn node(&self, n: usize) -> &PlacementPlan {
        match self {
            Plan::Fleet(p) => p.per_node(n),
            Plan::Node(p) => p,
            Plan::Tiered(p) => p.flat(),
        }
    }
}

/// Cycles a query pays when its router-preferred node turns out to be
/// freshly crashed: the failure-detection plus re-dispatch cost. Later
/// queries know the node is down (health tracking) and route around it
/// for free.
const REDISPATCH_PENALTY: Cycle = 2_400;

fn missing_table(table: TableId) -> SimError {
    SimError::Config(ConfigError::new(
        "placement",
        format!("table {table} is missing from the placement plan"),
    ))
}

/// The least-backlogged of `channels` (earliest free, ties to the lowest
/// index) — the channel behind the router's ready cycle, the SLO
/// estimate, retries and hedge targets.
fn least_backlogged(channels: &[usize], free_at: &[Cycle]) -> Option<usize> {
    channels.iter().copied().min_by_key(|&c| (free_at[c], c))
}

/// The pick rule set of the router (over node replicas) and the scatter
/// (over replica channels), ties to the lowest index: rotate by query
/// index, fewest lookups still in flight at `now` (`in_flight` holds each
/// candidate's (completion, lookups)), or earliest `ready`. `None` for an
/// empty `pool`.
fn pick(
    rule: RouterPolicy,
    pool: &[usize],
    query: usize,
    in_flight: &mut [Vec<(Cycle, u64)>],
    now: Cycle,
    ready: impl Fn(usize) -> Cycle,
) -> Option<usize> {
    let by_key =
        |key: &mut dyn FnMut(usize) -> u64| pool.iter().copied().min_by_key(|&i| (key(i), i));
    match rule {
        RouterPolicy::HashAffinity => (!pool.is_empty()).then(|| pool[query % pool.len()]),
        // Dispatch times are non-decreasing, so drained work can never
        // count again.
        RouterPolicy::LeastOutstanding => by_key(&mut |i| {
            in_flight[i].retain(|(done, _)| *done > now);
            in_flight[i].iter().map(|(_, l)| l).sum()
        }),
        RouterPolicy::PlacementScatter => by_key(&mut |i| ready(i)),
    }
}

/// Epoch-based tier promotion: accumulates the per-table lookups of
/// offered queries into `observed` (the stream's table profile, sorted by
/// table, counts zeroed at each epoch) and at every epoch boundary calls
/// [`TieredPlacementPlan::epoch_rebalance`]; the units on either end of
/// a migration stall by the modeled migration cost.
pub(super) struct Promotion {
    pub epochs: EpochPromotion,
    pub observed: Vec<TableUsage>,
}

impl Promotion {
    /// Rebalances a tiered `plan` at the epoch boundary before query
    /// `q`.
    fn at_query(
        &mut self,
        q: usize,
        dispatch: Cycle,
        plan: &mut Plan,
        free_at: &mut [Cycle],
    ) -> Result<(), SimError> {
        let epoch = self.epochs.epoch_queries;
        let Plan::Tiered(current) = plan else {
            return Ok(());
        };
        if q == 0 || epoch == 0 || !q.is_multiple_of(epoch) {
            return Ok(());
        }
        let (next, mig) = current
            .epoch_rebalance(&self.observed, self.epochs.policy)
            .map_err(SimError::Config)?;
        // Both ends of each migration are busy copying: a moved table's
        // old replicas stream it out, its new replicas stream it in.
        // Unaffected units keep serving.
        if mig.stall_cycles > 0 {
            let stalled: BTreeSet<usize> = mig
                .promoted
                .iter()
                .chain(&mig.demoted)
                .flat_map(|&t| [current.flat().replicas(t), next.flat().replicas(t)])
                .flatten()
                .copied()
                .collect();
            for u in stalled {
                free_at[u] = free_at[u].max(dispatch) + mig.stall_cycles;
            }
        }
        *current = next;
        for u in &mut self.observed {
            u.accesses = 0;
        }
        Ok(())
    }

    /// Accumulates a query's offered per-table lookups.
    fn observe(&mut self, query: &SlsTrace) {
        for tb in query.batches() {
            if let Ok(i) = self.observed.binary_search_by_key(&tb.table(), |u| u.table) {
                self.observed[i].accesses += tb.lookups();
            }
        }
    }
}

/// The optional per-query stages of the core.
#[derive(Default)]
pub(super) struct Stages {
    /// The host cache after the dry run filtered every query, and each
    /// query's absorbed lookups.
    pub host_cache: Option<(HostCache, Vec<u64>)>,
    pub prefetch: Option<HotVectorTracker>,
    pub promotion: Option<Promotion>,
}

/// The run-time half of [`ServingRun`]: the core settles each query into
/// it as the query completes or fails, and `report` merges every shard
/// run's counters.
impl ServingRun {
    /// The record of a run of `system` on `nodes` nodes under `cfg`, one
    /// query per arrival, before any query has settled.
    pub(super) fn new(
        system: String,
        cfg: &ServingConfig,
        arrivals: Vec<Cycle>,
        nodes: usize,
    ) -> Self {
        let queries = arrivals.len();
        Self {
            report: RunReport::for_system(system.clone()),
            system,
            mode: cfg.mode,
            offered_qps: cfg.qps,
            arrivals,
            completions: vec![0; queries],
            latencies: Vec::new(),
            node_queries: vec![0; nodes],
            replicated_tables: 0,
            outcomes: vec![QueryOutcome::Completed; queries],
            failures: Vec::new(),
        }
    }

    /// Settles query `q` at cycle `at` with `outcome`, bumping the
    /// outcome's counter. Queries that are not served settle at their
    /// arrival.
    fn settle(&mut self, q: usize, outcome: QueryOutcome, at: Cycle) {
        self.completions[q] = at;
        self.outcomes[q] = outcome;
        match outcome {
            QueryOutcome::Completed => {}
            QueryOutcome::Rejected => self.report.queries_rejected += 1,
            QueryOutcome::Shed => self.report.queries_shed += 1,
            QueryOutcome::Failed => self.report.queries_failed += 1,
        }
    }

    /// Fails query `q`, arrived at `at`, recording `error`.
    fn fail(&mut self, q: usize, at: Cycle, error: SimError) {
        self.settle(q, QueryOutcome::Failed, at);
        self.failures.push(error);
    }

    /// Closes the run: each query's latency is its completion − arrival,
    /// and the merged counters cover serial queries, so their wall-clock
    /// is the makespan (not the per-query max `absorb_parallel` keeps).
    fn finish(&mut self) {
        self.report.total_cycles = self.completions.iter().copied().max().unwrap_or(0);
        self.report.query_completions = self.completions.clone();
        self.latencies = (self.completions.iter())
            .zip(&self.arrivals)
            .map(|(&done, &arr)| done - arr)
            .collect();
    }
}

/// One node's scattered work: per-channel shards sorted by channel.
type Shards = Vec<(usize, SlsTrace)>;

/// The scatter/gather core: a plan, the node and channel pick rules, the
/// gather model, and the optional stages.
pub(super) struct Core {
    pub plan: Plan,
    pub router: RouterPolicy,
    pub scatter: RouterPolicy,
    pub gather: GatherCost,
    pub network: NetworkCost,
    pub stages: Stages,
}

impl Core {
    /// Serves `queries` on `nodes` (all exposing the same server count)
    /// under the resilience semantics of [`run`](super::scheduler::run),
    /// one per arrival of `served` (query `q` at `served.arrivals[q]`),
    /// and settles each into `served`. Each query is pulled from
    /// `queries` when it dispatches and dropped once it settles, so a
    /// lazy stream is never held whole.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if a node's cycle-level run stalls,
    /// or [`SimError::Config`] when a table is missing from the plan;
    /// per-query failures land in [`ServingRun::failures`].
    pub fn run(
        mut self,
        nodes: &mut [&mut dyn SlsBackend],
        res: &ResilienceConfig,
        mut served: ServingRun,
        queries: impl Iterator<Item = SlsTrace>,
    ) -> Result<ServingRun, SimError> {
        let node_count = nodes.len();
        let channels = nodes.first().map_or(0, |n| n.server_count());
        // Earliest cycle each (node, channel) is free.
        let mut free_at: Vec<Vec<Cycle>> = vec![vec![0; channels]; node_count];
        // For LeastOutstanding: (completion, lookups) of work in flight
        // per node and per (node, channel).
        let mut in_flight: Vec<Vec<(Cycle, u64)>> = vec![Vec::new(); node_count];
        let mut channel_in_flight = vec![vec![Vec::new(); channels]; node_count];
        if let Plan::Fleet(p) = &self.plan {
            served.replicated_tables = p.replicated_tables();
        }
        let mut health = HealthTracker::new(node_count);
        // Recently observed node-job latencies the hedge delay anchors
        // at, kept only when hedging is on.
        let mut hedge_window: VecDeque<Cycle> = VecDeque::new();
        // Per-query scratch, reused: each batch's node and channel, and
        // the sorted hedge window.
        let (mut node_of, mut channel_of, mut sorted) = (Vec::new(), Vec::new(), Vec::new());

        let offered = served.arrivals.len();
        'queries: for (q, trace) in queries.take(offered).enumerate() {
            let dispatch_at = served.arrivals[q];
            if let Some(p) = self.stages.promotion.as_mut() {
                p.at_query(q, dispatch_at, &mut self.plan, &mut free_at[0])?;
                p.observe(&trace);
            }
            if let Some(tracker) = &self.stages.prefetch {
                for (n, node) in nodes.iter_mut().enumerate() {
                    served.report.prefetch_fills +=
                        tracker.prefetch(&mut **node, self.plan.node(n), dispatch_at, &free_at[n]);
                }
            }
            // The dry run already filtered the query; charge its hits.
            let host_cycles = (self.stages.host_cache.as_ref())
                .map_or(0, |(hc, hits)| hits[q].saturating_mul(hc.hit_cycles()));
            if let Some(tr) = self.stages.prefetch.as_mut() {
                tr.observe(&trace);
            }
            let lookups = trace.total_lookups();
            // Cycles this query pays for discovering a fresh crash (at
            // most one detection per query).
            let mut penalty: Cycle = 0;

            // Level 1: route each batch to a *live* node replica, the
            // router arithmetic first and the failover path only when the
            // preferred replica is crashed or degraded.
            node_of.clear();
            for batch in trace.batches() {
                let table = batch.table();
                let reps = self.plan.node_replicas(table);
                // A node is ready when its earliest-free channel owning
                // `table` frees.
                let plan = &self.plan;
                let mut route = |pool: &[usize]| {
                    pick(self.router, pool, q, &mut in_flight, dispatch_at, |n| {
                        least_backlogged(plan.node(n).replicas(table), &free_at[n])
                            .map_or(Cycle::MAX, |c| free_at[n][c])
                    })
                };
                let preferred = route(reps).ok_or_else(|| missing_table(table))?;
                let preferred_down = res.faults.crashed(preferred, dispatch_at);
                let node = if !preferred_down && health.health(preferred) != NodeHealth::Degraded {
                    preferred
                } else {
                    if preferred_down && !health.known_crashed(preferred) {
                        health.mark_crashed(preferred);
                        penalty = REDISPATCH_PENALTY;
                    }
                    let alive: Vec<usize> = reps
                        .iter()
                        .copied()
                        .filter(|&n| !res.faults.crashed(n, dispatch_at))
                        .collect();
                    if alive.is_empty() {
                        served.fail(q, dispatch_at, SimError::QueryFailed { query: q, table });
                        continue 'queries;
                    }
                    let pool = prefer_healthy(alive, &health);
                    if !preferred_down && pool.contains(&preferred) {
                        preferred
                    } else {
                        served.report.failovers += 1;
                        route(&pool).expect("the failover pool is non-empty")
                    }
                };
                node_of.push(node);
            }
            let dispatch_eff = dispatch_at.saturating_add(penalty);

            // SLO admission: the optimistic estimate — every batch served
            // by the earliest-free channel of any live replica. If even
            // that already blows the deadline, reject without running
            // anything.
            if let Some(slo) = res.slo {
                let mut est_start = dispatch_eff;
                for batch in trace.batches() {
                    let table = batch.table();
                    let best = (self.plan.node_replicas(table).iter())
                        .filter(|&&n| !res.faults.crashed(n, dispatch_at))
                        .filter_map(|&n| {
                            let c =
                                least_backlogged(self.plan.node(n).replicas(table), &free_at[n]);
                            c.map(|c| free_at[n][c])
                        })
                        .min()
                        .unwrap_or(0);
                    est_start = est_start.max(best.max(dispatch_eff));
                }
                if est_start.saturating_sub(dispatch_at) > slo.deadline {
                    served.settle(q, QueryOutcome::Rejected, dispatch_at);
                    continue 'queries;
                }
            }

            // Level 2: within each touched node, assign batches to an
            // owning channel under the scatter rule (no clock moves yet),
            // then copy each channel's batches out as its shard.
            channel_of.clear();
            channel_of.resize(trace.len(), 0);
            let mut node_jobs: Vec<(usize, Shards, u64)> = Vec::new();
            for n in 0..node_count {
                let plan = self.plan.node(n);
                let mut result_bytes = 0u64;
                let routed = trace
                    .batches()
                    .enumerate()
                    .filter(|&(i, _)| node_of[i] == n);
                for (i, batch) in routed {
                    let table = batch.table();
                    let (reps, free) = (plan.replicas(table), &free_at[n]);
                    let load = &mut channel_in_flight[n];
                    let channel = pick(self.scatter, reps, q, load, dispatch_at, |c| free[c])
                        .ok_or_else(|| missing_table(table))?;
                    result_bytes += batch.output_bytes();
                    channel_of[i] = channel;
                }
                let shards: Shards = (0..channels)
                    .map(|c| (c, trace.select(|i| node_of[i] == n && channel_of[i] == c)))
                    .filter(|(_, s)| !s.is_empty())
                    .collect();
                if !shards.is_empty() {
                    node_jobs.push((n, shards, result_bytes));
                }
            }

            // SLO shedding: the *actual* routed service start. A query
            // whose slowest shard would begin past the deadline is dropped
            // at dispatch — it cannot complete in time and would only add
            // load.
            if let Some(slo) = res.slo {
                let actual_start = node_jobs
                    .iter()
                    .flat_map(|(n, shards, _)| {
                        shards
                            .iter()
                            .map(|(c, _)| dispatch_eff.max(free_at[*n][*c]))
                    })
                    .max()
                    .unwrap_or(dispatch_eff);
                if actual_start.saturating_sub(dispatch_at) > slo.deadline {
                    served.settle(q, QueryOutcome::Shed, dispatch_at);
                    continue 'queries;
                }
            }

            for (n, _, _) in &node_jobs {
                served.node_queries[*n] += 1;
            }
            let reports = run_nodes(nodes, &node_jobs)?;

            // Queueing arithmetic, serially in (node, channel) order: each
            // shard queues on its channel (retrying on faults), each node
            // completes at its slowest shard plus the per-node gather, and
            // the query completes at its slowest node plus the network
            // gather.
            let mut slowest_node = dispatch_eff;
            let mut total_result_bytes = 0u64;
            let mut scattered = 0u64;
            let mut exhausted: Option<u32> = None;
            for ((n, shards, result_bytes), node_reports) in node_jobs.iter().zip(reports) {
                let n = *n;
                let mut node_slowest = dispatch_eff;
                let mut node_service: Cycle = 0;
                let mut node_lookups = 0u64;
                for ((channel, shard), report) in shards.iter().zip(node_reports) {
                    let shard_lookups = shard.total_lookups();
                    node_lookups += shard_lookups;
                    let base = report.total_cycles;
                    served.report.absorb_parallel(report);
                    match run_shard_attempts(
                        (n, *channel),
                        shard,
                        base,
                        dispatch_eff,
                        &mut free_at[n],
                        self.plan.node(n),
                        res,
                        &mut served.report.retries,
                    ) {
                        Ok((complete, service)) => {
                            if self.scatter == RouterPolicy::LeastOutstanding {
                                channel_in_flight[n][*channel].push((complete, shard_lookups));
                            }
                            node_slowest = node_slowest.max(complete);
                            node_service = node_service.max(service);
                        }
                        Err(attempts) => exhausted = Some(attempts),
                    }
                }
                scattered += node_lookups;

                // Hedge a straggler node job onto a surviving replica
                // holding all its tables; first completion wins, both pay
                // their channel occupancy. The delay needs at least one
                // observed latency.
                if let (Some(hedge), None) = (res.hedge, exhausted) {
                    if !hedge_window.is_empty() && hedge_window.len() >= hedge.min_samples {
                        sorted.clear();
                        sorted.extend(hedge_window.iter().copied());
                        sorted.sort_unstable();
                        let delay = percentile(&sorted, hedge.quantile);
                        if node_slowest.saturating_sub(dispatch_eff) > delay && node_service > 0 {
                            let target = hedge_target(
                                n,
                                shards,
                                &self.plan,
                                res,
                                dispatch_at,
                                &free_at,
                                &health,
                            );
                            if let Some((alt, alt_channels)) = target {
                                let hstart = alt_channels
                                    .iter()
                                    .map(|&c| free_at[alt][c])
                                    .fold(dispatch_eff.saturating_add(delay), Cycle::max);
                                let hcomplete = hstart.saturating_add(node_service);
                                // A hedge that could never complete is not sent.
                                if hcomplete < Cycle::MAX {
                                    served.report.hedges += 1;
                                    for &c in &alt_channels {
                                        free_at[alt][c] = hcomplete;
                                    }
                                    node_slowest = node_slowest.min(hcomplete).max(dispatch_eff);
                                }
                            }
                        }
                    }
                }

                if node_service > 0 {
                    health.observe(n, node_service, node_lookups);
                    if let Some(hedge) = res.hedge {
                        hedge_window.push_back(node_slowest.saturating_sub(dispatch_eff));
                        if hedge_window.len() > hedge.window {
                            hedge_window.pop_front();
                        }
                    }
                }

                let merge = (self.gather.per_shard.saturating_mul(shards.len() as Cycle))
                    .saturating_add(self.gather.base);
                let node_complete = node_slowest.saturating_add(merge);
                if self.router == RouterPolicy::LeastOutstanding {
                    in_flight[n].push((node_complete, node_lookups));
                }
                slowest_node = slowest_node.max(node_complete);
                total_result_bytes += result_bytes;
            }
            debug_assert_eq!(scattered, lookups, "scatter must conserve lookups");
            if node_jobs.is_empty() {
                // A query the host cache absorbed whole touches no channel
                // but still pays the host merge.
                slowest_node = dispatch_eff.saturating_add(self.gather.base);
            }

            // The network gather is waived when the router is co-located
            // with a single node.
            let network = if node_count > 1 {
                self.network.cost_of(total_result_bytes)
            } else {
                0
            };
            let complete = slowest_node
                .saturating_add(network)
                .saturating_add(host_cycles);
            // A query that would complete only at the end of the clock
            // never completes: it fails like a shard out of attempts.
            if let Some(attempts) = exhausted.or((complete == Cycle::MAX).then_some(1)) {
                let error = SimError::DeadlineExceeded {
                    query: q,
                    deadline: res.retry.timeout,
                    attempts,
                };
                served.fail(q, dispatch_at, error);
                continue 'queries;
            }
            served.settle(q, QueryOutcome::Completed, complete);
        }

        if let Some((hc, _)) = &self.stages.host_cache {
            let (hits, misses, absorbed_bytes) = hc.stats();
            served.report.host_hits += hits;
            served.report.host_misses += misses;
            served.report.host_absorbed_bytes += absorbed_bytes;
        }
        served.finish();
        Ok(served)
    }
}

/// Simulates every touched node as one pool task; each node fans its
/// shards out as nested tasks ([`SlsBackend::try_run_shards`]), and the
/// reports come back in node order regardless of completion order.
fn run_nodes(
    nodes: &mut [&mut dyn SlsBackend],
    node_jobs: &[(usize, Shards, u64)],
) -> Result<Vec<Vec<RunReport>>, SimError> {
    let mut pending = node_jobs.iter().peekable();
    let mut tasks = Vec::with_capacity(node_jobs.len());
    for (n, node) in nodes.iter_mut().enumerate() {
        if let Some((_, shards, _)) = pending.next_if(|(jn, _, _)| *jn == n) {
            let node: &mut dyn SlsBackend = &mut **node;
            tasks.push(move || node.try_run_shards(shards));
        }
    }
    recnmp_exec::current().run_vec(tasks)
}

/// Runs one shard's attempt loop on `(node, channel)`: queue, apply the
/// fault plan's degradation multiplier, abort on an injected timeout
/// window, a blown per-attempt budget or a completion that saturates at
/// the end of the clock (it would never happen), then back off
/// exponentially and re-dispatch (counted in `retries`). Returns the
/// winning attempt's `(completion, service)`, or `Err(attempts)` after
/// retry exhaustion.
#[allow(clippy::too_many_arguments)]
fn run_shard_attempts(
    (node, first_channel): (usize, usize),
    shard: &SlsTrace,
    base_service: Cycle,
    dispatch: Cycle,
    free_at: &mut [Cycle],
    plan: &PlacementPlan,
    res: &ResilienceConfig,
    retries: &mut u64,
) -> Result<(Cycle, Cycle), u32> {
    let retry = res.retry;
    let budget = retry.timeout;
    let attempts = retry.max_attempts;
    let mut t = dispatch;
    let mut channel = first_channel;
    for attempt in 0..attempts {
        let start = t.max(free_at[channel]);
        let mult = res.faults.degrade_multiplier(node, channel, start);
        let service = base_service.saturating_mul(mult);
        let complete = start.saturating_add(service);
        let fault_timeout = res.faults.times_out(node, channel, start);
        let over_budget = budget > 0 && complete.saturating_sub(t) > budget;
        if !fault_timeout && !over_budget && complete < Cycle::MAX {
            free_at[channel] = complete;
            return Ok((complete, service));
        }
        // The attempt aborts when the client's budget expires or the
        // faulty run surfaces its error, whichever is sooner; the channel
        // stays busy for whatever service it wasted (nothing, if the
        // attempt was still queued).
        let fail_at = if budget > 0 {
            complete.min(t.saturating_add(budget))
        } else {
            complete
        };
        if fail_at > start {
            free_at[channel] = fail_at;
        }
        if attempt + 1 == attempts {
            break;
        }
        // A retry due past the end of the clock never runs.
        let Some(retry_at) = fail_at.checked_add(retry.backoff_before(attempt)) else {
            return Err(attempt + 1);
        };
        *retries += 1;
        t = retry_at;
        // Re-dispatch onto the least-backlogged channel owning every
        // table of this shard (often the same channel — transient windows
        // pass; degraded channels lose to healthier replicas).
        if let Some(next) = retry_channel(shard, plan, free_at) {
            channel = next;
        }
    }
    Err(attempts)
}

/// The least-backlogged channel of `plan` owning every table of
/// `shard`; `None` when no single channel holds them all.
fn retry_channel(shard: &SlsTrace, plan: &PlacementPlan, free_at: &[Cycle]) -> Option<usize> {
    let owners = common(shard.batches().map(|b| plan.replicas(b.table())))?;
    least_backlogged(&owners, free_at)
}

/// The entries common to every list in `lists`; `None` for no lists.
fn common<'a>(mut lists: impl Iterator<Item = &'a [usize]>) -> Option<Vec<usize>> {
    let first = lists.next()?.to_vec();
    Some(lists.fold(first, |acc, l| {
        acc.into_iter().filter(|x| l.contains(x)).collect()
    }))
}

/// The healthy members of `nodes`, or all of them when none is healthy.
fn prefer_healthy(nodes: Vec<usize>, health: &HealthTracker) -> Vec<usize> {
    let healthy: Vec<usize> = nodes
        .iter()
        .copied()
        .filter(|&n| health.health(n) == NodeHealth::Healthy)
        .collect();
    if healthy.is_empty() {
        nodes
    } else {
        healthy
    }
}

/// A hedge target for a node job of `shards` on `primary`: a live node
/// other than `primary` that replicates *every* table of the job,
/// preferring healthy nodes, then the one whose involved channels free
/// earliest. Returns the node and the channels the duplicate occupies
/// there.
fn hedge_target(
    primary: usize,
    shards: &Shards,
    plan: &Plan,
    res: &ResilienceConfig,
    dispatch_at: Cycle,
    free_at: &[Vec<Cycle>],
    health: &HealthTracker,
) -> Option<(usize, Vec<usize>)> {
    let job_tables: Vec<TableId> = (shards.iter().flat_map(|(_, s)| s.batches()))
        .map(|b| b.table())
        .collect();
    let candidates = common(job_tables.iter().map(|&t| plan.node_replicas(t)))?
        .into_iter()
        .filter(|&n| n != primary && !res.faults.crashed(n, dispatch_at))
        .collect();
    prefer_healthy(candidates, health)
        .into_iter()
        .filter_map(|n| {
            let chans = job_tables
                .iter()
                .map(|&t| least_backlogged(plan.node(n).replicas(t), &free_at[n]))
                .collect::<Option<BTreeSet<usize>>>()?;
            let ready = chans.iter().map(|&c| free_at[n][c]).max().unwrap_or(0);
            Some((ready, n, chans.into_iter().collect::<Vec<usize>>()))
        })
        .min_by_key(|(ready, n, _)| (*ready, *n))
        .map(|(_, n, chans)| (n, chans))
}
