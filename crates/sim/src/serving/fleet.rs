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
//! * a [`FleetPlacementPlan`](recnmp_backend::FleetPlacementPlan)
//!   places tables twice — tables → nodes (with cross-node replication
//!   of the hottest tables), then tables → channels within each node;
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
//! A fleet is one more [`ServingMode`]: [`run`] serves it under
//! [`ServingMode::Fleet`] on the same scatter/gather core as single-node
//! sharded and tiered serving, under any fault plan. Each query runs one
//! pool task per involved node, each node fans its shards out as nested
//! tasks ([`SlsBackend::try_run_shards`]), and results merge in (node,
//! channel) order, so fleet runs are byte-identical at any worker count.
//! A bare backend is a one-node fleet ([`Fleet::from`]), so the sweep
//! driver ([`anchored_sweep`](super::sweep::anchored_sweep)) measures
//! fleet throughput–latency curves exactly as it does a backend's.
//!
//! # Examples
//!
//! ```no_run
//! use recnmp_sim::fleet::{Fleet, FleetDispatch};
//! use recnmp_sim::serving::{
//!     run, ArrivalProcess, QueryShape, ResilienceConfig, ServingConfig, ServingMode,
//! };
//!
//! let mut fleet = Fleet::reference(2);
//! let cfg = ServingConfig {
//!     process: ArrivalProcess::Poisson,
//!     qps: 50_000.0,
//!     queries: 64,
//!     shape: QueryShape::new(8, 2, 8).with_table_sampling(4),
//!     mode: ServingMode::Fleet(FleetDispatch::replicated(2)),
//!     seed: 7,
//! };
//! let served = run(&mut fleet.nodes_mut(), &cfg, &ResilienceConfig::zero()).unwrap();
//! assert_eq!(served.latencies.len(), 64);
//! ```

use recnmp_backend::{PlacementPolicy, SlsBackend};
use recnmp_types::units::qps_to_interarrival_cycles;
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};
use serde::{Deserialize, Serialize};

use super::arrivals::{ArrivalProcess, QueryShape};
use super::faults::{FaultPlan, HedgePolicy, ResilienceConfig, RetryPolicy, SloPolicy};
use super::policy::{GatherCost, ServingMode};
use super::scheduler::{run, ServingConfig, ServingRun};
use super::sweep::{reference_cluster4, run_each};

/// N node backends behind one router: the serving fleet. A bare backend
/// is a one-node fleet ([`Fleet::from`]).
///
/// Every node must expose the same
/// [`server_count`](SlsBackend::server_count) — the fleet's placement
/// plan assumes a uniform channels-per-node geometry.
pub struct Fleet {
    nodes: Vec<Box<dyn SlsBackend>>,
}

/// The server count every one of `nodes` exposes.
///
/// # Errors
///
/// Returns a [`ConfigError`] when `nodes` is empty or the nodes disagree
/// on server count.
pub(super) fn node_servers<'a>(
    mut nodes: impl Iterator<Item = &'a dyn SlsBackend>,
) -> Result<usize, ConfigError> {
    let Some(first) = nodes.next() else {
        return Err(ConfigError::new("fleet", "need at least one node"));
    };
    let servers = first.server_count();
    match nodes.find(|n| n.server_count() != servers) {
        Some(odd) => Err(ConfigError::new(
            "fleet",
            format!(
                "nodes disagree on geometry: {} exposes {servers} server(s), {} exposes {}",
                first.name(),
                odd.name(),
                odd.server_count()
            ),
        )),
        None => Ok(servers),
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
        node_servers(nodes.iter().map(|n| n.as_ref()))?;
        Ok(Self { nodes })
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

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Channels (dispatchable servers) per node.
    pub fn channels_per_node(&self) -> usize {
        self.nodes[0].server_count()
    }

    /// The nodes, in order, as [`run`] takes them.
    pub fn nodes_mut(&mut self) -> Vec<&mut dyn SlsBackend> {
        (self.nodes.iter_mut())
            .map(|n| n.as_mut() as &mut dyn SlsBackend)
            .collect()
    }
}

impl From<Box<dyn SlsBackend>> for Fleet {
    fn from(node: Box<dyn SlsBackend>) -> Self {
        Self { nodes: vec![node] }
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

/// How a fleet turns queries into node work ([`ServingMode::Fleet`]): the
/// router, the two placement levels, and the gather costs at both levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
            PlacementPolicy::FrequencyBalanced { replicate } if replicate > 0 => {
                format!("fleet-replicated({replicate})")
            }
            _ => ServingMode::Fleet(*self).name().to_string(),
        }
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
    /// The full serving run (outcome counters, latencies).
    pub report: ServingRun,
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
    let cfg = |dispatch| ServingConfig {
        process: spec.process,
        qps: spec.qps,
        queries: spec.queries,
        shape: spec.shape,
        mode: ServingMode::Fleet(dispatch),
        seed: spec.seed,
    };
    // Both anchors are pure arithmetic from the spec plus one fault-free
    // run, so the sweep is deterministic end to end. That run rejects a
    // bad offered rate before the crash cycle divides by it.
    let mut baseline_fleet = make_fleet();
    let crashed_node = baseline_fleet.nodes() - 1;
    let zero = ResilienceConfig::zero();
    let baseline = run(&mut baseline_fleet.nodes_mut(), &cfg(replicated), &zero)?;
    let baseline_p99 = baseline.summary().p99;
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
        run(&mut fleet.nodes_mut(), cfg, res)
    })?;

    let goodput = |report: &ServingRun, from: Cycle, until: Cycle| {
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
    use crate::serving::faults::QueryOutcome;
    use crate::serving::QueryStream;
    use recnmp_backend::SlsTrace;

    fn quick_shape() -> QueryShape {
        QueryShape::new(8, 2, 6)
            .with_table_skew(1.0)
            .with_table_sampling(3)
    }

    fn quick_cfg(nodes_hint: f64, queries: usize, dispatch: FleetDispatch) -> ServingConfig {
        ServingConfig {
            process: ArrivalProcess::Poisson,
            qps: 40_000.0 * nodes_hint,
            queries,
            shape: quick_shape(),
            mode: ServingMode::Fleet(dispatch),
            seed: 23,
        }
    }

    /// `cfg` on a fresh reference fleet of `nodes` nodes under `res`.
    fn serve_on(nodes: usize, cfg: &ServingConfig, res: &ResilienceConfig) -> ServingRun {
        run(&mut Fleet::reference(nodes).nodes_mut(), cfg, res).unwrap()
    }

    /// `cfg` on a fresh fault-free reference fleet of 2 nodes.
    fn serve2(cfg: &ServingConfig) -> ServingRun {
        serve_on(2, cfg, &ResilienceConfig::zero())
    }

    /// The lookups of `cfg`'s query stream.
    fn offered_lookups(cfg: &ServingConfig) -> u64 {
        QueryStream::new(cfg.shape, cfg.seed)
            .take_queries(cfg.queries)
            .iter()
            .map(SlsTrace::total_lookups)
            .sum()
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
        let served = serve2(&quick_cfg(2.0, 2, FleetDispatch::sharded()));
        assert_eq!(served.system, "fleet[2 x recnmp-cluster[4]]");
    }

    #[test]
    fn fleet_serving_conserves_lookups_across_nodes() {
        let cfg = quick_cfg(2.0, 10, FleetDispatch::replicated(1));
        let report = serve2(&cfg);
        assert_eq!(report.report.insts, offered_lookups(&cfg));
        assert_eq!(report.latencies.len(), 10);
        // Replication spread at least one table fleet-wide and both
        // nodes served traffic.
        assert!(report.replicated_tables >= 1);
        assert!(report.node_queries.iter().all(|&q| q > 0));
    }

    #[test]
    fn every_router_serves_and_conserves() {
        for router in RouterPolicy::ALL {
            let dispatch = FleetDispatch {
                router,
                ..FleetDispatch::replicated(1)
            };
            let cfg = quick_cfg(2.0, 8, dispatch);
            let report = serve2(&cfg);
            assert_eq!(
                report.report.insts,
                offered_lookups(&cfg),
                "router {}",
                router.name()
            );
            assert_eq!(report.mode, ServingMode::Fleet(dispatch));
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let cfg = quick_cfg(2.0, 8, FleetDispatch::replicated(1));
        assert_eq!(serve2(&cfg), serve2(&cfg));
    }

    #[test]
    fn multi_node_queries_pay_the_network_gather() {
        // Same workload, same per-node arithmetic: a 2-node fleet with
        // zero network cost must strictly undercut one with the rack
        // default on every completion that left the router's rack slot.
        let charged = FleetDispatch::sharded();
        let free = FleetDispatch {
            network: NetworkCost::new(0, 0),
            ..charged
        };
        let r_free = serve2(&quick_cfg(2.0, 8, free));
        let r_charged = serve2(&quick_cfg(2.0, 8, charged));
        for (f, c) in r_free.latencies.iter().zip(&r_charged.latencies) {
            assert!(f + charged.network.base <= *c + 1);
            assert!(f < c);
        }
    }

    fn assert_conserved(report: &ServingRun) {
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
        let sharded = serve_on(2, &cfg, &ResilienceConfig::new(faults.clone()));
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
        let replicated = serve_on(2, &cfg, &ResilienceConfig::new(faults));
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
        let res = ResilienceConfig::new(faults).with_retry(RetryPolicy {
            max_attempts: 3,
            timeout: 50_000,
            backoff: 1_000,
        });
        let report = serve_on(2, &cfg, &res);
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
        let res = ResilienceConfig::new(FaultPlan::none()).with_slo(SloPolicy::new(2_000));
        let report = serve_on(2, &cfg, &res);
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
        let r1 = serve_on(2, &cfg, &res);
        let r2 = serve_on(2, &cfg, &res);
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
        let dispatches = [
            ServingMode::Fleet(FleetDispatch::replicated(1)),
            ServingMode::Fleet(FleetDispatch::sharded()),
        ];
        let curves = anchored_sweep(&mut make, dispatches[0], &dispatches, &spec).unwrap();
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].arm.to_string(), "fleet-replicated(1)");
        assert_eq!(curves[1].arm.to_string(), "fleet-sharded");
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
