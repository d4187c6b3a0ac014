//! Fault injection and resilience policies for fleet serving.
//!
//! A [`FaultPlan`] is a deterministic schedule of infrastructure faults
//! — node crashes, per-channel service degradation, and transient
//! per-shard timeout windows — pinned to simulated cycles before the run
//! starts. Handing the scheduler a *plan* rather than sampling faults
//! inline keeps every run byte-identical at any worker count: the plan
//! is either written explicitly (tests, experiments) or drawn once from
//! a seeded [`DetRng`] ([`FaultPlan::seeded`]), and the serving loop
//! itself stays pure arithmetic.
//!
//! The companion policies say how the fleet *reacts*:
//!
//! * [`RetryPolicy`] — per-shard attempt deadline with bounded
//!   exponential backoff; a timed-out attempt re-dispatches onto the
//!   least-backlogged replica channel still owning the shard's tables;
//! * [`HedgePolicy`] — duplicate a straggler node job onto a surviving
//!   replica after a delay anchored at a high quantile of observed
//!   node-job latencies (first completion wins);
//! * [`SloPolicy`] — admission control (reject when the estimated queue
//!   delay already exceeds the deadline) and deadline shedding (drop a
//!   query whose actual service start would land past the deadline);
//! * [`ResilienceConfig`] — the bundle the scatter/gather core's
//!   resilience stage consumes
//!   ([`serve_fleet_resilient`](super::fleet::serve_fleet_resilient)).
//!   Failover pays a fixed re-dispatch penalty, and health tracking uses
//!   a fixed EWMA factor and degradation threshold.
//!
//! An all-zero plan ([`FaultPlan::none`]) with the default policies is a
//! strict no-op: [`ResilienceConfig::zero`] is how
//! [`serve_fleet`](super::fleet::serve_fleet) and single-node sharded
//! and tiered serving run the same core.
//!
//! # Examples
//!
//! ```
//! use recnmp_sim::serving::faults::{FaultPlan, ResilienceConfig, SloPolicy};
//!
//! let plan = FaultPlan::none()
//!     .with_crash(1, 500_000)
//!     .with_degrade(0, 2, 0, u64::MAX, 4);
//! assert!(plan.crashed(1, 500_000) && !plan.crashed(1, 499_999));
//! assert_eq!(plan.degrade_multiplier(0, 2, 123), 4);
//! let res = ResilienceConfig::new(plan).with_slo(SloPolicy::new(2_000_000));
//! assert!(res.slo.is_some());
//! ```

use recnmp_types::rng::DetRng;
use recnmp_types::{ConfigError, Cycle};
use serde::{Deserialize, Serialize};

/// A node that stops serving at a scheduled cycle and never recovers
/// within the run. Queries dispatched from `at` onward must fail over to
/// a surviving replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// The crashed node.
    pub node: usize,
    /// First cycle at which the node is down.
    pub at: Cycle,
}

/// One channel serving slowly for a window of simulated time: every
/// shard whose service *starts* inside `[from, until)` takes
/// `multiplier`× its clean cycle count. `until == u64::MAX` models a
/// stuck-at-slow channel that never recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelDegrade {
    /// Node owning the slow channel.
    pub node: usize,
    /// The slow channel within the node.
    pub channel: usize,
    /// First cycle of the window.
    pub from: Cycle,
    /// First cycle past the window (`u64::MAX` = stuck-at-slow).
    pub until: Cycle,
    /// Integer service-time multiplier (≥ 1; 1 is a no-op).
    pub multiplier: u64,
}

/// A transient per-shard fault: every shard attempt *starting* inside
/// `[from, until)` on this channel times out instead of completing, and
/// must be retried under the run's [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTimeout {
    /// Node owning the faulty channel.
    pub node: usize,
    /// The faulty channel within the node.
    pub channel: usize,
    /// First cycle of the window.
    pub from: Cycle,
    /// First cycle past the window.
    pub until: Cycle,
}

/// A deterministic schedule of infrastructure faults, fixed before the
/// run starts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Permanent node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Per-channel degradation windows.
    pub degrades: Vec<ChannelDegrade>,
    /// Per-channel transient timeout windows.
    pub timeouts: Vec<ShardTimeout>,
}

impl FaultPlan {
    /// The empty plan: no faults, a strict no-op for the scheduler.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_zero(&self) -> bool {
        self.crashes.is_empty() && self.degrades.is_empty() && self.timeouts.is_empty()
    }

    /// Adds a permanent node crash at `at`.
    #[must_use]
    pub fn with_crash(mut self, node: usize, at: Cycle) -> Self {
        self.crashes.push(NodeCrash { node, at });
        self
    }

    /// Adds a degradation window on `(node, channel)`.
    #[must_use]
    pub fn with_degrade(
        mut self,
        node: usize,
        channel: usize,
        from: Cycle,
        until: Cycle,
        multiplier: u64,
    ) -> Self {
        self.degrades.push(ChannelDegrade {
            node,
            channel,
            from,
            until,
            multiplier,
        });
        self
    }

    /// Adds a transient timeout window on `(node, channel)`.
    #[must_use]
    pub fn with_timeout(mut self, node: usize, channel: usize, from: Cycle, until: Cycle) -> Self {
        self.timeouts.push(ShardTimeout {
            node,
            channel,
            from,
            until,
        });
        self
    }

    /// Is `node` down at `cycle`?
    pub fn crashed(&self, node: usize, cycle: Cycle) -> bool {
        self.crashes.iter().any(|c| c.node == node && cycle >= c.at)
    }

    /// Service-time multiplier for a shard starting at `cycle` on
    /// `(node, channel)` — the max over all overlapping windows, 1 when
    /// the channel is clean.
    pub fn degrade_multiplier(&self, node: usize, channel: usize, cycle: Cycle) -> u64 {
        self.degrades
            .iter()
            .filter(|d| {
                d.node == node && d.channel == channel && cycle >= d.from && cycle < d.until
            })
            .map(|d| d.multiplier)
            .max()
            .unwrap_or(1)
    }

    /// Does a shard attempt starting at `cycle` on `(node, channel)`
    /// time out?
    pub fn times_out(&self, node: usize, channel: usize, cycle: Cycle) -> bool {
        self.timeouts
            .iter()
            .any(|t| t.node == node && t.channel == channel && cycle >= t.from && cycle < t.until)
    }

    /// Draws a random plan from `spec` for a `nodes` × `channels` fleet,
    /// deterministically from `seed`: crash victims, degraded channels
    /// and timeout channels are sampled without replacement, and every
    /// onset cycle lands inside `spec.window`.
    pub fn seeded(seed: u64, spec: &FaultSpec, nodes: usize, channels: usize) -> Self {
        let mut rng = DetRng::seed(seed ^ 0xfa_17_fa_17);
        let mut plan = FaultPlan::none();
        let (lo, hi) = spec.window;
        let span = hi.saturating_sub(lo).max(1);
        let draw_at = |rng: &mut DetRng| lo + rng.below(span);

        let mut victims: Vec<usize> = (0..nodes).collect();
        rng.shuffle(&mut victims);
        for &node in victims.iter().take(spec.crashes.min(nodes)) {
            let at = draw_at(&mut rng);
            plan = plan.with_crash(node, at);
        }

        let mut slots: Vec<(usize, usize)> = (0..nodes)
            .flat_map(|n| (0..channels).map(move |c| (n, c)))
            .collect();
        rng.shuffle(&mut slots);
        let (slow, rest) = slots.split_at(spec.degraded_channels.min(slots.len()));
        for &(n, c) in slow {
            let from = draw_at(&mut rng);
            plan = plan.with_degrade(n, c, from, u64::MAX, spec.degrade_multiplier);
        }
        for &(n, c) in rest.iter().take(spec.timeout_channels) {
            let from = draw_at(&mut rng);
            plan = plan.with_timeout(n, c, from, from.saturating_add(spec.timeout_cycles));
        }
        plan
    }
}

/// What [`FaultPlan::seeded`] draws: how many faults of each kind and
/// where in simulated time their onsets may land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Distinct nodes to crash (capped at the fleet size).
    pub crashes: usize,
    /// `[from, until)` cycle window fault onsets are drawn from.
    pub window: (Cycle, Cycle),
    /// Channels degraded stuck-at-slow.
    pub degraded_channels: usize,
    /// Service multiplier of each degraded channel.
    pub degrade_multiplier: u64,
    /// Channels given one transient timeout window each.
    pub timeout_channels: usize,
    /// Length of each transient timeout window.
    pub timeout_cycles: Cycle,
}

/// Per-shard retry discipline: every attempt gets `timeout` cycles from
/// its dispatch; a blown attempt re-dispatches after an exponentially
/// growing backoff, up to `max_attempts` total attempts. A shard that
/// exhausts its attempts fails its query
/// ([`SimError::DeadlineExceeded`](recnmp_types::SimError)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts, the first dispatch included (≥ 1).
    pub max_attempts: u32,
    /// Per-attempt deadline in cycles; 0 disables the deadline (attempts
    /// then only fail inside injected timeout windows, which abort after
    /// the shard's own service time).
    pub timeout: Cycle,
    /// Base backoff: attempt `k` re-dispatches `backoff * 2^k` cycles
    /// after the previous attempt aborted.
    pub backoff: Cycle,
}

impl RetryPolicy {
    /// No retry at all: one attempt, no deadline. The zero-resilience
    /// default.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            timeout: 0,
            backoff: 0,
        }
    }

    /// The reference serving discipline: three attempts, a generous
    /// per-attempt deadline, and a short base backoff.
    pub fn serving_default(timeout: Cycle) -> Self {
        Self {
            max_attempts: 3,
            timeout,
            backoff: 1_200,
        }
    }

    /// Backoff before attempt `attempt + 1` (0-indexed attempts).
    pub fn backoff_before(&self, attempt: u32) -> Cycle {
        self.backoff.saturating_mul(1u64 << attempt.min(20))
    }
}

/// Hedged requests: when a node job's completion would land more than a
/// high-quantile delay past its dispatch, duplicate it onto a surviving
/// replica node and take the earlier completion. The delay anchors at
/// the `quantile` of the last [`window`](Self::window) observed node-job
/// latencies, so the hedge threshold tracks the workload instead of a
/// hand-tuned constant ("p9x-based").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HedgePolicy {
    /// Latency quantile the hedge delay anchors at (e.g. 0.95).
    pub quantile: f64,
    /// Observations required before hedging activates.
    pub min_samples: usize,
    /// Ring-buffer size of the latency window the quantile is taken
    /// over.
    pub window: usize,
}

impl HedgePolicy {
    /// The reference hedge: p95 of the last 64 node-job latencies, after
    /// 16 warm-up observations.
    pub fn p95() -> Self {
        Self {
            quantile: 0.95,
            min_samples: 16,
            window: 64,
        }
    }
}

/// The serving SLO: a per-query deadline the overload controller guards.
/// Queries whose *estimated* queue delay already exceeds the deadline
/// are rejected at admission; queries whose *actual* service start would
/// land past the deadline are shed at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Per-query completion deadline in cycles from arrival.
    pub deadline: Cycle,
}

impl SloPolicy {
    /// A policy with per-query deadline `deadline`.
    pub fn new(deadline: Cycle) -> Self {
        Self { deadline }
    }
}

/// Everything the resilient fleet scheduler needs: the fault schedule
/// and the reaction policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// The fault schedule.
    pub faults: FaultPlan,
    /// Per-shard retry discipline.
    pub retry: RetryPolicy,
    /// Optional hedged dispatch of straggler node jobs.
    pub hedge: Option<HedgePolicy>,
    /// Optional SLO guard (admission control + deadline shedding).
    pub slo: Option<SloPolicy>,
}

impl ResilienceConfig {
    /// Resilience around `faults` with the reference reaction policies:
    /// no retry deadline, no hedging, no SLO — observation-only health
    /// tracking plus crash failover. With a zero plan this is a strict
    /// no-op configuration.
    pub fn new(faults: FaultPlan) -> Self {
        Self {
            faults,
            retry: RetryPolicy::none(),
            hedge: None,
            slo: None,
        }
    }

    /// The all-zero configuration: [`FaultPlan::none`] and no-op
    /// policies.
    pub fn zero() -> Self {
        Self::new(FaultPlan::none())
    }

    /// Sets the retry discipline.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables hedged dispatch.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Enables the SLO guard.
    #[must_use]
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Checks the configuration against a fleet of `nodes` nodes with
    /// `channels` channels each, so that a fault plan cannot silently
    /// inject nothing and no policy runs outside its documented range.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first bad entry: a crash,
    /// degrade window or timeout window on a node or channel the fleet
    /// lacks, a degrade `multiplier` of 0, a retry `max_attempts` of 0,
    /// or a hedge with an empty window or a quantile outside (0, 1].
    pub fn validate(&self, nodes: usize, channels: usize) -> Result<(), ConfigError> {
        let plan = &self.faults;
        let crashes = plan.crashes.iter().map(|c| ("crashes", c.node, None));
        let degrades = (plan.degrades.iter()).map(|d| ("degrades", d.node, Some(d.channel)));
        let timeouts = (plan.timeouts.iter()).map(|t| ("timeouts", t.node, Some(t.channel)));
        for (field, node, channel) in crashes.chain(degrades).chain(timeouts) {
            if node >= nodes {
                let msg = format!("names node {node} of a {nodes}-node fleet");
                return Err(ConfigError::new(field, msg));
            }
            if let Some(c) = channel.filter(|&c| c >= channels) {
                let msg = format!("names channel {c} of a {channels}-channel node");
                return Err(ConfigError::new(field, msg));
            }
        }
        if let Some(d) = plan.degrades.iter().find(|d| d.multiplier == 0) {
            let msg = format!("{d:?} needs a multiplier of at least 1");
            return Err(ConfigError::new("degrades", msg));
        }
        if self.retry.max_attempts == 0 {
            return Err(ConfigError::new("retry", "max_attempts must be at least 1"));
        }
        let valid = |h: &HedgePolicy| h.window > 0 && h.quantile > 0.0 && h.quantile <= 1.0;
        if let Some(h) = self.hedge.filter(|h| !valid(h)) {
            let msg = format!("{h:?} needs a window > 0 and a quantile in (0, 1]");
            return Err(ConfigError::new("hedge", msg));
        }
        Ok(())
    }
}

/// What became of one offered query under resilient serving. Exactly one
/// outcome per query; `offered == completed + rejected + shed + failed`
/// is the conservation law `resilience_determinism` pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOutcome {
    /// Served to completion (possibly after failover, retries or a
    /// hedge).
    Completed,
    /// Refused at admission: estimated queue delay past the SLO
    /// deadline.
    Rejected,
    /// Dropped at dispatch: actual service start past the SLO deadline.
    Shed,
    /// Failed: a table with no surviving replica, or retry exhaustion.
    Failed,
}

/// EWMA smoothing factor of the health tracker.
const EWMA_ALPHA: f64 = 0.2;

/// A node is degraded when its per-lookup service EWMA exceeds this
/// multiple of the fleet median; the router then prefers healthier
/// replicas.
const DEGRADED_AFTER: f64 = 3.0;

/// Per-node health as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// Serving normally.
    Healthy,
    /// Observed per-lookup service far above the fleet baseline; the
    /// router prefers healthier replicas but may still use the node as a
    /// last resort.
    Degraded,
    /// Known down; never routed to.
    Crashed,
}

/// The router's health tracker: a per-node EWMA of observed per-lookup
/// service cycles against the fleet *median* of those EWMAs (robust to
/// the outlier itself — a mean baseline would be dragged up by the very
/// node being diagnosed), plus the set of nodes discovered crashed.
/// Purely observational — it learns from what the scheduler measured,
/// not from the fault plan, so detection happens when (and only when)
/// traffic hits the fault.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    per_node: Vec<f64>,
    seen: Vec<bool>,
    crashed: Vec<bool>,
}

impl HealthTracker {
    /// A tracker for `nodes` nodes, all healthy and unobserved.
    pub fn new(nodes: usize) -> Self {
        Self {
            per_node: vec![0.0; nodes],
            seen: vec![false; nodes],
            crashed: vec![false; nodes],
        }
    }

    /// Records one observed node job: `service` cycles over `lookups`
    /// lookups.
    pub fn observe(&mut self, node: usize, service: Cycle, lookups: u64) {
        let per_lookup = service as f64 / lookups.max(1) as f64;
        if self.seen[node] {
            self.per_node[node] =
                EWMA_ALPHA * per_lookup + (1.0 - EWMA_ALPHA) * self.per_node[node];
        } else {
            self.per_node[node] = per_lookup;
            self.seen[node] = true;
        }
    }

    /// Marks a node discovered crashed.
    pub fn mark_crashed(&mut self, node: usize) {
        self.crashed[node] = true;
    }

    /// Has the router already discovered this node crashed?
    pub fn known_crashed(&self, node: usize) -> bool {
        self.crashed[node]
    }

    /// The fleet baseline: the lower median of the observed per-node
    /// EWMAs, or `None` before any node reports.
    fn baseline(&self) -> Option<f64> {
        let mut vals: Vec<f64> = self
            .per_node
            .iter()
            .zip(&self.seen)
            .filter(|(_, &s)| s)
            .map(|(&v, _)| v)
            .collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(f64::total_cmp);
        Some(vals[(vals.len() - 1) / 2])
    }

    /// The node's current health classification. A node whose EWMA
    /// exceeds `DEGRADED_AFTER` (3) times the fleet median is degraded;
    /// unobserved nodes (and a fleet with nothing to compare against)
    /// stay healthy.
    pub fn health(&self, node: usize) -> NodeHealth {
        if self.crashed[node] {
            return NodeHealth::Crashed;
        }
        match self.baseline() {
            Some(base) if self.seen[node] && self.per_node[node] > DEGRADED_AFTER * base => {
                NodeHealth::Degraded
            }
            _ => NodeHealth::Healthy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_a_no_op() {
        let p = FaultPlan::none();
        assert!(p.is_zero());
        assert!(!p.crashed(0, u64::MAX));
        assert_eq!(p.degrade_multiplier(0, 0, 0), 1);
        assert!(!p.times_out(0, 0, 0));
    }

    #[test]
    fn windows_gate_on_start_cycle() {
        let p = FaultPlan::none()
            .with_crash(2, 1_000)
            .with_degrade(0, 1, 100, 200, 8)
            .with_timeout(1, 3, 50, 60);
        assert!(!p.crashed(2, 999) && p.crashed(2, 1_000));
        assert_eq!(p.degrade_multiplier(0, 1, 99), 1);
        assert_eq!(p.degrade_multiplier(0, 1, 100), 8);
        assert_eq!(p.degrade_multiplier(0, 1, 199), 8);
        assert_eq!(p.degrade_multiplier(0, 1, 200), 1);
        assert_eq!(p.degrade_multiplier(0, 0, 150), 1, "other channel clean");
        assert!(p.times_out(1, 3, 55) && !p.times_out(1, 3, 60));
    }

    #[test]
    fn overlapping_degrades_take_the_worst_multiplier() {
        let p = FaultPlan::none()
            .with_degrade(0, 0, 0, 100, 2)
            .with_degrade(0, 0, 50, 150, 6);
        assert_eq!(p.degrade_multiplier(0, 0, 75), 6);
        assert_eq!(p.degrade_multiplier(0, 0, 120), 6);
        assert_eq!(p.degrade_multiplier(0, 0, 25), 2);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_window() {
        let spec = FaultSpec {
            crashes: 1,
            window: (1_000, 2_000),
            degraded_channels: 2,
            degrade_multiplier: 4,
            timeout_channels: 1,
            timeout_cycles: 500,
        };
        let a = FaultPlan::seeded(7, &spec, 4, 4);
        let b = FaultPlan::seeded(7, &spec, 4, 4);
        assert_eq!(a, b);
        assert_eq!(a.crashes.len(), 1);
        assert_eq!(a.degrades.len(), 2);
        assert_eq!(a.timeouts.len(), 1);
        for c in &a.crashes {
            assert!((1_000..2_000).contains(&c.at));
        }
        let other = FaultPlan::seeded(8, &spec, 4, 4);
        assert_ne!(a, other, "different seeds draw different plans");
        // Degraded and timeout channels never collide (sampled without
        // replacement from the same slot deck).
        let slow: Vec<(usize, usize)> = a.degrades.iter().map(|d| (d.node, d.channel)).collect();
        for t in &a.timeouts {
            assert!(!slow.contains(&(t.node, t.channel)));
        }
    }

    #[test]
    fn seeded_timeout_windows_saturate_at_the_end_of_the_clock() {
        let spec = FaultSpec {
            crashes: 0,
            window: (10, 30),
            degraded_channels: 0,
            degrade_multiplier: 1,
            timeout_channels: 3,
            timeout_cycles: u64::MAX,
        };
        let plan = FaultPlan::seeded(5, &spec, 2, 2);
        assert_eq!(plan.timeouts.len(), 3);
        for t in &plan.timeouts {
            assert_eq!(t.until, u64::MAX);
            assert!(plan.times_out(t.node, t.channel, t.from));
        }
    }

    #[test]
    fn seeded_crash_count_caps_at_fleet_size() {
        let spec = FaultSpec {
            crashes: 10,
            window: (0, 1),
            degraded_channels: 0,
            degrade_multiplier: 1,
            timeout_channels: 0,
            timeout_cycles: 0,
        };
        let p = FaultPlan::seeded(1, &spec, 3, 2);
        assert_eq!(p.crashes.len(), 3);
        let nodes: std::collections::BTreeSet<usize> = p.crashes.iter().map(|c| c.node).collect();
        assert_eq!(nodes.len(), 3, "victims drawn without replacement");
    }

    #[test]
    fn retry_backoff_grows_exponentially() {
        let r = RetryPolicy {
            max_attempts: 4,
            timeout: 10_000,
            backoff: 100,
        };
        assert_eq!(r.backoff_before(0), 100);
        assert_eq!(r.backoff_before(1), 200);
        assert_eq!(r.backoff_before(2), 400);
        assert_eq!(RetryPolicy::none().backoff_before(3), 0);
    }

    #[test]
    fn health_tracker_classifies_from_observations() {
        let mut h = HealthTracker::new(3);
        assert_eq!(h.health(0), NodeHealth::Healthy, "unobserved is healthy");
        // Two nodes at ~100 cycles/lookup, one at 1000: the slow node is
        // degraded against the fleet baseline.
        for _ in 0..4 {
            h.observe(0, 1_000, 10);
            h.observe(1, 1_000, 10);
            h.observe(2, 10_000, 10);
        }
        assert_eq!(h.health(0), NodeHealth::Healthy);
        assert_eq!(h.health(1), NodeHealth::Healthy);
        assert_eq!(h.health(2), NodeHealth::Degraded);
        h.mark_crashed(1);
        assert!(h.known_crashed(1));
        assert_eq!(h.health(1), NodeHealth::Crashed);
    }

    #[test]
    fn zero_resilience_config_is_inert() {
        let r = ResilienceConfig::zero();
        assert!(r.faults.is_zero());
        assert_eq!(r.retry, RetryPolicy::none());
        assert!(r.hedge.is_none() && r.slo.is_none());
    }
}
