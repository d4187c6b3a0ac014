//! The two calls, two reports and one config that came before
//! [`run`], [`ServingRun`] and [`ServingMode::Fleet`], kept field for
//! field for callers that still use them: [`serve`] serves one backend
//! fault-free into a [`ServingReport`], and [`serve_fleet_resilient`]
//! serves a [`Fleet`] under a [`FleetConfig`] into a [`FleetReport`].
//! Each is [`run`] with its fields moved into the old shape. New code
//! calls [`run`].

use recnmp_backend::{RunReport, SlsBackend};
use recnmp_types::{Cycle, SimError};
use serde::{Deserialize, Serialize};

use super::arrivals::{ArrivalProcess, QueryShape};
use super::faults::{QueryOutcome, ResilienceConfig};
use super::fleet::{Fleet, FleetDispatch, RouterPolicy};
use super::policy::ServingMode;
use super::scheduler::{run, ServingConfig, ServingRun};

/// A fleet serving run: [`ServingConfig`] with
/// [`ServingMode::Fleet`]`(dispatch)` as its mode.
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

/// A fault-free single-node [`ServingRun`], whose every query completes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// [`ServingRun::system`].
    pub system: String,
    /// [`ServingRun::mode`].
    pub mode: ServingMode,
    /// [`ServingRun::offered_qps`].
    pub offered_qps: f64,
    /// [`ServingRun::arrivals`].
    pub arrivals: Vec<Cycle>,
    /// [`ServingRun::completions`].
    pub completions: Vec<Cycle>,
    /// [`ServingRun::latencies`].
    pub latencies: Vec<Cycle>,
    /// The query count: each query dispatches on its own.
    pub jobs: usize,
    /// Always empty: a fault-free run rejects no query.
    pub rejected: Vec<usize>,
    /// [`ServingRun::report`].
    pub report: RunReport,
}

/// A [`ServingRun`] under [`ServingMode::Fleet`], labeled by its router.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// [`ServingRun::system`].
    pub system: String,
    /// The router of the run's [`FleetDispatch`].
    pub router: RouterPolicy,
    /// [`ServingRun::offered_qps`].
    pub offered_qps: f64,
    /// [`ServingRun::arrivals`].
    pub arrivals: Vec<Cycle>,
    /// [`ServingRun::completions`].
    pub completions: Vec<Cycle>,
    /// [`ServingRun::latencies`].
    pub latencies: Vec<Cycle>,
    /// [`ServingRun::node_queries`].
    pub node_queries: Vec<u64>,
    /// [`ServingRun::replicated_tables`].
    pub replicated_tables: usize,
    /// [`ServingRun::outcomes`].
    pub outcomes: Vec<QueryOutcome>,
    /// [`ServingRun::failures`].
    pub failures: Vec<SimError>,
    /// [`ServingRun::report`].
    pub report: RunReport,
}

impl FleetReport {
    /// Queries served to completion.
    pub fn completed(&self) -> usize {
        (self.outcomes.iter())
            .filter(|&&o| o == QueryOutcome::Completed)
            .count()
    }

    /// Latencies of the completed queries only.
    pub fn completed_latencies(&self) -> Vec<Cycle> {
        (self.latencies.iter().zip(&self.outcomes))
            .filter(|(_, &o)| o == QueryOutcome::Completed)
            .map(|(&l, _)| l)
            .collect()
    }
}

/// [`run`] of `cfg` on `backend` under [`ResilienceConfig::zero`].
///
/// # Errors
///
/// Returns [`run`]'s error.
pub fn serve(backend: &mut dyn SlsBackend, cfg: &ServingConfig) -> Result<ServingReport, SimError> {
    let r: ServingRun = run(&mut [backend], cfg, &ResilienceConfig::zero())?;
    Ok(ServingReport {
        jobs: r.arrivals.len(),
        rejected: Vec::new(),
        system: r.system,
        mode: r.mode,
        offered_qps: r.offered_qps,
        arrivals: r.arrivals,
        completions: r.completions,
        latencies: r.latencies,
        report: r.report,
    })
}

/// [`run`] of `cfg` on `fleet`'s nodes under `res`.
///
/// # Errors
///
/// Returns [`run`]'s error.
pub fn serve_fleet_resilient(
    fleet: &mut Fleet,
    cfg: &FleetConfig,
    res: &ResilienceConfig,
) -> Result<FleetReport, SimError> {
    let serving = ServingConfig {
        process: cfg.process,
        qps: cfg.qps,
        queries: cfg.queries,
        shape: cfg.shape,
        mode: ServingMode::Fleet(cfg.dispatch),
        seed: cfg.seed,
    };
    let r: ServingRun = run(&mut fleet.nodes_mut(), &serving, res)?;
    Ok(FleetReport {
        system: r.system,
        router: cfg.dispatch.router,
        offered_qps: r.offered_qps,
        arrivals: r.arrivals,
        completions: r.completions,
        latencies: r.latencies,
        node_queries: r.node_queries,
        replicated_tables: r.replicated_tables,
        outcomes: r.outcomes,
        failures: r.failures,
        report: r.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::sweep::reference_cluster4;
    use crate::serving::{FaultPlan, PlacementPolicy};

    fn shape() -> QueryShape {
        QueryShape::new(8, 2, 6).with_table_sampling(3)
    }

    #[test]
    fn serve_returns_what_run_returns() {
        let cfg = ServingConfig {
            mode: ServingMode::sharded(PlacementPolicy::Hash),
            ..ServingConfig::poisson(80_000.0, 12, shape(), 5)
        };
        let zero = ResilienceConfig::zero();
        let want = run(&mut [reference_cluster4().as_mut()], &cfg, &zero).unwrap();
        let got = serve(reference_cluster4().as_mut(), &cfg).unwrap();
        assert_eq!(got.system, want.system);
        assert_eq!(got.mode, want.mode);
        assert_eq!(got.offered_qps, want.offered_qps);
        assert_eq!(got.arrivals, want.arrivals);
        assert_eq!(got.completions, want.completions);
        assert_eq!(got.latencies, want.latencies);
        assert_eq!(got.report, want.report);
        assert_eq!((got.jobs, got.rejected.len()), (12, 0));
    }

    #[test]
    fn serve_fleet_resilient_returns_what_run_returns() {
        let cfg = FleetConfig {
            process: ArrivalProcess::Poisson,
            qps: 80_000.0,
            queries: 12,
            shape: shape(),
            dispatch: FleetDispatch::sharded(),
            seed: 5,
        };
        let serving = ServingConfig {
            process: cfg.process,
            qps: cfg.qps,
            queries: cfg.queries,
            shape: cfg.shape,
            mode: ServingMode::Fleet(cfg.dispatch),
            seed: cfg.seed,
        };
        // A crashed node fails the queries of its unreplicated tables.
        let res = ResilienceConfig::new(FaultPlan::none().with_crash(1, 0));
        let want = run(&mut Fleet::reference(2).nodes_mut(), &serving, &res).unwrap();
        let got = serve_fleet_resilient(&mut Fleet::reference(2), &cfg, &res).unwrap();
        assert!(!want.failures.is_empty());
        assert_eq!(got.system, want.system);
        assert_eq!(got.router, cfg.dispatch.router);
        assert_eq!(got.offered_qps, want.offered_qps);
        assert_eq!(got.arrivals, want.arrivals);
        assert_eq!(got.completions, want.completions);
        assert_eq!(got.latencies, want.latencies);
        assert_eq!(got.node_queries, want.node_queries);
        assert_eq!(got.replicated_tables, want.replicated_tables);
        assert_eq!(got.outcomes, want.outcomes);
        assert_eq!(got.failures, want.failures);
        assert_eq!(got.report, want.report);
        assert_eq!(got.completed(), want.completed());
        assert_eq!(got.completed_latencies(), want.completed_latencies());
    }
}
