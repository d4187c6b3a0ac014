//! Resilience determinism and outcome invariants:
//!
//! * resilient fleet serving is byte-identical across execution-pool
//!   worker counts {1, 2, 8} and across reruns at a fixed count, with an
//!   *active* fault plan (crash + degradation + transient timeouts) and
//!   every recovery mechanism engaged (retry, hedging, SLO guard);
//! * outcomes conserve the offered load: every query is exactly one of
//!   completed / rejected / shed / failed, and the counters agree;
//! * (property) failover never routes a query to a crashed node, for
//!   every router, seed and crash site.

use proptest::prelude::*;
use recnmp_exec::{with_pool, ExecPool};
use recnmp_sim::serving::faults::{
    FaultPlan, HedgePolicy, QueryOutcome, ResilienceConfig, RetryPolicy, SloPolicy,
};
use recnmp_sim::serving::fleet::{Fleet, FleetDispatch, RouterPolicy};
use recnmp_sim::serving::{
    run, ArrivalProcess, QueryShape, ServingConfig, ServingMode, ServingRun,
};

fn shape() -> QueryShape {
    QueryShape::new(10, 2, 6)
        .with_table_skew(1.1)
        .with_table_sampling(3)
}

fn cfg(nodes: usize, queries: usize, dispatch: FleetDispatch) -> ServingConfig {
    ServingConfig {
        process: ArrivalProcess::Poisson,
        qps: 30_000.0 * nodes as f64,
        queries,
        shape: shape(),
        mode: ServingMode::Fleet(dispatch),
        seed: 0xfa_c75,
    }
}

/// An aggressive configuration that engages every mechanism at once:
/// a mid-run crash, a permanently degraded channel, a transient timeout
/// window, bounded retries, p95 hedging and an SLO guard.
fn active_res() -> ResilienceConfig {
    ResilienceConfig::new(
        FaultPlan::none()
            .with_crash(2, 150_000)
            .with_degrade(0, 1, 0, u64::MAX, 3)
            .with_timeout(1, 0, 100_000, 400_000),
    )
    .with_retry(RetryPolicy::serving_default(40_000))
    .with_hedge(HedgePolicy::p95())
    .with_slo(SloPolicy::new(40_000))
}

/// `c` on a fresh reference fleet of 3 nodes under `res`.
fn serve3(c: &ServingConfig, res: &ResilienceConfig) -> ServingRun {
    run(&mut Fleet::reference(3).nodes_mut(), c, res).expect("resilient fleet run")
}

fn run_with_workers(workers: usize, dispatch: FleetDispatch) -> ServingRun {
    let pool = ExecPool::new(workers).expect("positive worker count");
    with_pool(&pool, || serve3(&cfg(3, 24, dispatch), &active_res()))
}

#[test]
fn resilient_output_is_byte_identical_across_worker_counts() {
    for dispatch in [FleetDispatch::replicated(10), FleetDispatch::sharded()] {
        let one = run_with_workers(1, dispatch);
        for workers in [2, 8] {
            let other = run_with_workers(workers, dispatch);
            assert_eq!(
                one,
                other,
                "{}: workers=1 vs workers={workers} diverged under faults",
                dispatch.label()
            );
        }
        // Rerun at a fixed count: neither the pool nor the health
        // tracker may leak state between runs.
        assert_eq!(one, run_with_workers(1, dispatch), "rerun diverged");
    }
}

#[test]
fn outcomes_conserve_the_offered_load() {
    for dispatch in [FleetDispatch::replicated(10), FleetDispatch::sharded()] {
        let report = run_with_workers(1, dispatch);
        let offered = report.outcomes.len() as u64;
        let count =
            |want: QueryOutcome| report.outcomes.iter().filter(|&&o| o == want).count() as u64;
        assert_eq!(
            offered,
            count(QueryOutcome::Completed)
                + count(QueryOutcome::Rejected)
                + count(QueryOutcome::Shed)
                + count(QueryOutcome::Failed),
            "outcomes must partition the offered queries"
        );
        assert_eq!(
            count(QueryOutcome::Rejected),
            report.report.queries_rejected
        );
        assert_eq!(count(QueryOutcome::Shed), report.report.queries_shed);
        assert_eq!(count(QueryOutcome::Failed), report.report.queries_failed);
        assert_eq!(count(QueryOutcome::Completed), report.completed() as u64);
        assert_eq!(
            report.failures.len() as u64,
            report.report.queries_failed,
            "every failed query records its error"
        );
    }
}

fn router_strategy() -> impl Strategy<Value = RouterPolicy> {
    prop_oneof![
        Just(RouterPolicy::HashAffinity),
        Just(RouterPolicy::LeastOutstanding),
        Just(RouterPolicy::PlacementScatter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The failover invariant: with every table replicated everywhere and
    // one node down from cycle 0, no query is ever dispatched to the
    // dead node, and — because a live replica always exists — none fail.
    #[test]
    fn failover_never_routes_to_a_crashed_node(
        router in router_strategy(),
        crashed in 0usize..3,
        seed in 0u64..1024,
        queries in 4usize..24,
    ) {
        let dispatch = FleetDispatch {
            router,
            ..FleetDispatch::replicated(10)
        };
        let mut c = cfg(3, queries, dispatch);
        c.seed = seed;
        let res = ResilienceConfig::new(FaultPlan::none().with_crash(crashed, 0));
        let report = serve3(&c, &res);
        prop_assert_eq!(
            report.node_queries[crashed],
            0,
            "router {} sent queries to the crashed node",
            router.name()
        );
        prop_assert_eq!(report.report.queries_failed, 0);
        prop_assert!(report.availability() == 1.0);
    }
}
