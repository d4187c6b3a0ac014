//! Robustness of the serving entry points:
//!
//! * an offered rate that is not positive and finite, a query shape with
//!   no work, an out-of-range table sample, a bad skew or a skew rotation
//!   that is no permutation, and a hedge policy with an empty window or a
//!   quantile outside (0, 1], are `SimError::Config` instead of a panic;
//! * a fault plan entry on a node or channel the fleet lacks, a degrade
//!   multiplier of 0 and a retry policy of 0 attempts are
//!   `SimError::Config` instead of being ignored or clamped;
//! * a channel slowed past the end of the clock fails its queries
//!   instead of overflowing (or, wrapped, reporting them fast);
//! * (property) `serve` under arbitrary serving configurations — every
//!   mode family and dispatch policy, bad rates — and `serve_fleet_resilient` under arbitrary hedge, retry and
//!   SLO policies return `Ok` or `Err` and never panic;
//! * (property) `serve_fleet_resilient` on 1–3 nodes under arbitrary
//!   explicit or seeded fault plans (any node and channel, out-of-range
//!   ones included, multipliers and windows up to `u64::MAX`) rejects
//!   exactly the configurations the fleet cannot run as a config error,
//!   and otherwise gives every query exactly one outcome, counts the
//!   outcomes consistently and never completes a query before it
//!   arrived.

use proptest::prelude::*;
use recnmp_backend::{MigrationCost, PlacementPolicy, PromotionPolicy, TierSpec, TieredPolicy};
use recnmp_baselines::HostBaseline;
use recnmp_sim::serving::faults::{
    FaultPlan, FaultSpec, HedgePolicy, QueryOutcome, ResilienceConfig, RetryPolicy, SloPolicy,
};
use recnmp_sim::serving::fleet::{
    resilience_sweep, serve_fleet_resilient, Fleet, FleetConfig, FleetDispatch, FleetReport,
    ResilienceSpec, RouterPolicy,
};
use recnmp_sim::serving::{
    serve, ArrivalProcess, DispatchPolicy, EpochPromotion, HostCacheSpec, PrefetchSpec, QueryShape,
    ServingConfig, ServingMode, ShardedDispatch, TieredDispatch,
};
use recnmp_types::{ByteSize, Cycle, SimError};

const BAD_RATES: [f64; 5] = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

fn host() -> HostBaseline {
    HostBaseline::new(1, 2).expect("host baseline")
}

fn fleet_shape() -> QueryShape {
    QueryShape::new(4, 2, 6).with_table_sampling(2)
}

fn fleet_cfg(qps: f64, queries: usize, dispatch: FleetDispatch, seed: u64) -> FleetConfig {
    FleetConfig {
        process: ArrivalProcess::Poisson,
        qps,
        queries,
        shape: fleet_shape(),
        dispatch,
        seed,
    }
}

fn is_config_error<T>(result: &Result<T, SimError>) -> bool {
    matches!(result, Err(SimError::Config(_)))
}

#[test]
fn a_bad_offered_rate_is_a_config_error() {
    for qps in BAD_RATES {
        let cfg = ServingConfig::poisson(qps, 4, QueryShape::new(2, 2, 8), 1);
        assert!(is_config_error(&serve(&mut host(), &cfg)), "serve at {qps}");

        let fleet_cfg = fleet_cfg(qps, 4, FleetDispatch::sharded(), 1);
        let res = ResilienceConfig::zero();
        let served = serve_fleet_resilient(&mut Fleet::reference(2), &fleet_cfg, &res);
        assert!(is_config_error(&served), "serve_fleet_resilient at {qps}");

        let spec = ResilienceSpec {
            process: ArrivalProcess::Poisson,
            qps,
            queries: 8,
            shape: fleet_shape(),
            seed: 1,
            deadline_p99_multiple: 3,
            sustain_fraction: 0.9,
            degrade_multiplier: 4,
        };
        let swept = resilience_sweep(&mut || Fleet::reference(2), &spec);
        assert!(is_config_error(&swept), "resilience_sweep at {qps}");
    }
}

#[test]
fn a_bad_query_shape_is_a_config_error() {
    let good = QueryShape::new(4, 2, 6);
    let mut bad = vec![
        QueryShape { tables: 0, ..good },
        QueryShape { batch: 0, ..good },
        QueryShape { pooling: 0, ..good },
        QueryShape {
            sample_tables: 99,
            ..good
        },
        QueryShape {
            skew_rotate: 2,
            ..good
        },
        QueryShape {
            skew_rotate: 0,
            ..good
        },
    ];
    for skew in [-1.0, f64::NAN, f64::INFINITY] {
        bad.push(QueryShape {
            table_skew: skew,
            ..good
        });
        bad.push(QueryShape {
            row_skew: skew,
            ..good
        });
    }
    for shape in bad {
        let cfg = ServingConfig::poisson(60_000.0, 4, shape, 1);
        assert!(
            is_config_error(&serve(&mut host(), &cfg)),
            "serve {shape:?}"
        );

        let fleet_cfg = FleetConfig {
            shape,
            ..fleet_cfg(60_000.0, 4, FleetDispatch::sharded(), 1)
        };
        let res = ResilienceConfig::zero();
        let served = serve_fleet_resilient(&mut Fleet::reference(2), &fleet_cfg, &res);
        assert!(is_config_error(&served), "serve_fleet_resilient {shape:?}");
    }
}

#[test]
fn hedging_needs_a_window_and_a_quantile_in_the_unit_interval() {
    let cfg = fleet_cfg(60_000.0, 16, FleetDispatch::replicated(4), 3);
    let run = |hedge: HedgePolicy| {
        let res = ResilienceConfig::new(FaultPlan::none().with_degrade(0, 0, 0, u64::MAX, 6))
            .with_hedge(hedge);
        serve_fleet_resilient(&mut Fleet::reference(2), &cfg, &res)
    };
    // No warm-up: the first node job has no observed latency to anchor
    // a delay at, so hedging starts from the second.
    for quantile in [0.5, 1.0] {
        let eager = HedgePolicy {
            quantile,
            min_samples: 0,
            window: 8,
        };
        let report = run(eager).expect("a hedge without warm-up is valid");
        assert_eq!(report.completed(), 16, "{eager:?}");
    }
    let p95 = HedgePolicy::p95();
    for bad in [
        HedgePolicy { window: 0, ..p95 },
        HedgePolicy {
            quantile: 0.0,
            ..p95
        },
        HedgePolicy {
            quantile: -0.5,
            ..p95
        },
        HedgePolicy {
            quantile: 1.5,
            ..p95
        },
        HedgePolicy {
            quantile: f64::NAN,
            ..p95
        },
    ] {
        assert!(is_config_error(&run(bad)), "{bad:?}");
    }
}

#[test]
fn a_fault_plan_outside_the_fleet_is_a_config_error() {
    // Two reference nodes of four channels each.
    let cfg = fleet_cfg(60_000.0, 8, FleetDispatch::replicated(4), 3);
    let run = |res: &ResilienceConfig| serve_fleet_resilient(&mut Fleet::reference(2), &cfg, res);
    let none = FaultPlan::none;
    let degrade = |multiplier| none().with_degrade(1, 3, 0, u64::MAX, multiplier);
    // The last in-range entry of each kind, and a 1x degrade, serve.
    for plan in [
        none().with_crash(1, 50_000),
        degrade(1),
        none().with_timeout(1, 3, 0, 10_000),
    ] {
        let report = run(&ResilienceConfig::new(plan.clone())).expect("an in-range plan serves");
        assert_consistent(&report, 8);
    }
    for plan in [
        none().with_crash(2, 0),
        none().with_degrade(2, 0, 0, u64::MAX, 4),
        none().with_degrade(0, 4, 0, u64::MAX, 4),
        none().with_timeout(2, 0, 0, 10_000),
        none().with_timeout(0, 4, 0, 10_000),
        degrade(0),
    ] {
        let res = ResilienceConfig::new(plan.clone());
        assert!(is_config_error(&run(&res)), "{plan:?}");
    }
    let no_attempts = RetryPolicy {
        max_attempts: 0,
        ..RetryPolicy::serving_default(50_000)
    };
    let res = ResilienceConfig::zero().with_retry(no_attempts);
    assert!(is_config_error(&run(&res)), "{no_attempts:?}");
}

/// Whether a fleet of `nodes` reference nodes (4 channels each) accepts
/// `res`, from the documented ranges: every fault on one of its nodes
/// and channels, degrade multipliers and retry attempts of at least 1,
/// and a hedge with a window and a quantile in (0, 1].
fn accepted(res: &ResilienceConfig, nodes: usize) -> bool {
    let (plan, channels) = (&res.faults, 4);
    let on_fleet = |node: usize, channel: usize| node < nodes && channel < channels;
    plan.crashes.iter().all(|c| c.node < nodes)
        && (plan.degrades.iter()).all(|d| on_fleet(d.node, d.channel) && d.multiplier >= 1)
        && (plan.timeouts.iter()).all(|t| on_fleet(t.node, t.channel))
        && res.retry.max_attempts >= 1
        && (res.hedge).is_none_or(|h| h.window > 0 && h.quantile > 0.0 && h.quantile <= 1.0)
}

/// Every query has exactly one outcome, the report's counters and
/// failure list agree with the outcomes, and no query completes before it
/// arrived.
fn assert_consistent(report: &FleetReport, queries: usize) {
    let count = |o: QueryOutcome| report.outcomes.iter().filter(|&&x| x == o).count() as u64;
    assert_eq!(report.outcomes.len(), queries);
    assert_eq!(report.completions.len(), queries);
    let r = &report.report;
    assert_eq!(r.queries_rejected, count(QueryOutcome::Rejected));
    assert_eq!(r.queries_shed, count(QueryOutcome::Shed));
    assert_eq!(r.queries_failed, count(QueryOutcome::Failed));
    assert_eq!(report.failures.len() as u64, count(QueryOutcome::Failed));
    for (done, arrived) in report.completions.iter().zip(&report.arrivals) {
        assert!(
            done >= arrived,
            "completion {done} before arrival {arrived}"
        );
    }
    // The measurements over the completed queries are total too.
    let _ = (report.summary(), report.achieved_qps());
}

#[test]
fn a_channel_slowed_past_the_end_of_the_clock_fails_its_queries() {
    // Channel 0 of node 0 runs u64::MAX times slower from cycle 0: a shard
    // there would complete past the end of the clock, so its query fails
    // instead of overflowing (or wrapping to a fast completion).
    let cfg = fleet_cfg(60_000.0, 6, FleetDispatch::sharded(), 3);
    let stuck = FaultPlan::none().with_degrade(0, 0, 0, u64::MAX, u64::MAX);
    let report = serve_fleet_resilient(
        &mut Fleet::reference(2),
        &cfg,
        &ResilienceConfig::new(stuck),
    )
    .expect("a stuck channel fails queries, not the run");
    assert!(report.report.queries_failed > 0, "{:?}", report.outcomes);
    assert!(report
        .failures
        .iter()
        .all(|e| matches!(e, SimError::DeadlineExceeded { .. })));
    assert_consistent(&report, 6);
}

/// Mostly good offered rates, one in four a bad one.
fn rate_strategy() -> impl Strategy<Value = f64> {
    (0usize..4 * BAD_RATES.len(), 1_000.0..50_000_000.0)
        .prop_map(|(k, qps)| BAD_RATES.get(k).copied().unwrap_or(qps))
}

fn shape_strategy() -> impl Strategy<Value = QueryShape> {
    (1usize..5, 1usize..3, 1usize..9, 0usize..5, 0u32..3).prop_map(
        |(tables, batch, pooling, sample, skew)| {
            let shape = QueryShape::new(tables, batch, pooling).with_table_skew(skew as f64 * 0.6);
            match sample.min(tables) {
                0 => shape,
                k => shape.with_table_sampling(k),
            }
        },
    )
}

fn sharded_strategy() -> impl Strategy<Value = ServingMode> {
    let placement = prop_oneof![
        Just(PlacementPolicy::Hash),
        Just(PlacementPolicy::CapacityGreedy),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 0 }),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 2 }),
    ];
    (placement, 0u64..3, 0u64..4, 0usize..3).prop_map(|(placement, capacity, cache_kib, fetch)| {
        let mut dispatch = ShardedDispatch::new(placement);
        dispatch.channel_capacity = match capacity {
            0 => None,
            1 => Some(ByteSize::bytes(1)),
            _ => Some(ByteSize::gib(4)),
        };
        if cache_kib > 0 {
            dispatch = dispatch.with_host_cache(HostCacheSpec::with_capacity(ByteSize::kib(
                (cache_kib - 1) * 64,
            )));
        }
        if fetch > 0 {
            dispatch = dispatch.with_prefetch(PrefetchSpec::new(fetch * 8 - 8));
        }
        ServingMode::Sharded(dispatch)
    })
}

fn tiered_strategy() -> impl Strategy<Value = ServingMode> {
    (0usize..3, 0usize..2, 0usize..3, 0usize..4, 0u32..200).prop_map(
        |(dram, ssd, hot, epoch, hysteresis_pct)| {
            let tiers = TierSpec {
                dram_channels: dram,
                dram_channel_capacity: ByteSize::mib(64),
                ssd_units: ssd,
                ssd_unit_capacity: ByteSize::gib(1),
            };
            let policy = match hot {
                0 => TieredPolicy::Hash,
                h => TieredPolicy::FrequencyTiered {
                    replicate_hot: h - 1,
                },
            };
            let mut dispatch = TieredDispatch::new(policy, tiers);
            if epoch > 0 {
                dispatch.promotion = Some(EpochPromotion {
                    epoch_queries: epoch - 1,
                    policy: PromotionPolicy {
                        hysteresis_pct,
                        migration: MigrationCost::new(1_000, 1),
                    },
                });
            }
            ServingMode::Tiered(dispatch)
        },
    )
}

fn mode_strategy() -> impl Strategy<Value = ServingMode> {
    prop_oneof![
        Just(ServingMode::Queued(DispatchPolicy::FifoSingleQueue)),
        Just(ServingMode::Queued(DispatchPolicy::RoundRobin)),
        Just(ServingMode::Queued(DispatchPolicy::LeastOutstanding)),
        sharded_strategy(),
        tiered_strategy(),
    ]
}

fn process_strategy() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![Just(ArrivalProcess::Poisson), Just(ArrivalProcess::Uniform)]
}

fn hedge_strategy() -> impl Strategy<Value = Option<HedgePolicy>> {
    // Mostly valid quantiles, one in four outside (0, 1].
    let odd = [f64::NAN, 0.0, -1.0, 2.5, 1.0];
    let quantile =
        (0usize..4 * odd.len(), 0.01..1.0).prop_map(move |(k, q)| odd.get(k).copied().unwrap_or(q));
    prop_oneof![
        Just(None),
        (quantile, 0usize..6, 0usize..40).prop_map(|(quantile, min_samples, window)| {
            Some(HedgePolicy {
                quantile,
                min_samples,
                window,
            })
        }),
    ]
}

fn cycles_strategy(typical: Cycle) -> impl Strategy<Value = Cycle> {
    prop_oneof![Just(0), 1..typical, Just(Cycle::MAX)]
}

fn retry_strategy() -> impl Strategy<Value = RetryPolicy> {
    (0u32..5, cycles_strategy(200_000), cycles_strategy(20_000)).prop_map(
        |(max_attempts, timeout, backoff)| RetryPolicy {
            max_attempts,
            timeout,
            backoff,
        },
    )
}

fn slo_strategy() -> impl Strategy<Value = Option<SloPolicy>> {
    prop_oneof![
        Just(None),
        cycles_strategy(400_000).prop_map(|deadline| Some(SloPolicy { deadline })),
    ]
}

fn router_strategy() -> impl Strategy<Value = RouterPolicy> {
    prop_oneof![
        Just(RouterPolicy::HashAffinity),
        Just(RouterPolicy::LeastOutstanding),
        Just(RouterPolicy::PlacementScatter),
    ]
}

/// Cycles from the typical range, anywhere on the clock, or at its ends.
fn edge_cycles(typical: Cycle) -> impl Strategy<Value = Cycle> {
    prop_oneof![Just(0), 1..typical, any::<u64>(), Just(Cycle::MAX)]
}

/// Service multipliers from a no-op to the end of the clock.
fn multiplier_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..20, any::<u64>(), Just(u64::MAX)]
}

/// Up to five explicit crash, degrade and timeout entries at any node
/// and channel of a ≤3-node reference fleet (4 channels each), or just
/// past it.
fn explicit_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let entry = (
        (0u8..3, 0usize..4, 0usize..6),
        (
            edge_cycles(200_000),
            edge_cycles(400_000),
            multiplier_strategy(),
        ),
    );
    prop::collection::vec(entry, 0..6).prop_map(|entries| {
        let add = |plan: FaultPlan, ((kind, node, channel), (from, until, mult))| match kind {
            0 => plan.with_crash(node, from),
            1 => plan.with_degrade(node, channel, from, until, mult),
            _ => plan.with_timeout(node, channel, from, until),
        };
        entries.into_iter().fold(FaultPlan::none(), add)
    })
}

fn fault_spec_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        (0usize..4, edge_cycles(200_000), edge_cycles(400_000)),
        (0usize..14, multiplier_strategy()),
        (0usize..14, edge_cycles(100_000)),
    )
        .prop_map(
            |((crashes, lo, hi), (degraded, mult), (timeouts, cycles))| FaultSpec {
                crashes,
                window: (lo, hi),
                degraded_channels: degraded,
                degrade_multiplier: mult,
                timeout_channels: timeouts,
                timeout_cycles: cycles,
            },
        )
}

type ServeCase = (ServingMode, (f64, usize, u64, ArrivalProcess), QueryShape);

type FleetCase = (
    (Option<HedgePolicy>, RetryPolicy, Option<SloPolicy>),
    (RouterPolicy, usize, usize, u64),
);

type FaultCase = (
    (FaultPlan, Option<FaultSpec>),
    (RetryPolicy, Option<SloPolicy>, bool),
    (usize, usize, usize, u64),
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serve_returns_ok_or_err_for_any_config(
        case in (
            mode_strategy(),
            (rate_strategy(), 0usize..12, 0u64..1 << 40, process_strategy()),
            shape_strategy(),
        )
    ) {
        let case: ServeCase = case;
        let (mode, (qps, queries, seed, process), shape) = case;
        let cfg = ServingConfig {
            process,
            qps,
            queries,
            shape,
            mode,
            seed,
        };
        let result = serve(&mut host(), &cfg);
        if !(qps > 0.0 && qps.is_finite()) {
            prop_assert!(is_config_error(&result), "{cfg:?}");
        } else if let Ok(report) = result {
            prop_assert_eq!(report.completions.len(), queries);
            prop_assert!(report.rejected.len() <= queries);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resilient_fleet_returns_ok_or_err_for_any_policy(
        case in (
            (hedge_strategy(), retry_strategy(), slo_strategy()),
            (router_strategy(), 0usize..3, 1usize..20, 0u64..1 << 40),
        )
    ) {
        let case: FleetCase = case;
        let ((hedge, retry, slo), (router, replicate, queries, seed)) = case;
        // Faults that engage every policy: a mid-run crash, a slow
        // channel and a timeout window on the survivor.
        let faults = FaultPlan::none()
            .with_crash(1, 150_000)
            .with_degrade(0, 1, 0, u64::MAX, 5)
            .with_timeout(0, 0, 20_000, 60_000);
        let res = ResilienceConfig {
            retry,
            hedge,
            slo,
            ..ResilienceConfig::new(faults)
        };
        let dispatch = FleetDispatch {
            router,
            ..FleetDispatch::replicated(replicate * 2)
        };
        let cfg = fleet_cfg(80_000.0, queries, dispatch, seed);
        let result = serve_fleet_resilient(&mut Fleet::reference(2), &cfg, &res);
        if accepted(&res, 2) {
            let report = result.expect("valid policies serve every query to an outcome");
            prop_assert_eq!(report.outcomes.len(), queries);
        } else {
            prop_assert!(is_config_error(&result), "{res:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_fleet_under_any_fault_plan_accounts_every_query(
        case in (
            (
                explicit_plan_strategy(),
                prop_oneof![Just(None), fault_spec_strategy().prop_map(Some)],
            ),
            (retry_strategy(), slo_strategy(), any::<bool>()),
            (1usize..4, 0usize..5, 1usize..12, 0u64..1 << 40),
        )
    ) {
        let case: FaultCase = case;
        let ((explicit, spec), (retry, slo, hedged), (nodes, replicate, queries, seed)) = case;
        let mut fleet = Fleet::reference(nodes);
        let faults = match spec {
            Some(spec) => FaultPlan::seeded(seed, &spec, nodes, fleet.channels_per_node()),
            None => explicit,
        };
        let mut res = ResilienceConfig {
            retry,
            slo,
            ..ResilienceConfig::new(faults)
        };
        if hedged {
            res = res.with_hedge(HedgePolicy {
                quantile: 0.5,
                min_samples: 1,
                window: 8,
            });
        }
        let cfg = fleet_cfg(40_000.0 * nodes as f64, queries, FleetDispatch::replicated(replicate), seed);
        let result = serve_fleet_resilient(&mut fleet, &cfg, &res);
        if accepted(&res, nodes) {
            let report = result.expect("a valid configuration serves every query to an outcome");
            assert_consistent(&report, queries);
        } else {
            prop_assert!(is_config_error(&result), "{res:?}");
        }
    }
}
