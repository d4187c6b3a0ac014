//! Robustness of the serving entry points:
//!
//! * an offered rate that is not positive and finite, and a hedge policy
//!   with an empty window or a quantile outside (0, 1], are
//!   `SimError::Config` instead of a panic;
//! * (property) `serve` under arbitrary serving configurations — every
//!   mode family and dispatch policy, coalescing, a depth bound, bad
//!   rates — and `serve_fleet_resilient` under arbitrary hedge, retry and
//!   SLO policies return `Ok` or `Err` and never panic.

use proptest::prelude::*;
use recnmp_backend::{MigrationCost, PlacementPolicy, PromotionPolicy, TierSpec, TieredPolicy};
use recnmp_baselines::HostBaseline;
use recnmp_sim::serving::faults::{
    FaultPlan, HedgePolicy, ResilienceConfig, RetryPolicy, SloPolicy,
};
use recnmp_sim::serving::fleet::{
    resilience_sweep, serve_fleet_resilient, Fleet, FleetConfig, FleetDispatch, ResilienceSpec,
    RouterPolicy,
};
use recnmp_sim::serving::{
    serve, ArrivalProcess, Coalescing, DispatchPolicy, EpochPromotion, HostCacheSpec, PrefetchSpec,
    QueryShape, ServingConfig, ServingMode, ShardedDispatch, TieredDispatch,
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

fn coalescing_strategy() -> impl Strategy<Value = Option<Coalescing>> {
    prop_oneof![
        Just(None),
        (1usize..5, 0u64..20_000).prop_map(|(n, wait)| Some(Coalescing::new(n, wait))),
    ]
}

fn depth_strategy() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0usize..4).prop_map(Some)]
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
        (cycles_strategy(400_000), cycles_strategy(400_000)).prop_map(|(deadline, target_p99)| {
            Some(SloPolicy {
                deadline,
                target_p99,
            })
        }),
    ]
}

fn router_strategy() -> impl Strategy<Value = RouterPolicy> {
    prop_oneof![
        Just(RouterPolicy::HashAffinity),
        Just(RouterPolicy::LeastOutstanding),
        Just(RouterPolicy::PlacementScatter),
    ]
}

type ServeCase = (
    (ServingMode, Option<Coalescing>, Option<usize>),
    (f64, usize, u64, ArrivalProcess),
    QueryShape,
);

type FleetCase = (
    (Option<HedgePolicy>, RetryPolicy, Option<SloPolicy>),
    (RouterPolicy, usize, usize, u64),
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn serve_returns_ok_or_err_for_any_config(
        case in (
            (mode_strategy(), coalescing_strategy(), depth_strategy()),
            (rate_strategy(), 0usize..12, 0u64..1 << 40, process_strategy()),
            shape_strategy(),
        )
    ) {
        let case: ServeCase = case;
        let ((mode, coalescing, max_queue_depth), (qps, queries, seed, process), shape) = case;
        let cfg = ServingConfig {
            process,
            qps,
            queries,
            shape,
            mode,
            coalescing,
            max_queue_depth,
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
        let hedge_ok = hedge.is_none_or(|h| h.window > 0 && h.quantile > 0.0 && h.quantile <= 1.0);
        if hedge_ok {
            let report = result.expect("valid policies serve every query to an outcome");
            prop_assert_eq!(report.outcomes.len(), queries);
        } else {
            prop_assert!(is_config_error(&result), "{hedge:?}");
        }
    }
}
