//! Serving-layer conformance: determinism of the open-loop queueing
//! harness and throughput conservation below saturation.
//!
//! These are the cross-crate guarantees the tail-latency experiments
//! (`fig18_tail_latency`, `serve_sweep`) stand on: the same seed and
//! config produce byte-identical latency vectors on every backend and
//! policy, and offered load below the knee is actually served at the
//! offered rate.

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::SlsBackend;
use recnmp_baselines::{DimmLevelNmp, DramConfig, HostBaseline};
use recnmp_sim::serving::{
    saturation_qps, serve, ArrivalProcess, DispatchPolicy, QueryShape, ServingConfig, ServingMode,
};

fn cluster4() -> RecNmpCluster {
    let config = RecNmpClusterConfig::builder()
        .channels(4)
        .dimms(1)
        .ranks_per_dimm(2)
        .build()
        .unwrap();
    RecNmpCluster::new(config).unwrap()
}

fn backends() -> Vec<Box<dyn SlsBackend>> {
    vec![
        Box::new(HostBaseline::new(1, 2).unwrap()),
        Box::new(DimmLevelNmp::tensordimm(DramConfig::with_ranks(1, 2)).unwrap()),
        Box::new(cluster4()),
    ]
}

fn cfg(policy: DispatchPolicy) -> ServingConfig {
    ServingConfig {
        process: ArrivalProcess::Poisson,
        qps: 500_000.0,
        queries: 24,
        shape: QueryShape::new(2, 2, 8),
        mode: ServingMode::Queued(policy),
        seed: 0xdead_beef,
    }
}

#[test]
fn same_seed_is_byte_identical_across_runs_and_policies_rerun() {
    for policy in DispatchPolicy::ALL {
        let c = cfg(policy);
        for (a, b) in backends().iter_mut().zip(backends().iter_mut()) {
            let ra = serve(a.as_mut(), &c).unwrap();
            let rb = serve(b.as_mut(), &c).unwrap();
            // Full per-query vectors, not just summaries: arrival
            // schedule, completion timestamps and latencies all match
            // bit-for-bit, so the percentiles do too.
            assert_eq!(ra.arrivals, rb.arrivals, "{policy} arrivals");
            assert_eq!(ra.completions, rb.completions, "{policy} completions");
            assert_eq!(ra.latencies, rb.latencies, "{policy} latencies");
            assert_eq!(ra.summary(), rb.summary(), "{policy} summary");
            assert_eq!(
                ra.report.query_completions, rb.report.query_completions,
                "{policy} report timestamps"
            );
        }
    }
}

#[test]
fn serving_conserves_lookups_on_every_backend() {
    let c = cfg(DispatchPolicy::FifoSingleQueue);
    for backend in backends().iter_mut() {
        let r = serve(backend.as_mut(), &c).unwrap();
        assert_eq!(
            r.report.insts,
            c.shape.lookups_per_query() * c.queries as u64,
            "{} lost lookups",
            r.system
        );
        assert_eq!(r.latencies.len(), c.queries);
        // Every query dispatches on its own.
        assert_eq!(r.jobs, c.queries);
        // Completion never precedes arrival.
        assert!(r
            .completions
            .iter()
            .zip(&r.arrivals)
            .all(|(done, arr)| done >= arr));
    }
}

#[test]
fn below_saturation_throughput_tracks_offered_rate() {
    // Uniform (perfectly paced) arrivals at half the probed saturation
    // rate: completions must keep up with arrivals on every backend.
    let shape = QueryShape::new(2, 2, 8);
    let host: fn() -> Box<dyn SlsBackend> = || Box::new(HostBaseline::new(1, 2).unwrap());
    let cluster: fn() -> Box<dyn SlsBackend> = || Box::new(cluster4());
    let factories = [("host", host), ("cluster", cluster)];
    for (label, mut factory) in factories {
        let fifo = ServingMode::Queued(DispatchPolicy::FifoSingleQueue);
        let sat = saturation_qps(&mut factory, fifo, shape, 8, 3).unwrap();
        let c = ServingConfig {
            process: ArrivalProcess::Uniform,
            qps: 0.5 * sat,
            queries: 32,
            shape,
            mode: fifo,
            seed: 3,
        };
        let r = serve(factory().as_mut(), &c).unwrap();
        let achieved = r.achieved_qps();
        assert!(
            achieved >= 0.85 * c.qps,
            "{label}: offered {:.0} qps but achieved only {achieved:.0}",
            c.qps
        );
    }
}

/// Sharded scatter/gather configuration over a skewed multi-table query
/// stream on the 4-channel cluster.
fn sharded_cfg(placement: recnmp_backend::PlacementPolicy) -> ServingConfig {
    ServingConfig {
        process: ArrivalProcess::Poisson,
        qps: 500_000.0,
        queries: 24,
        shape: QueryShape::reference_skewed(),
        mode: ServingMode::sharded(placement),
        seed: 0xdead_beef,
    }
}

#[test]
fn sharded_serving_is_byte_identical_and_lookup_conserving() {
    for placement in recnmp_backend::PlacementPolicy::COMPARED {
        let c = sharded_cfg(placement);
        let mut a = cluster4();
        let mut b = cluster4();
        let ra = serve(&mut a, &c).unwrap();
        let rb = serve(&mut b, &c).unwrap();
        // Byte-identical reruns for a fixed seed: the arrival schedule,
        // every per-query completion timestamp, and every latency.
        assert_eq!(ra.arrivals, rb.arrivals, "{placement} arrivals");
        assert_eq!(ra.completions, rb.completions, "{placement} completions");
        assert_eq!(ra.latencies, rb.latencies, "{placement} latencies");
        assert_eq!(ra.report, rb.report, "{placement} merged report");
        // Lookup conservation: the sum over all shards equals the query
        // stream's total — scatter loses and duplicates nothing.
        assert_eq!(
            ra.report.insts,
            c.shape.lookups_per_query() * c.queries as u64,
            "{placement} lost lookups"
        );
        // Completion never precedes arrival, and every query pays at
        // least the gather base cost after its slowest shard.
        assert!(ra
            .completions
            .iter()
            .zip(&ra.arrivals)
            .all(|(done, arr)| done > arr));
    }
}

/// The tiered geometry used by the serving conformance tests: 16 tables
/// of 128 MB over 4 DRAM channels + 2 SSD units, with the DRAM tier
/// sized to `1/ratio` of the 2.048 GB footprint.
fn tiers_at(ratio: u64) -> recnmp_backend::TierSpec {
    let footprint = 16 * 128_000_000u64;
    recnmp_backend::TierSpec {
        dram_channels: 4,
        dram_channel_capacity: recnmp_types::ByteSize::bytes(footprint / (ratio * 4)),
        ssd_units: 2,
        ssd_unit_capacity: recnmp_types::ByteSize::gib(4),
    }
}

/// The capacity workload: 4-of-16 table sampling under strided Zipf-1.5
/// weights, the same shape `fig_capacity` sweeps.
fn tiered_shape() -> QueryShape {
    QueryShape::new(16, 2, 4)
        .with_table_skew(1.5)
        .with_skew_rotation(5)
        .with_table_sampling(4)
}

fn tiered_cfg(mode: ServingMode) -> ServingConfig {
    ServingConfig {
        process: ArrivalProcess::Poisson,
        qps: 5_000.0,
        queries: 24,
        shape: tiered_shape(),
        mode,
        seed: 0xdead_beef,
    }
}

#[test]
fn tiered_serving_is_byte_identical_and_lookup_conserving() {
    use recnmp_backend::{MigrationCost, PromotionPolicy, TieredPolicy};
    use recnmp_sim::serving::{reference_tiered, EpochPromotion, TieredDispatch};

    let tiers = tiers_at(4);
    let mut promote = TieredDispatch::new(TieredPolicy::Hash, tiers);
    promote.promotion = Some(EpochPromotion {
        epoch_queries: 8,
        policy: PromotionPolicy {
            hysteresis_pct: 20,
            migration: MigrationCost::new(10_000, 1),
        },
    });
    let modes = [
        ServingMode::tiered(TieredPolicy::Hash, tiers),
        ServingMode::tiered(TieredPolicy::FrequencyTiered { replicate_hot: 0 }, tiers),
        ServingMode::Tiered(promote),
    ];
    for mode in modes {
        let c = tiered_cfg(mode);
        let mut a = reference_tiered(tiers);
        let mut b = reference_tiered(tiers);
        let ra = serve(a.as_mut(), &c).unwrap();
        let rb = serve(b.as_mut(), &c).unwrap();
        // Byte-identical reruns for a fixed seed, epoch rebalances and
        // migration stalls included.
        assert_eq!(ra.arrivals, rb.arrivals, "{} arrivals", mode.name());
        assert_eq!(
            ra.completions,
            rb.completions,
            "{} completions",
            mode.name()
        );
        assert_eq!(ra.latencies, rb.latencies, "{} latencies", mode.name());
        assert_eq!(ra.report, rb.report, "{} merged report", mode.name());
        // Lookup conservation across tiers: the DRAM and SSD shards
        // together serve exactly the stream's lookups — spilling a table
        // loses and duplicates nothing.
        assert_eq!(
            ra.report.insts,
            c.shape.lookups_per_query() * c.queries as u64,
            "{} lost lookups",
            mode.name()
        );
        assert!(ra
            .completions
            .iter()
            .zip(&ra.arrivals)
            .all(|(done, arr)| done > arr));
    }
}

#[test]
fn frequency_tiered_sustains_more_than_hash_when_spilled() {
    use recnmp_backend::TieredPolicy;
    use recnmp_sim::serving::reference_tiered;

    // At 2x DRAM footprint half the model must live on SSD. The
    // frequency split keeps the hot head in DRAM, so it sustains a
    // strictly higher probed saturation rate than the frequency-blind
    // hash split on the same hardware and workload.
    let tiers = tiers_at(2);
    let shape = tiered_shape();
    let mut factory = || reference_tiered(tiers);
    let sat = |factory: &mut dyn FnMut() -> Box<dyn SlsBackend>, policy| {
        saturation_qps(
            factory,
            ServingMode::tiered(policy, tiers),
            shape,
            8,
            0xdead_beef,
        )
        .unwrap()
    };
    let hash = sat(&mut factory, TieredPolicy::Hash);
    let freq = sat(
        &mut factory,
        TieredPolicy::FrequencyTiered { replicate_hot: 0 },
    );
    assert!(
        freq > hash,
        "frequency-tiered must sustain more than hash past 1x: {freq} vs {hash}"
    );
}

#[test]
fn pinned_latency_percentiles_for_fixed_seed() {
    // Pins the serving output for one (seed, config) point so an
    // accidental change to the arrival generator, query stream, or
    // scheduler arithmetic fails loudly. Uniform arrivals keep libm out
    // of the schedule. If a deliberate serving change moves these
    // numbers, update them alongside the goldens.
    let c = ServingConfig {
        process: ArrivalProcess::Uniform,
        qps: 1_000_000.0,
        queries: 16,
        shape: QueryShape::new(2, 2, 8),
        mode: ServingMode::Queued(DispatchPolicy::FifoSingleQueue),
        seed: 42,
    };
    let mut host = HostBaseline::new(1, 2).unwrap();
    let r = serve(&mut host, &c).unwrap();
    let s = r.summary();
    let pinned = (s.p50, s.p95, s.p99, s.max);
    let expect = (357u64, 455u64, 455u64, 455u64);
    assert_eq!(pinned, expect, "pinned serving percentiles drifted");
}
