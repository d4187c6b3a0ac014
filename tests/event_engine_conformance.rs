//! Backend-level engine conformance: every `SlsBackend` must produce an
//! **identical** `RunReport` — total cycles, DRAM statistics, gathered
//! bytes, everything — whether its memory channels run the event-driven
//! skip-ahead engine or the per-cycle reference engine. This is the
//! system-level complement of the `event_equivalence` suite inside the
//! dram crate.

use recnmp::{RecNmpCluster, RecNmpClusterConfig, RecNmpConfig, RecNmpSystem};
use recnmp_backend::{RunReport, ShardingPolicy, SlsBackend, SlsTrace};
use recnmp_baselines::{DimmLevelNmp, HostBaseline};
use recnmp_dram::{DramConfig, SimEngine};
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
use recnmp_types::{PhysAddr, TableId};

fn workload(tables: u32, batch: usize, pooling: usize) -> SlsTrace {
    let batches: Vec<SlsBatch> = (0..tables)
        .map(|t| {
            TraceGenerator::new(
                TableId::new(t),
                EmbeddingTableSpec::dlrm_default(),
                IndexDistribution::Zipf { s: 0.9 },
                500 + t as u64,
            )
            .batch(batch, pooling)
        })
        .collect();
    SlsTrace::from_batches(&batches, &mut |t, row| {
        PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
    })
}

fn assert_identical(name: &str, per_cycle: &RunReport, event: &RunReport) {
    assert_eq!(
        per_cycle, event,
        "{name}: event-driven report diverged from per-cycle reference"
    );
    assert!(per_cycle.total_cycles > 0, "{name} did no work");
}

/// Both engines, refresh on and off, for one backend constructor.
fn check<B: SlsBackend>(name: &str, mut build: impl FnMut(SimEngine, bool) -> B) {
    for refresh in [true, false] {
        let trace = workload(6, 4, 40);
        let per_cycle = build(SimEngine::PerCycle, refresh).run(&trace);
        let event = build(SimEngine::EventDriven, refresh).run(&trace);
        assert_identical(&format!("{name} (refresh={refresh})"), &per_cycle, &event);
    }
}

/// A 2-DIMM x 2-rank host channel under `engine` and `refresh`.
fn channel(engine: SimEngine, refresh: bool) -> DramConfig {
    let mut cfg = DramConfig::with_ranks(2, 2);
    cfg.engine = engine;
    cfg.refresh = refresh;
    cfg
}

#[test]
fn host_baseline_is_engine_invariant() {
    check("host", |engine, refresh| {
        HostBaseline::with_config(channel(engine, refresh)).expect("host")
    });
}

#[test]
fn tensordimm_is_engine_invariant() {
    check("tensordimm", |engine, refresh| {
        DimmLevelNmp::tensordimm(channel(engine, refresh)).expect("tensordimm")
    });
}

#[test]
fn chameleon_is_engine_invariant() {
    check("chameleon", |engine, refresh| {
        DimmLevelNmp::chameleon(channel(engine, refresh)).expect("chameleon")
    });
}

#[test]
fn recnmp_base_is_engine_invariant() {
    check("recnmp", |engine, refresh| {
        let mut cfg = RecNmpConfig::with_ranks(2, 2);
        cfg.engine = engine;
        cfg.refresh = refresh;
        RecNmpSystem::new(cfg).expect("recnmp")
    });
}

#[test]
fn recnmp_opt_is_engine_invariant() {
    // RankCache + table-aware scheduling on top: cache hit/miss decisions
    // must also be engine-independent.
    check("recnmp-opt", |engine, refresh| {
        let mut cfg = RecNmpConfig::optimized(2, 2);
        cfg.engine = engine;
        cfg.refresh = refresh;
        RecNmpSystem::new(cfg).expect("recnmp-opt")
    });
}

#[test]
fn threaded_cluster_is_engine_invariant_and_deterministic() {
    let build = |engine: SimEngine| {
        let mut config = RecNmpClusterConfig::builder()
            .channels(4)
            .dimms(1)
            .ranks_per_dimm(2)
            .sharding(ShardingPolicy::RoundRobin)
            .build()
            .expect("cluster config");
        config.channel.engine = engine;
        RecNmpCluster::new(config).expect("cluster")
    };
    let trace = workload(8, 4, 40);
    let per_cycle = build(SimEngine::PerCycle).run(&trace);
    let event = build(SimEngine::EventDriven).run(&trace);
    assert_identical("cluster", &per_cycle, &event);
    // Thread scheduling must never leak into the merged report: repeat
    // runs on fresh clusters are bit-identical.
    let again = build(SimEngine::EventDriven).run(&trace);
    assert_eq!(event, again, "threaded cluster run is nondeterministic");
}
