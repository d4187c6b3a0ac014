//! Conformance of every `SlsBackend` implementation: the same physical
//! trace through all four systems (host, TensorDIMM, Chameleon, RecNMP)
//! plus the multi-channel cluster, asserting the shared-work invariants
//! the Figure 16 methodology depends on — identical lookup counts and
//! identical gathered bytes — and the per-run (delta) report contract.

use recnmp::cluster::{RecNmpCluster, RecNmpClusterConfig};
use recnmp::{RecNmpConfig, RecNmpSystem, ShardingPolicy, SlsBackend, SlsTrace};
use recnmp_baselines::{DimmLevelNmp, HostBaseline};
use recnmp_sim::speedup::SpeedupEngine;
use recnmp_sim::workload::TraceKind;

fn quiet(mut cfg: RecNmpConfig) -> RecNmpConfig {
    cfg.refresh = false;
    cfg
}

/// Builds the four single-channel backends at one geometry, the
/// baselines on `cfg`'s matched host channel (matched comparisons share
/// DRAM settings).
fn backends(cfg: &RecNmpConfig) -> Vec<Box<dyn SlsBackend>> {
    let channel = cfg.host_dram_config();
    vec![
        Box::new(HostBaseline::with_config(channel.clone()).expect("host")),
        Box::new(DimmLevelNmp::tensordimm(channel.clone()).expect("tensordimm")),
        Box::new(DimmLevelNmp::chameleon(channel).expect("chameleon")),
        Box::new(RecNmpSystem::new(cfg.clone()).expect("recnmp")),
    ]
}

#[test]
fn all_backends_serve_identical_work() {
    let engine = SpeedupEngine::with_workload(TraceKind::Production, 4, 1, 16, 0xbac);
    let cfg = quiet(RecNmpConfig::optimized(2, 2));
    let trace = engine.trace_for(&cfg);
    let lookups = trace.total_lookups();
    let bytes = lookups * trace.vector_bytes();

    for backend in backends(&cfg).iter_mut() {
        let report = backend.run(&trace);
        assert_eq!(report.insts, lookups, "{} dropped lookups", backend.name());
        assert_eq!(
            report.gathered_bytes,
            bytes,
            "{} gathered the wrong bytes",
            backend.name()
        );
        assert_eq!(report.system, backend.name());
        assert!(report.total_cycles > 0, "{} did no work", backend.name());
    }
}

#[test]
fn every_backend_reports_per_run_deltas() {
    // The unified contract: run the same trace twice on one backend and
    // both reports must describe one run each — no cumulative leakage
    // (the seed's NmpRunReport mixed per-run cycles with lifetime
    // packet/instruction counts).
    let engine = SpeedupEngine::with_workload(TraceKind::Production, 4, 1, 8, 0xdd);
    let cfg = quiet(RecNmpConfig::optimized(1, 2));
    let trace = engine.trace_for(&cfg);
    let lookups = trace.total_lookups();

    for backend in backends(&cfg).iter_mut() {
        let first = backend.run(&trace);
        let second = backend.run(&trace);
        assert_eq!(first.insts, lookups, "{} first run", backend.name());
        assert_eq!(second.insts, lookups, "{} second run", backend.name());
        assert_eq!(
            first.packets,
            second.packets,
            "{} accumulated packets",
            backend.name()
        );
        assert_eq!(
            first.packet_latencies.len(),
            second.packet_latencies.len(),
            "{} accumulated latencies",
            backend.name()
        );
        assert!(
            second.dram.reads <= first.dram.reads,
            "{} leaked DRAM reads across runs ({} then {})",
            backend.name(),
            first.dram.reads,
            second.dram.reads
        );
    }
}

#[test]
fn cluster_matches_single_channel_work_and_scales() {
    // The fig14-style multi-table workload: 8 production tables. A
    // 4-channel cluster must serve exactly the same work as one channel
    // and cut total cycles by at least 3x (near-linear scaling: channels
    // are independent hardware and hash-by-table balances 8 tables over
    // 4 channels two apiece).
    let engine = SpeedupEngine::with_workload(TraceKind::Production, 8, 1, 32, 0x14c);
    let cfg = quiet(RecNmpConfig::with_ranks(4, 2));
    let trace = engine.trace_for(&cfg);
    let lookups = trace.total_lookups();

    let run_cluster = |channels: usize| {
        let mut cluster =
            RecNmpCluster::new(RecNmpClusterConfig::new(channels, cfg.clone())).expect("cluster");
        let report = cluster.run(&trace);
        // The cluster honors the same name/label invariant as the
        // single-channel backends.
        assert_eq!(report.system, cluster.name());
        report
    };

    let one = run_cluster(1);
    let four = run_cluster(4);
    assert_eq!(one.insts, lookups);
    assert_eq!(four.insts, lookups);
    assert_eq!(one.gathered_bytes, four.gathered_bytes);
    // One channel of the cluster == a bare RecNmpSystem on the same trace.
    let mut single = RecNmpSystem::new(cfg.clone()).expect("system");
    let bare = single.run(&trace);
    assert_eq!(one.total_cycles, bare.total_cycles);
    assert_eq!(one.dram_bursts, bare.dram_bursts);

    let scaling = one.total_cycles as f64 / four.total_cycles as f64;
    assert!(
        scaling >= 3.0,
        "1->4 channels scaled only {scaling:.2}x ({} -> {} cycles)",
        one.total_cycles,
        four.total_cycles
    );
}

#[test]
fn sharding_policies_conserve_lookups() {
    let engine = SpeedupEngine::with_workload(TraceKind::Random, 6, 2, 8, 0x5d);
    let cfg = quiet(RecNmpConfig::with_ranks(1, 2));
    let trace = engine.trace_for(&cfg);

    for policy in [ShardingPolicy::HashByTable, ShardingPolicy::RoundRobin] {
        let shards = trace.shard(4, policy);
        assert_eq!(
            shards.iter().map(SlsTrace::total_lookups).sum::<u64>(),
            trace.total_lookups(),
            "{policy:?} lost lookups"
        );
        let mut config = RecNmpClusterConfig::new(4, cfg.clone());
        config.sharding = policy;
        let mut cluster = RecNmpCluster::new(config).expect("cluster");
        let report = cluster.run(&trace);
        assert_eq!(report.insts, trace.total_lookups(), "{policy:?}");
    }
}
