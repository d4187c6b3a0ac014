//! Integration: the full pipeline from trace generation through packets,
//! the RecNMP system and the baselines, spanning every crate.

use recnmp::RecNmpConfig;
use recnmp_sim::speedup::SpeedupEngine;
use recnmp_sim::workload::{SlsWorkload, TraceKind};

fn quiet(mut cfg: RecNmpConfig) -> RecNmpConfig {
    cfg.refresh = false;
    cfg
}

#[test]
fn full_pipeline_conservation() {
    // Every lookup generated must appear exactly once as an instruction,
    // and every system must serve the same number of vectors.
    let engine = SpeedupEngine::with_workload(TraceKind::Production, 4, 1, 16, 99);
    let lookups = engine.workload().total_lookups() as u64;
    let cfg = quiet(RecNmpConfig::optimized(2, 2));

    let host = engine.run_host(&cfg).expect("host run");
    assert_eq!(host.insts, lookups);

    let nmp = engine.run_nmp(&cfg).expect("nmp run");
    assert_eq!(nmp.insts, lookups);
    assert_eq!(nmp.rank_insts.iter().sum::<u64>(), lookups);
    // Cache hits + DRAM fetches cover every 64-byte line: the RankCache is
    // probed once per burst of each vector, and every missing or bypassed
    // line is fetched from DRAM exactly once.
    let vsize = 2; // 128-byte DLRM vectors
    assert_eq!(nmp.dram_bursts, nmp.cache.misses + nmp.cache.bypasses);
    assert_eq!(nmp.cache.lookups() + nmp.cache.bypasses, lookups * vsize);

    let td = engine.run_tensordimm(&cfg).expect("tensordimm run");
    assert_eq!(td.insts, lookups);
    let ch = engine.run_chameleon(&cfg).expect("chameleon run");
    assert_eq!(ch.insts, lookups);
}

#[test]
fn speedup_hierarchy_matches_paper_ordering() {
    // RecNMP-opt > TensorDIMM > Chameleon > host, on production traces
    // with a 4 DIMM x 2 rank channel (Figure 16's ordering).
    let engine = SpeedupEngine::with_workload(TraceKind::Production, 8, 2, 32, 7);
    let cfg = quiet(RecNmpConfig::optimized(4, 2));
    let host = engine.run_host(&cfg).expect("host").cycles_per_lookup();
    let nmp = engine.run_nmp(&cfg).expect("nmp").cycles_per_lookup();
    let td = engine
        .run_tensordimm(&cfg)
        .expect("tensordimm")
        .cycles_per_lookup();
    let ch = engine
        .run_chameleon(&cfg)
        .expect("chameleon")
        .cycles_per_lookup();
    assert!(nmp < td, "RecNMP {nmp:.2} vs TensorDIMM {td:.2}");
    assert!(td < ch, "TensorDIMM {td:.2} vs Chameleon {ch:.2}");
    assert!(ch < host, "Chameleon {ch:.2} vs host {host:.2}");
}

#[test]
fn rank_scaling_is_monotonic() {
    let engine = SpeedupEngine::with_workload(TraceKind::Production, 8, 1, 16, 21);
    let mut prev = f64::INFINITY;
    for (dimms, ranks) in [(1u8, 2u8), (2, 2), (4, 2)] {
        let cpl = engine
            .run_nmp(&quiet(RecNmpConfig::with_ranks(dimms, ranks)))
            .expect("nmp")
            .cycles_per_lookup();
        assert!(
            cpl < prev,
            "{dimms}x{ranks} did not improve: {cpl:.3} vs {prev:.3}"
        );
        prev = cpl;
    }
}

#[test]
fn workload_is_deterministic_across_engines() {
    let a = SlsWorkload::build(TraceKind::Production, 4, 1, 8, 80, 1234);
    let b = SlsWorkload::build(TraceKind::Production, 4, 1, 8, 80, 1234);
    assert_eq!(a.batches.len(), b.batches.len());
    for (x, y) in a.batches.iter().zip(&b.batches) {
        assert_eq!(x.flat_indices(), y.flat_indices());
    }
    let cfg = quiet(RecNmpConfig::with_ranks(1, 2));
    let ra = SpeedupEngine::new(a, 1).run_nmp(&cfg).expect("run a");
    let rb = SpeedupEngine::new(b, 1).run_nmp(&cfg).expect("run b");
    assert_eq!(ra.total_cycles, rb.total_cycles);
    assert_eq!(ra.dram_bursts, rb.dram_bursts);
}
