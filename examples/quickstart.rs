//! Quickstart: run one SLS workload through the unified `SlsBackend` API —
//! host DRAM baseline, RecNMP-opt, and a 4-channel RecNMP cluster — and
//! compare cycles per lookup, energy, and cluster scaling.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use recnmp::cluster::{RecNmpCluster, RecNmpClusterConfig};
use recnmp::{RecNmpConfig, RecNmpSystem, SlsBackend};
use recnmp_baselines::HostBaseline;
use recnmp_sim::speedup::SpeedupEngine;
use recnmp_sim::workload::TraceKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A production-like SLS workload: 8 embedding tables, two windows of
    // 32 poolings x 80 lookups each (the paper's pooling factor).
    let engine = SpeedupEngine::with_workload(TraceKind::Production, 8, 2, 32, 42);
    println!(
        "workload: {} embedding lookups across 8 tables",
        engine.workload().total_lookups()
    );

    // The paper's largest channel: 4 DIMMs x 2 ranks, fully optimized
    // (128 KiB RankCache, table-aware scheduling, hot-entry profiling).
    // Every system serves the *same* physical trace through the one
    // `SlsBackend` entry point.
    let config = RecNmpConfig::optimized(4, 2);
    let trace = engine.trace_for(&config);

    let mut host = HostBaseline::with_config(config.host_dram_config())?;
    let mut nmp = RecNmpSystem::new(config.clone())?;
    let comparison = engine.compare_backends(&mut host, &mut nmp, &trace);

    println!(
        "host DRAM baseline : {:.2} cycles/lookup",
        comparison.baseline_cpl()
    );
    println!(
        "RecNMP-opt (8-rank): {:.2} cycles/lookup",
        comparison.nmp_cpl()
    );
    println!(
        "memory latency speedup: {:.2}x (paper: up to 9.8x)",
        comparison.speedup()
    );
    println!(
        "RankCache hit rate: {:.1}%",
        100.0 * comparison.nmp.cache.effective_hit_rate()
    );

    // Energy: the host ships every embedding byte across the DIMM pins;
    // RecNMP returns only pooled sums.
    let dram_params = recnmp_dram::EnergyParams::table1();
    let nmp_params = recnmp::energy::NmpEnergyParams::table1();
    let host_e = recnmp::energy::host_energy(&comparison.baseline.dram, &dram_params);
    let nmp_e = recnmp::energy::nmp_energy(&comparison.nmp, &dram_params, &nmp_params);
    println!(
        "memory energy: host {:.1} uJ vs RecNMP {:.1} uJ ({:.1}% saving; paper: 45.8%)",
        host_e.total_nj() / 1000.0,
        nmp_e.total_nj() / 1000.0,
        100.0 * recnmp::energy::energy_saving(&host_e, &nmp_e)
    );

    // Beyond the paper: fan the same workload across a 4-channel RecNMP
    // cluster (hash-by-table sharding) and watch wall-clock drop.
    let cluster_config = RecNmpClusterConfig::builder()
        .channels(4)
        .dimms(4)
        .ranks_per_dimm(2)
        .optimized(true)
        .build()?;
    let mut cluster = RecNmpCluster::new(cluster_config)?;
    let fanned = cluster.run(&trace);
    let single = comparison.nmp.total_cycles;
    println!(
        "cluster scaling: 1 channel {} cycles -> 4 channels {} cycles ({:.2}x)",
        single,
        fanned.total_cycles,
        single as f64 / fanned.total_cycles as f64
    );
    Ok(())
}
