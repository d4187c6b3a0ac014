//! Using the DDR4 substrate directly: issue read streams with different
//! access patterns and observe row-buffer behavior and bandwidth.
//!
//! ```text
//! cargo run --release -p recnmp-sim --example ddr4_timing
//! ```

use recnmp_dram::{DramConfig, MemorySystem};
use recnmp_types::rng::DetRng;
use recnmp_types::PhysAddr;

fn run(label: &str, addrs: &[PhysAddr]) -> Result<(), Box<dyn std::error::Error>> {
    let mut mem = MemorySystem::new(DramConfig::table1_baseline())?;
    mem.attach_monitor();
    // Every read arrives at cycle 0; the run ends at the last finish.
    let mut reads = 0;
    mem.run_stream(addrs.iter().map(|&a| (a, 0)), |_| reads += 1)?;
    let end = mem.cycle();
    let stats = mem.stats();
    println!(
        "{label:<12} {:>6} reads in {:>7} cycles  ({:>5.2} GB/s, row-hit {:>5.1}%, \
         mean latency {:>6.1} cyc, protocol violations: {})",
        reads,
        end,
        stats.bandwidth_gbs(end),
        100.0 * stats.row_hit_rate(),
        stats.mean_latency(),
        mem.monitor_violations().len()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("DDR4-2400, 1 DIMM x 2 ranks, FR-FCFS, open page (Table I)\n");

    // Sequential stream: every access after the first hits the open row.
    let sequential: Vec<PhysAddr> = (0..4096u64).map(|i| PhysAddr::new(i * 64)).collect();
    run("sequential", &sequential)?;

    // Random 64-byte reads: the embedding-gather pattern.
    let mut rng = DetRng::seed(1);
    let random: Vec<PhysAddr> = (0..4096)
        .map(|_| PhysAddr::new(rng.below(8 << 30) & !63))
        .collect();
    run("random", &random)?;

    // Single-bank pounding: every read conflicts in one bank.
    let conflict: Vec<PhysAddr> = (0..1024u64)
        .map(|i| PhysAddr::new(i * 8 * 1024 * 1024))
        .collect();
    run("same-bank", &conflict)?;

    println!(
        "\nSequential streams approach the 19.2 GB/s channel peak; random embedding \
         gathers lose bandwidth to activates — the bottleneck RecNMP's rank-level \
         parallelism attacks."
    );
    Ok(())
}
