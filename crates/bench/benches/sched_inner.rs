//! Micro-benchmark for the FR-FCFS scheduler inner loop.
//!
//! Times `MemorySystem::run_stream` with a no-op completion callback, as
//! the baselines and rank-NMP devices run it — the `issue_request_command`
//! / event-skip loop — on the traffic shapes that dominate simulator
//! wall-clock: the rank-NMP device pattern (single rank, staggered
//! 2-per-cycle arrivals, Zipf-ish bank spread), a conflict-heavy stream
//! that maximizes PRE/ACT churn, and the host-baseline channel (4 ranks,
//! a whole batch arriving at once), where the scan's per-rank column and
//! ACT gates do most of the work. This is the kernel the
//! `sim_throughput` trajectory rides on; regressions here show up
//! directly in `BENCH_throughput.json`.

use recnmp_bench::bench;
use recnmp_dram::{DramConfig, MemorySystem};
use recnmp_types::PhysAddr;

/// Streams `reqs` strided reads, `per_cycle` arriving each cycle, and
/// runs them to idle; returns the last finish cycle, where the run ends.
fn run_pattern(mem: &mut MemorySystem, salt: u64, reqs: usize, stride: u64, per_cycle: u64) -> u64 {
    let base = mem.cycle();
    let reads = (0..reqs).map(|i| {
        let i = i as u64;
        (
            PhysAddr::new(((i * stride + salt * 7919) * 128) & ((1 << 30) - 1)),
            base + i / per_cycle,
        )
    });
    mem.run_stream(reads, |_| {}).expect("drain");
    mem.cycle()
}

fn main() {
    let mut mem = MemorySystem::new(DramConfig::single_rank()).expect("config");
    let mut salt = 0u64;
    bench("sched_inner/rank_device_mixed", || {
        salt += 1;
        run_pattern(&mut mem, salt, 512, 131, 2)
    });

    let mut cfg = DramConfig::single_rank();
    cfg.refresh = false;
    let mut mem = MemorySystem::new(cfg).expect("config");
    let mut salt = 0u64;
    bench("sched_inner/conflict_storm", || {
        salt += 1;
        // Stride chosen to pound few banks with alternating rows: every
        // read needs PRE + ACT + RD.
        run_pattern(&mut mem, salt, 512, 2048 + 16, 2)
    });

    // The host-baseline channel shape: 2 DIMMs x 2 ranks with the whole
    // batch arriving in one cycle, so the read queue stays full and every
    // scan weighs candidates across four ranks.
    let mut mem = MemorySystem::new(DramConfig::with_ranks(2, 2)).expect("config");
    let mut salt = 0u64;
    bench("sched_inner/host_channel_burst", || {
        salt += 1;
        run_pattern(&mut mem, salt, 512, 131, 512)
    });
}
