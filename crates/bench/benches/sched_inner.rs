//! Micro-benchmark for the FR-FCFS scheduler inner loop.
//!
//! Times `MemorySystem::run_stream` with a no-op completion callback, as
//! the baselines and rank-NMP devices run it — the `issue_request_command`
//! / event-skip loop — on the traffic shapes that dominate simulator
//! wall-clock: the rank-NMP device pattern (single rank, staggered
//! 2-per-cycle arrivals, Zipf-ish bank spread), the same device as
//! `RankNmp::process` drives it packet by packet (a few two-burst vectors
//! per call, so the per-call set-up and drain count), a conflict-heavy stream
//! that maximizes PRE/ACT churn, the host-baseline channel (4 ranks, a
//! whole batch arriving at once), where the scan's per-rank column and
//! ACT gates do most of the work, and the host baseline serving one
//! input of perfbench's `replay` workload. This is the kernel the
//! `sim_throughput` trajectory rides on; regressions here show up
//! directly in `BENCH_throughput.json`.
//!
//! Besides time per call, each shape prints the DRAM loop iterations and
//! commands one call costs and the time per loop iteration, in ns and in
//! calibration-kernel steps.

use recnmp_backend::SlsBackend;
use recnmp_baselines::HostBaseline;
use recnmp_bench::{bench, replay_trace};
use recnmp_dram::{DramAddr, DramConfig, MemorySystem};
use recnmp_types::rng::DetRng;
use recnmp_types::PhysAddr;

/// Streams `reqs` strided reads, `per_cycle` arriving each cycle, and
/// runs them to idle; returns the loop iterations and commands it cost.
fn run_pattern(
    mem: &mut MemorySystem,
    salt: u64,
    reqs: usize,
    stride: u64,
    per_cycle: u64,
) -> (u64, u64) {
    let base = mem.cycle();
    let (iters, cmds) = (mem.loop_iterations(), mem.stats().cmd_bus_busy);
    let reads = (0..reqs).map(|i| {
        let i = i as u64;
        (
            PhysAddr::new(((i * stride + salt * 7919) * 128) & ((1 << 30) - 1)),
            base + i / per_cycle,
        )
    });
    mem.run_stream(reads, |_| {}).expect("drain");
    (
        mem.loop_iterations() - iters,
        mem.stats().cmd_bus_busy - cmds,
    )
}

/// One rank-NMP packet: 8 two-burst vectors at random device
/// coordinates, 2 cycles apart, enqueued decoded and run to idle; returns
/// the loop iterations and commands it cost.
fn run_packet(mem: &mut MemorySystem, rng: &mut DetRng) -> (u64, u64) {
    let geo = *mem.geometry();
    let start = mem.cycle();
    let (iters, cmds) = (mem.loop_iterations(), mem.stats().cmd_bus_busy);
    for v in 0..8u64 {
        let base = DramAddr {
            rank: 0,
            bank_group: rng.below(u64::from(geo.bank_groups)) as u8,
            bank: rng.below(u64::from(geo.banks_per_group)) as u8,
            row: rng.below(1024) as u32,
            column: rng.below(u64::from(geo.columns / 2)) as u32 * 2,
        };
        for b in 0..2 {
            let addr = DramAddr {
                column: base.column + b,
                ..base
            };
            mem.enqueue_decoded(addr, start + 2 * v);
        }
    }
    mem.run_stream(std::iter::empty(), |_| {}).expect("drain");
    (
        mem.loop_iterations() - iters,
        mem.stats().cmd_bus_busy - cmds,
    )
}

/// Benches one DRAM shape; `f` makes one call and returns the loop
/// iterations and commands it cost.
fn bench_dram(name: &str, mut f: impl FnMut() -> (u64, u64)) {
    let (mut calls, mut iters, mut cmds) = (0u64, 0u64, 0u64);
    let summary = bench(name, || {
        let (i, c) = f();
        calls += 1;
        iters += i;
        cmds += c;
    });
    let per_call = |n: u64| n as f64 / calls as f64;
    let loops = per_call(iters);
    println!(
        "  {loops:.0} loop iterations and {:.0} commands per call: {:.1} ns and \
         {:.0} xorshift steps per loop iteration",
        per_call(cmds),
        summary.median_us * 1e3 / loops,
        summary.median_steps / loops,
    );
}

fn main() {
    let mut mem = MemorySystem::new(DramConfig::single_rank()).expect("config");
    let mut salt = 0u64;
    bench_dram("sched_inner/rank_device_mixed", || {
        salt += 1;
        run_pattern(&mut mem, salt, 512, 131, 2)
    });

    // The rank-NMP device as perfbench `fleet-faults` runs it: one short
    // call per packet, refresh on.
    let mut mem = MemorySystem::new(DramConfig::single_rank()).expect("config");
    let mut rng = DetRng::seed(5);
    bench_dram("sched_inner/rank_device_packets", || {
        run_packet(&mut mem, &mut rng)
    });

    let mut cfg = DramConfig::single_rank();
    cfg.refresh = false;
    let mut mem = MemorySystem::new(cfg).expect("config");
    let mut salt = 0u64;
    bench_dram("sched_inner/conflict_storm", || {
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
    bench_dram("sched_inner/host_channel_burst", || {
        salt += 1;
        run_pattern(&mut mem, salt, 512, 131, 512)
    });

    // The host baseline as perfbench `replay` runs it: input 0 at seed 7
    // (163,840 lookups, about a million loop iterations per call).
    let trace = replay_trace(7);
    let mut host = HostBaseline::new(2, 2).expect("config");
    bench_dram("sched_inner/host_replay", || {
        let iters = host.dram_loop_iterations();
        let report = host.try_run(&trace).expect("host replay");
        (
            host.dram_loop_iterations() - iters,
            report.dram.cmd_bus_busy,
        )
    });
}
