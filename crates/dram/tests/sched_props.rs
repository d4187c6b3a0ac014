//! Property-based equivalence of the restructured FR-FCFS scheduler.
//!
//! The per-bank candidate-cache scheduler with event skipping must be
//! *observationally identical* to the per-cycle reference engine — which
//! runs the exact same decision procedure one DRAM clock at a time, with
//! no candidate caches consulted across jumps and no event arithmetic —
//! across randomized traces: arrival jitter, refresh on and off, several
//! rank counts, and tight queue capacities. Identity covers the
//! full completion *vector* (enqueue order, addresses, arrival and finish
//! cycles, row outcomes, and their order), the final clock, every statistics
//! counter, and protocol-monitor cleanliness.

use proptest::prelude::*;
use recnmp_dram::{CompletedRequest, DramConfig, MemorySystem, SimEngine};
use recnmp_types::{Cycle, PhysAddr};

/// Builds a read trace from randomized per-request raw material.
fn trace(raw: &[(u64, u64)], span: u64, gap: u64) -> Vec<(PhysAddr, Cycle)> {
    raw.iter()
        .enumerate()
        .map(|(i, &(addr, jitter))| {
            let addr = PhysAddr::new((addr % span) & !63);
            // Arrivals are non-decreasing with random jitter, so traces
            // mix back-to-back bursts with quiet gaps.
            (addr, i as u64 * gap + jitter)
        })
        .collect()
}

/// Everything identity cares about from one engine run.
type RunFingerprint = (
    Vec<CompletedRequest>,
    u64,
    recnmp_dram::DramStats,
    usize,
    u64,
);

/// Runs `reqs` under one engine and returns everything identity cares
/// about.
fn run(cfg: &DramConfig, engine: SimEngine, reqs: &[(PhysAddr, Cycle)]) -> RunFingerprint {
    let mut cfg = cfg.clone();
    cfg.engine = engine;
    let mut mem = MemorySystem::new(cfg).expect("valid config");
    mem.attach_monitor();
    for &(addr, arrival) in reqs {
        mem.enqueue(addr, arrival);
    }
    let mut done = Vec::new();
    mem.run_stream(std::iter::empty(), |c| done.push(*c))
        .expect("drain");
    (
        done,
        mem.cycle(),
        mem.stats().clone(),
        mem.monitor_violations().len(),
        mem.loop_iterations(),
    )
}

fn assert_engines_agree(cfg: &DramConfig, reqs: &[(PhysAddr, Cycle)]) {
    let (done_pc, cycle_pc, stats_pc, viol_pc, _) = run(cfg, SimEngine::PerCycle, reqs);
    let (done_ev, cycle_ev, stats_ev, viol_ev, _) = run(cfg, SimEngine::EventDriven, reqs);
    assert_eq!(viol_pc, 0, "reference engine broke the DDR protocol");
    assert_eq!(viol_ev, 0, "event engine broke the DDR protocol");
    // Completion-order identity: the vectors (not sets) must match.
    assert_eq!(done_pc, done_ev, "completion records or order diverged");
    assert_eq!(cycle_pc, cycle_ev, "final clock diverged");
    assert_eq!(stats_pc, stats_ev, "statistics diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Dense random reads with jittered arrivals, refresh on/off.
    #[test]
    fn read_traces_are_engine_invariant(
        raw in prop::collection::vec((0u64..u64::MAX, 0u64..8), 1..220),
        refresh in any::<bool>(),
        gap in prop_oneof![Just(0u64), Just(2), Just(37), Just(900)],
    ) {
        let mut cfg = DramConfig::table1_baseline();
        cfg.refresh = refresh;
        assert_engines_agree(&cfg, &trace(&raw, 8 << 30, gap));
    }

    // The rank-NMP device configuration (single rank, identity mapping)
    // under queue back-pressure and a tight starvation bound.
    #[test]
    fn rank_device_traces_are_engine_invariant(
        raw in prop::collection::vec((0u64..u64::MAX, 0u64..4), 1..200),
        read_queue in prop_oneof![Just(4usize), Just(32)],
        starvation in prop_oneof![Just(64u64), Just(2048)],
    ) {
        let mut cfg = DramConfig::single_rank();
        cfg.read_queue = read_queue;
        cfg.starvation_cycles = starvation;
        assert_engines_agree(&cfg, &trace(&raw, 1 << 30, 1));
    }

    // Multi-rank channels: rank-switch bus penalties and per-rank
    // refresh interleave with scheduling.
    #[test]
    fn multi_rank_traces_are_engine_invariant(
        raw in prop::collection::vec((0u64..u64::MAX, 0u64..6), 1..160),
        ranks in prop_oneof![Just((1u8, 2u8)), Just((2, 2)), Just((4, 2))],
    ) {
        let cfg = DramConfig::with_ranks(ranks.0, ranks.1);
        assert_engines_agree(&cfg, &trace(&raw, 8 << 30, 5));
    }
}

/// The event engine must never do *more* scheduling work than the
/// reference on sparse traffic (the whole point of the restructure).
#[test]
fn event_engine_is_cheaper_on_sparse_traffic() {
    let cfg = DramConfig::table1_baseline();
    let reqs: Vec<(PhysAddr, Cycle)> = (0..64u64)
        .map(|i| (PhysAddr::new((i * 7919 * 64) & !63), i * 2500))
        .collect();
    let (.., iters_pc) = run(&cfg, SimEngine::PerCycle, &reqs);
    let (.., iters_ev) = run(&cfg, SimEngine::EventDriven, &reqs);
    assert!(
        iters_ev * 10 <= iters_pc,
        "event engine not >=10x cheaper: {iters_ev} vs {iters_pc}"
    );
}
