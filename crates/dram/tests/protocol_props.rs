//! Property-based tests: the FR-FCFS controller never violates DDR timing,
//! never loses requests, and respects basic latency bounds, under random
//! request streams and random (valid) configurations.

use proptest::prelude::*;
use recnmp_dram::{AddressMapping, CompletedRequest, DramConfig, MemorySystem};
use recnmp_types::{Cycle, PhysAddr};

/// Streams reads of the bursts at `addrs`, the `i`-th arriving at
/// `arrival(i)`, and collects every completion in order.
fn run(
    mem: &mut MemorySystem,
    addrs: &[u64],
    arrival: impl Fn(u64) -> Cycle,
) -> Vec<CompletedRequest> {
    let reads = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (PhysAddr::new(a & !63), arrival(i as u64)));
    let mut done = Vec::new();
    mem.run_stream(reads, |c| done.push(*c)).expect("drain");
    done
}

fn arb_config() -> impl Strategy<Value = DramConfig> {
    (
        prop_oneof![Just(1u8), Just(2u8), Just(4u8)],
        prop_oneof![Just(1u8), Just(2u8)],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(dimms, ranks, refresh, skylake)| {
            let mut cfg = DramConfig::with_ranks(dimms, ranks);
            cfg.refresh = refresh;
            cfg.mapping = if skylake {
                AddressMapping::SkylakeXor
            } else {
                AddressMapping::RowRankBankColumn
            };
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_streams_obey_protocol(
        cfg in arb_config(),
        addrs in prop::collection::vec(0u64..(1 << 33), 1..120),
        gap in 0u64..12,
    ) {
        let mut mem = MemorySystem::new(cfg).expect("valid config");
        mem.attach_monitor();
        let done = run(&mut mem, &addrs, |i| i * gap);
        // Every request completes exactly once.
        prop_assert_eq!(done.len(), addrs.len());
        // The independent protocol monitor saw no timing violations.
        prop_assert!(
            mem.monitor_violations().is_empty(),
            "violations: {:?}",
            mem.monitor_violations()
        );
        // No read can complete faster than tCL + tBL.
        let t = mem.config().timing;
        for c in &done {
            prop_assert!(c.latency() >= t.t_cl + t.t_bl);
        }
    }

    #[test]
    fn same_address_twice_completes_twice(
        addr in 0u64..(1 << 30),
    ) {
        let mut mem = MemorySystem::new(DramConfig::single_rank()).unwrap();
        let done = run(&mut mem, &[addr, addr], |_| 0);
        prop_assert_eq!(done.len(), 2);
        // Second access is a row hit.
        prop_assert_eq!(done[1].outcome, recnmp_dram::request::RowOutcome::Hit);
    }

    #[test]
    fn stats_consistency(
        addrs in prop::collection::vec(0u64..(1 << 32), 1..80),
    ) {
        let mut cfg = DramConfig::table1_baseline();
        cfg.refresh = false;
        let mut mem = MemorySystem::new(cfg).unwrap();
        let done = run(&mut mem, &addrs, |_| 0);
        let s = mem.stats();
        prop_assert_eq!(s.reads, done.len() as u64);
        prop_assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, s.reads);
        // Every non-hit request triggers at least one ACT; thrashing (an
        // older conflicting request closing the row before the column
        // command issues) can add more.
        prop_assert!(s.acts >= s.row_misses + s.row_conflicts);
        prop_assert_eq!(s.data_bus_busy, 4 * s.reads);
    }

    #[test]
    fn completion_order_matches_data_bus_order(
        addrs in prop::collection::vec(0u64..(1 << 28), 2..60),
    ) {
        let mut mem = MemorySystem::new(DramConfig::single_rank()).unwrap();
        let done = run(&mut mem, &addrs, |_| 0);
        // Data bursts on one channel cannot overlap: finish cycles must be
        // pairwise distinct and separated by at least tBL.
        let mut finishes: Vec<u64> = done.iter().map(|c| c.finish_cycle).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            prop_assert!(w[1] >= w[0] + 4, "bursts overlap: {w:?}");
        }
    }
}
