//! Property-based tests for the placement subsystem's invariants:
//!
//! * every profiled table is placed on at least one channel;
//! * per-channel capacity bounds hold whenever a build succeeds;
//! * replica sets are sorted lists of distinct, in-range channels;
//! * plan-driven sharding conserves lookups (the sum over shards equals
//!   the trace total) and respects the replica sets.

use proptest::prelude::*;
use recnmp_backend::{PlacementPlan, PlacementPolicy, SlsTrace, TableUsage};
use recnmp_trace::{EmbeddingTableSpec, Pooling, SlsBatch};
use recnmp_types::{PhysAddr, TableId};

/// A random usage set: table `i` with the given bytes/accesses.
fn usage_strategy() -> impl Strategy<Value = Vec<TableUsage>> {
    prop::collection::vec((1u64..200, 0u64..1000), 1..12).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (bytes, accesses))| TableUsage::new(TableId::new(i as u32), bytes, accesses))
            .collect()
    })
}

fn policy_strategy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::Hash),
        Just(PlacementPolicy::CapacityGreedy),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 0 }),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 1 }),
        Just(PlacementPolicy::FrequencyBalanced { replicate: 3 }),
    ]
}

/// A trace over `tables` tables with the given per-table pooling sizes.
fn trace_for(poolings: &[usize]) -> SlsTrace {
    let spec = EmbeddingTableSpec::new(10_000, 128);
    let batches: Vec<SlsBatch> = poolings
        .iter()
        .enumerate()
        .map(|(t, &len)| SlsBatch {
            table: TableId::new(t as u32),
            spec,
            poolings: vec![Pooling::new(
                (0..len as u64)
                    .map(|i| (i * 37 + t as u64) % 10_000)
                    .collect(),
            )],
        })
        .collect();
    SlsTrace::from_batches(&batches, &mut |t, row| {
        PhysAddr::new(((t as u64) << 30) ^ (row * 128))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_table_is_placed_and_replicas_are_sane(
        usage in usage_strategy(),
        channels in 1usize..6,
        policy in policy_strategy(),
    ) {
        let plan = PlacementPlan::build(channels, None, &usage, policy).unwrap();
        prop_assert_eq!(plan.tables(), usage.len());
        for u in &usage {
            let reps = plan.replicas(u.table);
            // Placed on at least one channel.
            prop_assert!(!reps.is_empty(), "table {} unplaced", u.table);
            // Replica channels are sorted, distinct and in range.
            prop_assert!(reps.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(reps.iter().all(|&c| c < channels));
        }
    }

    #[test]
    fn capacity_bound_holds_when_build_succeeds(
        usage in usage_strategy(),
        channels in 1usize..6,
        policy in policy_strategy(),
        capacity in 50u64..2000,
    ) {
        if let Ok(plan) = PlacementPlan::build(channels, Some(capacity), &usage, policy) {
            for c in 0..channels {
                prop_assert!(
                    plan.bytes_on(c) <= capacity,
                    "channel {} holds {} > capacity {}",
                    c,
                    plan.bytes_on(c),
                    capacity
                );
            }
            // The per-channel accounting matches the replica sets.
            let mut expect = vec![0u64; channels];
            for u in &usage {
                for &c in plan.replicas(u.table) {
                    expect[c] += u.bytes;
                }
            }
            for (c, &bytes) in expect.iter().enumerate() {
                prop_assert_eq!(plan.bytes_on(c), bytes);
            }
        }
    }

    #[test]
    fn plan_sharding_conserves_lookups(
        poolings in prop::collection::vec(1usize..40, 1..10),
        channels in 1usize..5,
        policy in policy_strategy(),
    ) {
        let trace = trace_for(&poolings);
        let usage = TableUsage::from_trace(&trace);
        let plan = PlacementPlan::build(channels, None, &usage, policy).unwrap();
        let shards = trace.shard_with_plan(&plan);
        prop_assert_eq!(shards.len(), channels);
        // Conservation: the sum over shards equals the query total, and
        // batch counts add up (nothing is dropped or duplicated).
        let total: u64 = shards.iter().map(SlsTrace::total_lookups).sum();
        prop_assert_eq!(total, trace.total_lookups());
        let batches: usize = shards.iter().map(SlsTrace::len).sum();
        prop_assert_eq!(batches, trace.len());
        // Every batch landed on a replica of its table.
        for (c, shard) in shards.iter().enumerate() {
            for b in shard.batches() {
                prop_assert!(plan.replicas(b.table()).contains(&c));
            }
        }
    }

    #[test]
    fn load_accounting_conserves_accesses(
        usage in usage_strategy(),
        channels in 1usize..6,
        policy in policy_strategy(),
    ) {
        let plan = PlacementPlan::build(channels, None, &usage, policy).unwrap();
        let placed: f64 = (0..channels).map(|c| plan.load_on(c)).sum();
        let offered: u64 = usage.iter().map(|u| u.accesses).sum();
        prop_assert!((placed - offered as f64).abs() < 1e-6);
    }
}
