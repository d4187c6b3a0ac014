//! Flat-trace equivalence: an [`SlsTrace`] stored as columns must read
//! back exactly like the nested batches it was built from.
//!
//! Random nested batches (mixed pooling lengths, empty poolings, repeated
//! tables) are kept in the test as a nested reference. The trace's batch and pooling views, `flat_addrs`,
//! `total_lookups`, `tables`, both sharding policies, plan sharding,
//! packet chunking and in-place lookup filtering must all match what the
//! reference computes from its own nesting.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use recnmp_backend::{PlacementPlan, PlacementPolicy, ShardingPolicy, SlsTrace, TableUsage};
use recnmp_trace::{EmbeddingTableSpec, Pooling, SlsBatch};
use recnmp_types::{PhysAddr, TableId};

const SPEC: EmbeddingTableSpec = EmbeddingTableSpec::new(1 << 20, 128);

/// One reference pooling: rows (as the trace stores them) and their
/// addresses.
type RefPooling = (Vec<u32>, Vec<PhysAddr>);

/// One reference batch: its table and its poolings.
type RefBatch = (TableId, Vec<RefPooling>);

fn translate(t: usize, row: u64) -> PhysAddr {
    PhysAddr::new(((t as u64) << 32) ^ (row * 128))
}

/// Random nested batches: up to 8 batches over 5 tables (so tables
/// repeat), each of up to 5 poolings of 0–9 rows.
fn batches_strategy() -> impl Strategy<Value = Vec<SlsBatch>> {
    let pooling = prop::collection::vec(0u64..(1 << 20), 0..10).prop_map(Pooling::new);
    let batch =
        (0u32..5, prop::collection::vec(pooling, 0..5)).prop_map(|(t, poolings)| SlsBatch {
            table: TableId::new(t),
            spec: SPEC,
            poolings,
        });
    prop::collection::vec(batch, 0..8)
}

fn reference(batches: &[SlsBatch]) -> Vec<RefBatch> {
    batches
        .iter()
        .map(|b| {
            let poolings = b.poolings.iter().map(|p| {
                let addrs = p.indices.iter().map(|&r| translate(b.table.index(), r));
                let rows = p.indices.iter().map(|&r| u32::try_from(r).unwrap());
                (rows.collect(), addrs.collect())
            });
            (b.table, poolings.collect())
        })
        .collect()
}

fn build(batches: &[SlsBatch]) -> SlsTrace {
    SlsTrace::from_batches(batches, &mut translate)
}

/// Asserts that every view of `trace` reads back `want`.
fn assert_reads_back(trace: &SlsTrace, want: &[RefBatch]) {
    prop_assert_eq!(trace.len(), want.len());
    prop_assert_eq!(trace.is_empty(), want.is_empty());
    let lookups: usize = want.iter().flat_map(|b| &b.1).map(|p| p.0.len()).sum();
    prop_assert_eq!(trace.total_lookups(), lookups as u64);
    let flat: Vec<PhysAddr> = want
        .iter()
        .flat_map(|b| &b.1)
        .flat_map(|p| p.1.clone())
        .collect();
    prop_assert_eq!(trace.flat_addrs().collect::<Vec<_>>(), flat);
    let tables: BTreeSet<TableId> = want.iter().map(|b| b.0).collect();
    prop_assert_eq!(trace.tables(), tables.len());
    prop_assert_eq!(trace.batches().len(), want.len());
    for (view, (table, poolings)) in trace.batches().zip(want) {
        prop_assert_eq!(view.table(), *table);
        prop_assert_eq!(view.spec(), SPEC);
        prop_assert_eq!(view.bursts_per_vector(), 2);
        prop_assert_eq!(view.batch_size(), poolings.len());
        prop_assert_eq!(view.output_bytes(), poolings.len() as u64 * 128);
        let rows: Vec<u32> = poolings.iter().flat_map(|p| p.0.clone()).collect();
        prop_assert_eq!(view.rows(), &rows[..]);
        prop_assert_eq!(view.lookups(), rows.len() as u64);
        prop_assert_eq!(view.poolings().len(), poolings.len());
        for (p, (rows, addrs)) in view.poolings().zip(poolings) {
            prop_assert_eq!(p.rows(), &rows[..]);
            prop_assert_eq!(p.addrs(), &addrs[..]);
        }
        // Packet chunks partition the poolings in order.
        for n in 1..4 {
            let chunks: Vec<_> = view.chunks(n).collect();
            prop_assert_eq!(chunks.len(), poolings.len().div_ceil(n));
            prop_assert!(chunks.iter().all(|c| (1..=n).contains(&c.batch_size())));
            let rejoined: Vec<&[u32]> = chunks
                .iter()
                .flat_map(|c| c.poolings().map(|p| p.rows()))
                .collect();
            let expect: Vec<&[u32]> = poolings.iter().map(|p| &p.0[..]).collect();
            prop_assert_eq!(rejoined, expect);
        }
    }
}

/// Splits the reference batch by batch: batch `i` goes to `channel(i)`.
fn ref_shards(
    want: &[RefBatch],
    channels: usize,
    channel: impl Fn(usize, TableId) -> usize,
) -> Vec<Vec<RefBatch>> {
    let mut shards = vec![Vec::new(); channels];
    for (i, b) in want.iter().enumerate() {
        shards[channel(i, b.0)].push(b.clone());
    }
    shards
}

/// The entries of `v` at indices `i`.
fn pick<T: Copy>(v: &[T], i: &[usize]) -> Vec<T> {
    i.iter().map(|&i| v[i]).collect()
}

/// Per-table usage computed from the reference's nesting.
fn ref_usage(want: &[RefBatch]) -> Vec<TableUsage> {
    let mut map: BTreeMap<TableId, u64> = BTreeMap::new();
    for (table, poolings) in want {
        *map.entry(*table).or_default() += poolings.iter().map(|p| p.0.len() as u64).sum::<u64>();
    }
    (map.into_iter())
        .map(|(t, accesses)| TableUsage::new(t, SPEC.bytes(), accesses))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn views_read_back_the_nested_batches(batches in batches_strategy()) {
        assert_reads_back(&build(&batches), &reference(&batches));
    }

    #[test]
    fn shards_match_the_nested_split(batches in batches_strategy(), channels in 1usize..5) {
        let trace = build(&batches);
        let want = reference(&batches);
        let usage = ref_usage(&want);
        prop_assert_eq!(&TableUsage::from_trace(&trace), &usage);

        let rr = trace.shard(channels, ShardingPolicy::RoundRobin);
        prop_assert_eq!(rr.len(), channels);
        for (shard, expect) in rr.iter().zip(ref_shards(&want, channels, |i, _| i % channels)) {
            assert_reads_back(shard, &expect);
        }

        let by_table = trace.shard(channels, ShardingPolicy::HashByTable);
        let expect = ref_shards(&want, channels, |_, t| t.index() % channels);
        prop_assert_eq!(by_table.len(), channels);
        for (shard, expect) in by_table.iter().zip(expect) {
            assert_reads_back(shard, &expect);
        }

        let policy = PlacementPolicy::FrequencyBalanced { replicate: 1 };
        let plan = PlacementPlan::build(channels, None, &usage, policy).unwrap();
        let planned = trace.shard_with_plan(&plan);
        let expect = ref_shards(&want, channels, |i, t| plan.channel_for(t, i).unwrap());
        prop_assert_eq!(planned.len(), channels);
        for (shard, expect) in planned.iter().zip(expect) {
            assert_reads_back(shard, &expect);
        }
    }

    #[test]
    fn retain_matches_nested_filtering(batches in batches_strategy(), salt in 0u64..5) {
        let keep = |addr: PhysAddr| !(addr.get() / 128 + salt).is_multiple_of(3);
        let mut trace = build(&batches);
        let mut asked = Vec::new();
        trace.retain_lookups(|table, spec, addr| {
            asked.push((table, spec.vector_bytes, addr));
            keep(addr)
        });
        let want = reference(&batches);
        // Asked once per lookup, in trace order.
        let every: Vec<_> = (want.iter())
            .flat_map(|(t, ps)| ps.iter().flat_map(move |p| p.1.iter().map(move |&a| (*t, 128, a))))
            .collect();
        prop_assert_eq!(asked, every);
        // Kept lookups stay; emptied poolings and batches leave.
        let filtered: Vec<RefBatch> = want
            .into_iter()
            .filter_map(|(table, poolings)| {
                let kept: Vec<RefPooling> = poolings
                    .into_iter()
                    .filter_map(|(rows, addrs)| {
                        let i: Vec<usize> = (0..rows.len()).filter(|&i| keep(addrs[i])).collect();
                        (!i.is_empty()).then(|| (pick(&rows, &i), pick(&addrs, &i)))
                    })
                    .collect();
                (!kept.is_empty()).then_some((table, kept))
            })
            .collect();
        assert_reads_back(&trace, &filtered);
        if filtered.is_empty() {
            prop_assert_eq!(trace, SlsTrace::default());
        }
    }
}
