//! Cross-crate invariants: compiled NMP packets carry exactly the
//! trace's lookups — each pooling's DRAM addresses, no more and no fewer
//! — whatever the packing, rank count, hot-entry profile or packet order,
//! and each lookup's `LocalityBit` is the one the threshold sweep picks.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use recnmp::inst::NmpInst;
use recnmp::packet::PacketBuilder;
use recnmp::{compile_trace, NmpPacket, RecNmpConfig, SlsTrace};
use recnmp_dram::address::{AddressMapping, DramAddr};
use recnmp_trace::{EmbeddingTableSpec, HotEntryProfiler, Pooling, SlsBatch};
use recnmp_types::{PhysAddr, TableId};

const ROWS: u64 = 256;
const SPEC: EmbeddingTableSpec = EmbeddingTableSpec::new(ROWS, 128);

/// One lookup as the timing model sees it: its DRAM coordinates.
type Lookup = (u8, u8, u8, u32, u32);

/// Per table, every pooling's lookups (or lookups with their
/// `LocalityBit`s). Each pooling and each table's list of poolings is
/// sorted, so packet order and the order within a pooling do not matter.
type Poolings<L = Lookup> = BTreeMap<TableId, Vec<Vec<L>>>;

fn lookup(d: DramAddr) -> Lookup {
    (d.rank, d.bank_group, d.bank, d.row, d.column)
}

fn sorted<L: Ord>(mut by_table: Poolings<L>) -> Poolings<L> {
    for poolings in by_table.values_mut() {
        poolings.iter_mut().for_each(|p| p.sort_unstable());
        poolings.sort_unstable();
    }
    by_table
}

/// The poolings the trace asks for.
fn trace_poolings(trace: &SlsTrace, config: &RecNmpConfig) -> Poolings {
    let (mapping, geo) = (AddressMapping::SkylakeXor, config.geometry());
    let mut by_table = Poolings::new();
    for batch in trace.batches() {
        for pooling in batch.poolings() {
            let lookups = (pooling.addrs().iter())
                .map(|&phys| lookup(mapping.decode(phys, &geo)))
                .collect();
            by_table.entry(batch.table()).or_default().push(lookups);
        }
    }
    sorted(by_table)
}

/// The poolings the packets carry, each instruction seen through `key`:
/// the header's `pooling_sizes`, in order, split each packet's
/// instructions into its poolings.
fn packet_poolings<L: Ord>(packets: &[NmpPacket], key: impl Fn(&NmpInst) -> L) -> Poolings<L> {
    let mut by_table = Poolings::new();
    for p in packets {
        let counted: usize = p.pooling_sizes.iter().sum();
        assert_eq!(counted, p.insts.len(), "header counters disagree");
        let mut rest = &p.insts[..];
        for &size in &p.pooling_sizes {
            let (pooling, tail) = rest.split_at(size);
            rest = tail;
            let lookups = pooling.iter().map(&key).collect();
            by_table.entry(p.table).or_default().push(lookups);
        }
    }
    sorted(by_table)
}

/// One batch as drawn: its table and its poolings of rows.
type RawBatch = (u32, Vec<Vec<u64>>);

/// A trace of `batches`, with rows scattered across the channel's
/// address space.
fn trace(batches: Vec<RawBatch>) -> SlsTrace {
    let batches: Vec<SlsBatch> = (batches.into_iter())
        .map(|(table, pools)| SlsBatch {
            table: TableId::new(table),
            spec: SPEC,
            poolings: pools.into_iter().map(Pooling::new).collect(),
        })
        .collect();
    SlsTrace::from_batches(&batches, &mut |t, row| {
        PhysAddr::new(((t as u64) << 28) ^ (row * 4096 * 31))
    })
}

/// A channel of `ranks` ranks packing `ppp` poolings per packet;
/// `profiled` selects RecNMP-opt (RankCache, hot-entry profiling and
/// table-aware scheduling) over RecNMP-base.
fn config(ranks: u8, ppp: usize, profiled: bool) -> RecNmpConfig {
    let (dimms, per_dimm) = (ranks.div_ceil(2), ranks.min(2));
    let mut config = if profiled {
        RecNmpConfig::optimized(dimms, per_dimm)
    } else {
        RecNmpConfig::with_ranks(dimms, per_dimm)
    };
    config.poolings_per_packet = ppp;
    config
}

fn batches() -> impl Strategy<Value = Vec<RawBatch>> {
    let pooling = prop::collection::vec(0u64..ROWS, 1..24);
    // Table ids may repeat: two batches can target one table.
    let batch = (0u32..3, prop::collection::vec(pooling, 1..20));
    prop::collection::vec(batch, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packet_builder_conserves_lookups(
        batches in batches(),
        ranks in prop_oneof![Just(1u8), Just(2), Just(8)],
        ppp in 1usize..17,
        profiled in any::<bool>(),
    ) {
        let trace = trace(batches);
        let config = config(ranks, ppp, false);
        let builder = PacketBuilder::new(ppp, AddressMapping::SkylakeXor, config.geometry());
        let mut packets = Vec::new();
        for batch in trace.batches() {
            let profile = profiled.then(|| HotEntryProfiler::new().profile(batch.rows(), 1));
            packets.extend(builder.build(batch, profile.as_ref()));
        }
        prop_assert_eq!(
            packet_poolings(&packets, |i| lookup(i.daddr)),
            trace_poolings(&trace, &config)
        );
    }

    #[test]
    fn compiled_trace_conserves_lookups(
        batches in batches(),
        ranks in prop_oneof![Just(1u8), Just(2), Just(8)],
        ppp in 1usize..17,
        profiled in any::<bool>(),
    ) {
        let trace = trace(batches);
        let config = config(ranks, ppp, profiled);
        let packets = compile_trace(
            &config,
            config.geometry(),
            AddressMapping::SkylakeXor,
            &trace,
        );
        prop_assert_eq!(
            packet_poolings(&packets, |i| lookup(i.daddr)),
            trace_poolings(&trace, &config)
        );
    }
}

/// Which path the profiler takes on a batch of `rows` for a cache of
/// `lines` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Regime {
    /// No more lookups than lines: no profile, not even counted.
    Unprofiled,
    /// Every distinct row fits: each level is scored in closed form.
    ClosedForm,
    /// The leading levels overflow the cache: the stack-distance pass.
    StackDistance,
}

fn regime(rows: &[u32], lines: usize) -> Regime {
    if rows.len() <= lines {
        Regime::Unprofiled
    } else if rows.iter().collect::<BTreeSet<_>>().len() <= lines {
        Regime::ClosedForm
    } else {
        Regime::StackDistance
    }
}

/// Compiling under profiling gives every lookup the `LocalityBit` of the
/// full threshold sweep over its batch, whichever path the optimizer
/// takes: no profile, closed-form levels or the stack-distance pass. The
/// sweep itself is checked against an LRU replay in `recnmp-trace`.
#[test]
fn locality_bits_match_the_reference_sweep() {
    // Rows skewed toward 0 (`P(row <= k) = sqrt((k + 1) / 256)`) and
    // folded into a per-batch span, so batches range from a few rows
    // reused heavily to many rows used once.
    let row = (0u64..1 << 16).prop_map(|x| (x * x) >> 24);
    let pooling = prop::collection::vec(row, 1..24);
    let batch = (0u32..3, 1..ROWS + 1, prop::collection::vec(pooling, 1..12));
    let batches = prop::collection::vec(batch, 1..4);
    let lines = prop_oneof![Just(4usize), Just(8), Just(16), Just(64)];
    let ppp = 1usize..17;
    let mut regimes = BTreeMap::new();
    let mut filtered = 0;
    for case in 0..256 {
        let mut rng = proptest::TestRng::new(case);
        let raw: Vec<RawBatch> = (batches.generate(&mut rng).into_iter())
            .map(|(table, span, pools)| {
                let fold = |p: Vec<u64>| p.into_iter().map(|r| r % span).collect();
                (table, pools.into_iter().map(fold).collect())
            })
            .collect();
        let (lines, ppp) = (lines.generate(&mut rng), ppp.generate(&mut rng));
        let trace = trace(raw);
        let mut config = config(2, ppp, true);
        config
            .rank_cache
            .as_mut()
            .expect("RecNMP-opt has a RankCache")
            .capacity_bytes = lines as u64 * 64;
        let packets = compile_trace(
            &config,
            config.geometry(),
            AddressMapping::SkylakeXor,
            &trace,
        );
        let (mapping, geo) = (AddressMapping::SkylakeXor, config.geometry());
        let mut want = Poolings::new();
        for batch in trace.batches() {
            *regimes.entry(regime(batch.rows(), lines)).or_insert(0) += 1;
            let profile = HotEntryProfiler::new().sweep(batch.rows(), lines, 4);
            filtered += usize::from(profile.threshold > 0);
            for pooling in batch.poolings() {
                let hinted = (pooling.addrs().iter().zip(pooling.rows()))
                    .map(|(&phys, &row)| {
                        let hot = profile.is_hot(u64::from(row));
                        (lookup(mapping.decode(phys, &geo)), hot)
                    })
                    .collect();
                want.entry(batch.table()).or_default().push(hinted);
            }
        }
        let got = packet_poolings(&packets, |i| (lookup(i.daddr), i.locality));
        assert_eq!(got, sorted(want), "case {case}");
    }
    assert_eq!(regimes.len(), 3, "regimes reached: {regimes:?}");
    assert!(filtered > 0, "no batch filtered a row");
}
