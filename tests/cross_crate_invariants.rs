//! Cross-crate invariants: compiled NMP packets carry exactly the
//! trace's lookups — each pooling's DRAM addresses and weights, no more
//! and no fewer — whatever the packing, rank count, weighting, hot-entry
//! profile or packet order, and every compiled instruction survives the
//! 79-bit wire format unchanged.

use std::collections::BTreeMap;

use proptest::prelude::*;
use recnmp::packet::PacketBuilder;
use recnmp::{compile_trace, NmpOpcode, NmpPacket, RecNmpConfig, SlsTrace};
use recnmp_dram::address::{AddressMapping, DramAddr};
use recnmp_trace::{EmbeddingTableSpec, HotEntryProfiler, Pooling, SlsBatch};
use recnmp_types::{ModelId, PhysAddr, TableId};

const ROWS: u64 = 256;
const SPEC: EmbeddingTableSpec = EmbeddingTableSpec::new(ROWS, 128);

/// One lookup as the timing model sees it: DRAM coordinates and the
/// weight's bit pattern.
type Lookup = ((u8, u8, u8, u32, u32), u32);

/// Per table, every pooling's lookups. Each pooling and each table's
/// list of poolings is sorted, so packet order and the order within a
/// pooling do not matter.
type Poolings = BTreeMap<TableId, Vec<Vec<Lookup>>>;

fn lookup(d: DramAddr, weight: f32) -> Lookup {
    (
        (d.rank, d.bank_group, d.bank, d.row, d.column),
        weight.to_bits(),
    )
}

fn sorted(mut by_table: Poolings) -> Poolings {
    for poolings in by_table.values_mut() {
        poolings.iter_mut().for_each(|p| p.sort_unstable());
        poolings.sort_unstable();
    }
    by_table
}

/// The poolings the trace asks for, with every weight 1.0 unless
/// `weighted`.
fn trace_poolings(trace: &SlsTrace, config: &RecNmpConfig, weighted: bool) -> Poolings {
    let (mapping, geo) = (AddressMapping::SkylakeXor, config.geometry());
    let mut by_table = Poolings::new();
    for batch in trace.batches() {
        for pooling in batch.poolings() {
            let lookups = (pooling.addrs().iter().enumerate())
                .map(|(i, &phys)| {
                    let weight = if weighted { pooling.weight(i) } else { 1.0 };
                    lookup(mapping.decode(phys, &geo), weight)
                })
                .collect();
            by_table.entry(batch.table()).or_default().push(lookups);
        }
    }
    sorted(by_table)
}

/// The poolings the packets carry, read through each instruction's
/// `psum_tag` and the header's `pooling_sizes`.
fn packet_poolings(packets: &[NmpPacket]) -> Poolings {
    let mut by_table = Poolings::new();
    for p in packets {
        let mut poolings = vec![Vec::new(); p.poolings()];
        for inst in &p.insts {
            let tag = usize::from(inst.psum_tag);
            assert!(tag < p.poolings(), "psum_tag {tag} past the header");
            poolings[tag].push(lookup(inst.daddr, inst.weight));
        }
        let sizes: Vec<usize> = poolings.iter().map(Vec::len).collect();
        assert_eq!(sizes, p.pooling_sizes, "header counters disagree");
        by_table.entry(p.table).or_default().extend(poolings);
    }
    sorted(by_table)
}

/// One batch as drawn: its table and its poolings of `(row, weight)`.
type RawBatch = (u32, Vec<Vec<(u64, f32)>>);

/// A trace of `batches`, with rows scattered across the channel's
/// address space.
fn trace(batches: Vec<RawBatch>, weighted: bool) -> SlsTrace {
    let batches: Vec<SlsBatch> = (batches.into_iter())
        .map(|(table, pools)| SlsBatch {
            table: TableId::new(table),
            spec: SPEC,
            poolings: (pools.into_iter())
                .map(|p| {
                    let (rows, weights): (Vec<u64>, Vec<f32>) = p.into_iter().unzip();
                    if weighted {
                        Pooling::weighted(rows, weights)
                    } else {
                        Pooling::unweighted(rows)
                    }
                })
                .collect(),
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
    let lookup = (0u64..ROWS, -2.0f32..2.0);
    let pooling = prop::collection::vec(lookup, 1..24);
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
        weighted in any::<bool>(),
        profiled in any::<bool>(),
    ) {
        let trace = trace(batches, weighted);
        let config = config(ranks, ppp, false);
        let builder = PacketBuilder::new(
            NmpOpcode::WeightedSum,
            ppp,
            AddressMapping::SkylakeXor,
            config.geometry(),
        );
        let mut packets = Vec::new();
        for batch in trace.batches() {
            let profile = profiled.then(|| HotEntryProfiler::new().profile(batch.rows(), 1));
            packets.extend(builder.build(ModelId::new(0), batch, profile.as_ref()));
        }
        prop_assert_eq!(
            packet_poolings(&packets),
            trace_poolings(&trace, &config, weighted)
        );
    }

    #[test]
    fn compiled_trace_conserves_lookups(
        batches in batches(),
        ranks in prop_oneof![Just(1u8), Just(2), Just(8)],
        ppp in 1usize..17,
        weighted in any::<bool>(),
        profiled in any::<bool>(),
    ) {
        let trace = trace(batches, weighted);
        let config = config(ranks, ppp, profiled);
        let packets = compile_trace(
            &config,
            config.geometry(),
            AddressMapping::SkylakeXor,
            &trace,
        );
        // `compile_trace` issues `Sum`: every weight reads 1.0.
        prop_assert_eq!(
            packet_poolings(&packets),
            trace_poolings(&trace, &config, false)
        );
    }
}

#[test]
fn packet_roundtrip_preserves_wire_format() {
    let pools = vec![vec![(1, 0.5), (2, -1.25), (1, 2.0), (200, 0.0)]];
    let trace = trace(vec![(0, pools)], true);
    let config = config(2, 8, false);
    let builder = PacketBuilder::new(
        NmpOpcode::WeightedSum,
        8,
        AddressMapping::SkylakeXor,
        config.geometry(),
    );
    // Row 1 is the one hot entry, so both LocalityBit values go out.
    let profile = HotEntryProfiler::new().profile(trace.batch(0).rows(), 1);
    let packets = builder.build(ModelId::new(0), trace.batch(0), Some(&profile));
    let bits: Vec<bool> = packets[0].insts.iter().map(|i| i.locality).collect();
    assert_eq!(bits, [true, false, true, false]);
    for inst in packets.iter().flat_map(|p| &p.insts) {
        assert_eq!(recnmp::NmpInst::unpack(inst.pack()), Ok(*inst));
    }
}
