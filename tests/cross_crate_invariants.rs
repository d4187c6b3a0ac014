//! Cross-crate invariants: the NMP datapath computes exactly what the
//! reference SLS operators compute, across opcodes, packings and weights.

use proptest::prelude::*;
use recnmp::datapath::execute_packet;
use recnmp::packet::PacketBuilder;
use recnmp::{NmpOpcode, SlsTrace};
use recnmp_dram::address::{AddressMapping, Geometry};
use recnmp_model::{EmbeddingTable, QuantizedTable, SlsOp};
use recnmp_trace::{EmbeddingTableSpec, Pooling, SlsBatch};
use recnmp_types::{ModelId, PhysAddr, TableId};

const ROWS: u64 = 256;
const DIMS_SPEC: EmbeddingTableSpec = EmbeddingTableSpec::new(ROWS, 128);

fn opcode_for(op: SlsOp) -> NmpOpcode {
    match op {
        SlsOp::Sum => NmpOpcode::Sum,
        SlsOp::Mean => NmpOpcode::Mean,
        SlsOp::WeightedSum => NmpOpcode::WeightedSum,
        SlsOp::WeightedMean => NmpOpcode::WeightedMean,
    }
}

/// Runs one batch through reference operator and NMP datapath; asserts
/// element-wise closeness (FP32 association differs between the two).
fn check_equivalence(op: SlsOp, batch: &SlsBatch, table: &EmbeddingTable, ranks: usize) {
    let reference = op.execute(table, batch);

    let builder = PacketBuilder::new(
        opcode_for(op),
        16,
        AddressMapping::SkylakeXor,
        Geometry::ddr4_8gb_x8(ranks as u8),
    );
    // Scatter rows across the address space.
    let trace = SlsTrace::from_batches(std::slice::from_ref(batch), &mut |_, row| {
        PhysAddr::new(row * 4096 * 31)
    });
    let packets = builder.build(ModelId::new(0), trace.batch(0), None);

    let mut fetch = |_t: TableId, row: u64| table.row(row).to_vec();
    let mut outputs: Vec<Vec<f32>> = Vec::new();
    for p in &packets {
        outputs.extend(execute_packet(&p.clone(), ranks, &mut fetch));
    }
    assert_eq!(outputs.len(), reference.len());
    for (got, want) in outputs.iter().zip(&reference) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            let tol = 1e-3 * (1.0 + w.abs());
            assert!((g - w).abs() <= tol, "{g} vs {w} ({op:?})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn datapath_matches_reference_unweighted(
        pools in prop::collection::vec(
            prop::collection::vec(0u64..ROWS, 1..24), 1..6),
        ranks in prop_oneof![Just(1usize), Just(2), Just(8)],
        mean in any::<bool>(),
    ) {
        let table = EmbeddingTable::random(DIMS_SPEC, 77);
        let batch = SlsBatch {
            table: TableId::new(0),
            spec: DIMS_SPEC,
            poolings: pools.into_iter().map(Pooling::unweighted).collect(),
        };
        let op = if mean { SlsOp::Mean } else { SlsOp::Sum };
        check_equivalence(op, &batch, &table, ranks);
    }

    #[test]
    fn datapath_matches_reference_weighted(
        pools in prop::collection::vec(
            prop::collection::vec((0u64..ROWS, -2.0f32..2.0), 1..16), 1..5),
        mean in any::<bool>(),
    ) {
        let table = EmbeddingTable::random(DIMS_SPEC, 78);
        let batch = SlsBatch {
            table: TableId::new(0),
            spec: DIMS_SPEC,
            poolings: pools
                .into_iter()
                .map(|p| {
                    let (idx, w): (Vec<u64>, Vec<f32>) = p.into_iter().unzip();
                    Pooling::weighted(idx, w)
                })
                .collect(),
        };
        let op = if mean { SlsOp::WeightedMean } else { SlsOp::WeightedSum };
        check_equivalence(op, &batch, &table, 2);
    }

    #[test]
    fn quantized_reference_tracks_fp32(
        indices in prop::collection::vec(0u64..ROWS, 1..64),
    ) {
        let table = EmbeddingTable::random(DIMS_SPEC, 79);
        let quant = QuantizedTable::quantize(&table);
        let batch = SlsBatch {
            table: TableId::new(0),
            spec: DIMS_SPEC,
            poolings: vec![Pooling::unweighted(indices.clone())],
        };
        let exact = SlsOp::Sum.execute(&table, &batch);
        let approx = SlsOp::Sum.execute_quantized(&quant, &batch);
        for (e, a) in exact[0].iter().zip(&approx[0]) {
            // Row-wise 8-bit quantization error bound: scale/2 per lookup.
            prop_assert!((e - a).abs() <= indices.len() as f32 * 0.01 + 1e-4);
        }
    }
}

#[test]
fn packet_roundtrip_preserves_wire_format() {
    // Instructions surviving pack/unpack still execute identically.
    let table = EmbeddingTable::random(DIMS_SPEC, 80);
    let batch = SlsBatch {
        table: TableId::new(0),
        spec: DIMS_SPEC,
        poolings: vec![Pooling::unweighted(vec![1, 2, 3, 200])],
    };
    let builder = PacketBuilder::new(
        NmpOpcode::Sum,
        8,
        AddressMapping::SkylakeXor,
        Geometry::ddr4_8gb_x8(2),
    );
    let trace = SlsTrace::from_batches(std::slice::from_ref(&batch), &mut |_, row| {
        PhysAddr::new(row * 64 * 131)
    });
    let mut packets = builder.build(ModelId::new(0), trace.batch(0), None);
    let packet = &mut packets[0];
    for inst in &mut packet.insts {
        let wire = inst.pack();
        *inst = recnmp::NmpInst::unpack(wire).expect("round trip");
    }
    let mut fetch = |_t: TableId, row: u64| table.row(row).to_vec();
    let out = execute_packet(packet, 2, &mut fetch);
    let reference = SlsOp::Sum.execute(&table, &batch);
    for (g, w) in out[0].iter().zip(&reference[0]) {
        assert!((g - w).abs() < 1e-3);
    }
}
