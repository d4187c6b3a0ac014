//! Functional execution of NMP packets — the arithmetic the rank-NMP
//! pipeline and DIMM-NMP adder tree perform, used to verify the hardware
//! path against the reference SLS operators.
//!
//! The accumulation order matches the hardware: each rank accumulates its
//! own partial sums in delivery order, then the DIMM adder tree reduces
//! rank partial sums, then packets' `DIMM.Sum`s combine. FP32 addition is
//! not associative, so results can differ from the reference operator in
//! the last bits; equivalence tests use tolerances.

use recnmp_types::TableId;

use crate::inst::NmpOpcode;
use crate::packet::NmpPacket;

/// Executes a packet's arithmetic.
///
/// `fetch` returns the (dequantized, for 8-bit opcodes) FP32 embedding
/// vector for a (table, row) pair. Returns one output vector per pooling
/// (PsumTag order).
///
/// # Panics
///
/// Panics if the packet's origins are missing or vectors have
/// inconsistent dimensions.
pub fn execute_packet(
    packet: &NmpPacket,
    total_ranks: usize,
    fetch: &mut dyn FnMut(TableId, u64) -> Vec<f32>,
) -> Vec<Vec<f32>> {
    assert_eq!(
        packet.origins.len(),
        packet.insts.len(),
        "packet lacks provenance for functional execution"
    );
    let poolings = packet.poolings();
    if packet.is_empty() {
        return vec![Vec::new(); poolings];
    }
    let dims = packet.insts[0].vsize as usize * 16;

    // Per-rank, per-tag partial sums (the PSum register file).
    let mut psums: Vec<Vec<Vec<f32>>> = vec![vec![vec![0.0; dims]; poolings]; total_ranks];
    for (inst, origin) in packet.insts.iter().zip(&packet.origins) {
        let rank = inst.daddr.rank as usize % total_ranks;
        let vec = fetch(origin.table, u64::from(origin.row));
        assert_eq!(vec.len(), dims, "fetched vector has wrong dimension");
        let acc = &mut psums[rank][inst.psum_tag as usize];
        for (a, v) in acc.iter_mut().zip(&vec) {
            *a += inst.weight * v;
        }
    }

    // DIMM/channel adder tree: reduce rank partial sums pairwise.
    let mut outputs = vec![vec![0.0f32; dims]; poolings];
    for tag in 0..poolings {
        let mut level: Vec<Vec<f32>> = psums.iter().map(|r| r[tag].clone()).collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(pair[0].iter().zip(&pair[1]).map(|(a, b)| a + b).collect());
                } else {
                    next.push(pair[0].clone());
                }
            }
            level = next;
        }
        outputs[tag] = level.pop().expect("at least one rank");
    }

    // Mean variants divide by the pooling size at the end.
    let averaged = matches!(
        packet.insts[0].opcode,
        NmpOpcode::Mean | NmpOpcode::WeightedMean | NmpOpcode::WeightedMean8
    );
    if averaged {
        for (out, &n) in outputs.iter_mut().zip(&packet.pooling_sizes) {
            if n > 0 {
                for v in out.iter_mut() {
                    *v /= n as f32;
                }
            }
        }
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::NmpInst;
    use crate::packet::InstOrigin;
    use recnmp_dram::DramAddr;
    use recnmp_types::ModelId;

    /// Each row r fetches the vector [r, r, ..., r].
    fn fetch(_t: TableId, row: u64) -> Vec<f32> {
        vec![row as f32; 16]
    }

    fn packet(op: NmpOpcode, entries: &[(u8 /*rank*/, u32 /*row*/, u8 /*tag*/, f32)]) -> NmpPacket {
        let max_tag = entries.iter().map(|e| e.2).max().unwrap_or(0) as usize;
        let mut pooling_sizes = vec![0usize; max_tag + 1];
        for e in entries {
            pooling_sizes[e.2 as usize] += 1;
        }
        NmpPacket {
            model: ModelId::new(0),
            table: TableId::new(0),
            insts: entries
                .iter()
                .map(|&(rank, row, tag, weight)| NmpInst {
                    opcode: op,
                    ddr_cmd: crate::inst::DdrCmdFlags::row_closed(),
                    daddr: DramAddr {
                        rank,
                        bank_group: 0,
                        bank: 0,
                        row,
                        column: 0,
                    },
                    vsize: 1,
                    weight,
                    locality: false,
                    psum_tag: tag,
                })
                .collect(),
            origins: entries
                .iter()
                .map(|&(_, row, _, _)| InstOrigin {
                    table: TableId::new(0),
                    row,
                })
                .collect(),
            pooling_sizes,
        }
    }

    #[test]
    fn sum_across_ranks() {
        let p = packet(
            NmpOpcode::Sum,
            &[(0, 1, 0, 1.0), (1, 2, 0, 1.0), (0, 3, 0, 1.0)],
        );
        let out = execute_packet(&p, 2, &mut fetch);
        assert_eq!(out[0], vec![6.0; 16]);
    }

    #[test]
    fn tags_separate_poolings() {
        let p = packet(NmpOpcode::Sum, &[(0, 1, 0, 1.0), (0, 2, 1, 1.0)]);
        let out = execute_packet(&p, 2, &mut fetch);
        assert_eq!(out[0], vec![1.0; 16]);
        assert_eq!(out[1], vec![2.0; 16]);
    }

    #[test]
    fn weighted_sum_scales() {
        let p = packet(NmpOpcode::WeightedSum, &[(0, 2, 0, 0.5), (1, 4, 0, 2.0)]);
        let out = execute_packet(&p, 2, &mut fetch);
        assert_eq!(out[0], vec![9.0; 16]);
    }

    #[test]
    fn mean_divides_by_count() {
        let p = packet(NmpOpcode::Mean, &[(0, 3, 0, 1.0), (1, 5, 0, 1.0)]);
        let out = execute_packet(&p, 2, &mut fetch);
        assert_eq!(out[0], vec![4.0; 16]);
    }

    #[test]
    fn empty_packet_yields_empty_outputs() {
        let p = packet(NmpOpcode::Sum, &[]);
        let out = execute_packet(&p, 2, &mut fetch);
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "provenance")]
    fn missing_origins_panic() {
        let mut p = packet(NmpOpcode::Sum, &[(0, 1, 0, 1.0)]);
        p.origins.clear();
        execute_packet(&p, 2, &mut fetch);
    }
}
