//! NMP packets and the packet builder.
//!
//! An NMP kernel (one SLS batch) is compiled into packets of NMP
//! instructions (Figure 10(b)). Each packet carries up to 16 poolings
//! (bounded by the 4-bit PsumTag); the host memory controller configures
//! the PU's accumulation counters from the packet header, streams the
//! instructions, and receives one summed vector per pooling back.

use recnmp_backend::BatchView;
use recnmp_dram::address::{AddressMapping, Geometry};
use recnmp_trace::profile::HotEntryProfile;
use recnmp_types::{ModelId, TableId};
use serde::{Deserialize, Serialize};

use crate::inst::{DdrCmdFlags, NmpInst, NmpOpcode, MAX_POOLINGS_PER_PACKET};

/// One NMP packet: a counter-controlled group of instructions whose
/// partial sums the PU accumulates and returns.
///
/// Beyond the issuing model and target table, a packet holds only what
/// the wire carries: the instructions, each naming its DRAM coordinates
/// and pooling (`psum_tag`), and the header's per-pooling counters. The
/// logical row behind each lookup is not kept; the timing model needs
/// only its DRAM address.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NmpPacket {
    /// Model instance that issued the kernel (for co-location accounting).
    pub model: ModelId,
    /// Embedding table the packet targets.
    pub table: TableId,
    /// The instructions, in issue order.
    pub insts: Vec<NmpInst>,
    /// Pooling sizes, indexed by PsumTag (the header's counter values).
    pub pooling_sizes: Vec<usize>,
}

impl NmpPacket {
    /// Number of poolings in this packet.
    pub fn poolings(&self) -> usize {
        self.pooling_sizes.len()
    }

    /// Total instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the packet carries no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Bytes of embedding data the packet gathers from DRAM.
    pub fn gathered_bytes(&self) -> u64 {
        self.insts.iter().map(NmpInst::vector_bytes).sum()
    }

    /// Bytes returned to the host (one 64-byte-per-burst vector per
    /// pooling; vectors keep the instruction vsize).
    pub fn output_bytes(&self) -> u64 {
        let vsize = self.insts.first().map_or(1, |i| i.vsize) as u64;
        self.poolings() as u64 * vsize * 64
    }

    /// Bytes of instruction traffic on the channel (79 bits rounded to 10
    /// bytes each, plus a 16-byte header/tail).
    pub fn inst_bytes(&self) -> u64 {
        self.len() as u64 * 10 + 16
    }
}

/// Compiles the batches of an SLS trace into NMP packets.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    /// Operation all instructions perform.
    pub opcode: NmpOpcode,
    /// Poolings per packet (1–16; the Figure 14(a) sweep parameter).
    pub poolings_per_packet: usize,
    /// Channel address mapping used to derive DRAM coordinates.
    pub mapping: AddressMapping,
    /// Channel geometry.
    pub geo: Geometry,
}

impl PacketBuilder {
    /// Creates a builder for a channel with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `poolings_per_packet` is 0 or exceeds 16.
    pub fn new(
        opcode: NmpOpcode,
        poolings_per_packet: usize,
        mapping: AddressMapping,
        geo: Geometry,
    ) -> Self {
        assert!(
            (1..=MAX_POOLINGS_PER_PACKET).contains(&poolings_per_packet),
            "poolings_per_packet must be 1..=16"
        );
        Self {
            opcode,
            poolings_per_packet,
            mapping,
            geo,
        }
    }

    /// Compiles one batch of a trace into packets, reading each lookup's
    /// row and translated address from the trace. `profile`, when
    /// present, supplies the hot-entry `LocalityBit` hints; without it
    /// every instruction is marked cacheable (the unprofiled
    /// RecNMP-cache configuration).
    pub fn build(
        &self,
        model: ModelId,
        batch: BatchView<'_>,
        profile: Option<&HotEntryProfile>,
    ) -> Vec<NmpPacket> {
        let mut last_row = Vec::new();
        (batch.chunks(self.poolings_per_packet))
            .map(|chunk| self.packet(model, chunk, profile, &mut last_row))
            .collect()
    }

    /// Compiles one packet: `chunk` holds at most
    /// [`poolings_per_packet`](Self::poolings_per_packet) poolings, and
    /// `last_row` is scratch the caller may reuse across packets.
    pub fn packet(
        &self,
        model: ModelId,
        chunk: BatchView<'_>,
        profile: Option<&HotEntryProfile>,
        last_row: &mut Vec<u32>,
    ) -> NmpPacket {
        let weighted = matches!(
            self.opcode,
            NmpOpcode::WeightedSum
                | NmpOpcode::WeightedMean
                | NmpOpcode::WeightedSum8
                | NmpOpcode::WeightedMean8
        );
        // Track last row per bank to set the embedded DDR command flags
        // the way the host MC would (consecutive-access heuristic; the
        // rank-NMP re-derives actual commands locally). Flat bank-indexed
        // array (`u32::MAX` = untouched), reset per packet — hashing a
        // key per instruction would dominate compile time.
        let banks_per_rank = self.geo.banks_per_rank();
        last_row.clear();
        last_row.resize(self.geo.ranks as usize * banks_per_rank, u32::MAX);
        let mut insts = Vec::with_capacity(chunk.rows().len());
        let mut pooling_sizes = Vec::with_capacity(chunk.batch_size());
        for (tag, pooling) in chunk.poolings().enumerate() {
            pooling_sizes.push(pooling.rows().len());
            for (i, (&row, &phys)) in pooling.rows().iter().zip(pooling.addrs()).enumerate() {
                let daddr = self.mapping.decode(phys, &self.geo);
                let bank_key = daddr.rank as usize * banks_per_rank
                    + daddr.flat_bank(self.geo.banks_per_group);
                let prev = last_row[bank_key];
                last_row[bank_key] = daddr.row;
                let ddr_cmd = if prev == u32::MAX {
                    DdrCmdFlags::row_closed()
                } else if prev == daddr.row {
                    DdrCmdFlags::row_hit()
                } else {
                    DdrCmdFlags::row_conflict()
                };
                let locality = match profile {
                    Some(p) => p.is_hot(u64::from(row)),
                    None => true,
                };
                insts.push(NmpInst {
                    opcode: self.opcode,
                    ddr_cmd,
                    daddr,
                    vsize: chunk.bursts_per_vector(),
                    weight: if weighted { pooling.weight(i) } else { 1.0 },
                    locality,
                    psum_tag: tag as u8,
                });
            }
        }
        NmpPacket {
            model,
            table: chunk.table(),
            insts,
            pooling_sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_backend::SlsTrace;
    use recnmp_trace::{EmbeddingTableSpec, Pooling, SlsBatch};
    use recnmp_types::PhysAddr;

    fn batch(poolings: usize, pooling_len: usize) -> SlsBatch {
        SlsBatch {
            table: TableId::new(3),
            spec: EmbeddingTableSpec::new(1000, 64),
            poolings: (0..poolings)
                .map(|p| {
                    Pooling::unweighted(
                        (0..pooling_len)
                            .map(|i| ((p * pooling_len + i) % 1000) as u64)
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    fn builder(ppp: usize) -> PacketBuilder {
        PacketBuilder::new(
            NmpOpcode::Sum,
            ppp,
            AddressMapping::RowRankBankColumn,
            Geometry::ddr4_8gb_x8(2),
        )
    }

    /// `b` as a one-batch trace, each row at the identity address.
    fn flat(b: &SlsBatch) -> SlsTrace {
        SlsTrace::from_batches(std::slice::from_ref(b), &mut |_, row| {
            PhysAddr::new(row * 64)
        })
    }

    #[test]
    fn packets_chunk_poolings() {
        let b = batch(10, 4);
        let packets = builder(4).build(ModelId::new(0), flat(&b).batch(0), None);
        assert_eq!(packets.len(), 3); // 4 + 4 + 2
        assert_eq!(packets[0].poolings(), 4);
        assert_eq!(packets[2].poolings(), 2);
        assert_eq!(packets[0].len(), 16);
    }

    #[test]
    fn psum_tags_identify_poolings() {
        let b = batch(3, 5);
        let packets = builder(16).build(ModelId::new(0), flat(&b).batch(0), None);
        assert_eq!(packets.len(), 1);
        let tags: Vec<u8> = packets[0].insts.iter().map(|i| i.psum_tag).collect();
        assert_eq!(tags[0..5], [0; 5]);
        assert_eq!(tags[5..10], [1; 5]);
        assert_eq!(tags[10..15], [2; 5]);
    }

    #[test]
    fn locality_defaults_to_cacheable_without_profile() {
        let b = batch(1, 4);
        let packets = builder(8).build(ModelId::new(0), flat(&b).batch(0), None);
        assert!(packets[0].insts.iter().all(|i| i.locality));
    }

    #[test]
    fn profile_sets_locality_bits() {
        use recnmp_trace::HotEntryProfiler;
        let b = batch(1, 4); // rows 0,1,2,3
        let profile = HotEntryProfiler::new().profile(&[0, 0, 2], 0); // hot: {0, 2}
        let packets = builder(8).build(ModelId::new(0), flat(&b).batch(0), Some(&profile));
        let bits: Vec<bool> = packets[0].insts.iter().map(|i| i.locality).collect();
        assert_eq!(bits, [true, false, true, false]);
    }

    #[test]
    fn byte_accounting() {
        let b = batch(2, 4);
        let packets = builder(8).build(ModelId::new(0), flat(&b).batch(0), None);
        let p = &packets[0];
        assert_eq!(p.gathered_bytes(), 8 * 64);
        assert_eq!(p.output_bytes(), 2 * 64);
        assert_eq!(p.inst_bytes(), 8 * 10 + 16);
    }

    #[test]
    fn weighted_opcode_carries_weights() {
        let b = SlsBatch {
            table: TableId::new(0),
            spec: EmbeddingTableSpec::new(10, 64),
            poolings: vec![Pooling::weighted(vec![1, 2], vec![0.5, 2.0])],
        };
        let mut builder = builder(8);
        builder.opcode = NmpOpcode::WeightedSum;
        let packets = builder.build(ModelId::new(0), flat(&b).batch(0), None);
        let w: Vec<f32> = packets[0].insts.iter().map(|i| i.weight).collect();
        assert_eq!(w, [0.5, 2.0]);
    }

    #[test]
    fn repeated_row_in_same_bank_marks_row_hit() {
        let b = SlsBatch {
            table: TableId::new(0),
            spec: EmbeddingTableSpec::new(10, 64),
            poolings: vec![Pooling::unweighted(vec![5, 5])],
        };
        let packets = builder(8).build(ModelId::new(0), flat(&b).batch(0), None);
        assert_eq!(packets[0].insts[0].ddr_cmd, DdrCmdFlags::row_closed());
        assert_eq!(packets[0].insts[1].ddr_cmd, DdrCmdFlags::row_hit());
    }
}
