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
use recnmp_types::TableId;
use serde::{Deserialize, Serialize};

use crate::inst::{NmpInst, MAX_POOLINGS_PER_PACKET};

/// One NMP packet: a counter-controlled group of instructions whose
/// partial sums the PU accumulates and returns.
///
/// Beyond the target table, a packet holds the instructions and the
/// header's per-pooling counters. Instructions are grouped by pooling in
/// header order: the first `pooling_sizes[0]` accumulate into pooling 0,
/// the next `pooling_sizes[1]` into pooling 1, and so on, which is the
/// pooling the wire format's PsumTag names. The logical row behind each
/// lookup is not kept; the timing model needs only its DRAM address.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NmpPacket {
    /// Embedding table the packet targets.
    pub table: TableId,
    /// The instructions, in issue order.
    pub insts: Vec<NmpInst>,
    /// Pooling sizes in pooling order (the header's counter values).
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

    /// Bytes of instruction traffic on the channel: the paper's 79-bit
    /// NMP-Inst (Figure 8(d)) rounded to 10 bytes each, plus a 16-byte
    /// header/tail.
    pub fn inst_bytes(&self) -> u64 {
        self.len() as u64 * 10 + 16
    }
}

/// Compiles the batches of an SLS trace into NMP packets.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
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
    pub fn new(poolings_per_packet: usize, mapping: AddressMapping, geo: Geometry) -> Self {
        assert!(
            (1..=MAX_POOLINGS_PER_PACKET).contains(&poolings_per_packet),
            "poolings_per_packet must be 1..=16"
        );
        Self {
            poolings_per_packet,
            mapping,
            geo,
        }
    }

    /// Compiles one batch of a trace into packets, reading each lookup's
    /// row and translated address from the trace. `profile`, when
    /// present, supplies the hot-entry `LocalityBit` hints; without it
    /// every instruction is marked cacheable (the unprofiled
    /// RecNMP-cache configuration, and the bits of any profile that marks
    /// every row of the batch hot).
    pub fn build(&self, batch: BatchView<'_>, profile: Option<&HotEntryProfile>) -> Vec<NmpPacket> {
        (batch.chunks(self.poolings_per_packet))
            .map(|chunk| self.packet(chunk, profile))
            .collect()
    }

    /// Compiles one packet: `chunk` holds at most
    /// [`poolings_per_packet`](Self::poolings_per_packet) poolings.
    pub fn packet(&self, chunk: BatchView<'_>, profile: Option<&HotEntryProfile>) -> NmpPacket {
        let vsize = chunk.bursts_per_vector();
        let insts = (chunk.rows().iter().zip(chunk.addrs()))
            .map(|(&row, &phys)| NmpInst {
                daddr: self.mapping.decode(phys, &self.geo),
                vsize,
                locality: profile.is_none_or(|p| p.is_hot(u64::from(row))),
            })
            .collect();
        NmpPacket {
            table: chunk.table(),
            insts,
            pooling_sizes: chunk.poolings().map(|p| p.rows().len()).collect(),
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
                    Pooling::new(
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
        let packets = builder(4).build(flat(&b).batch(0), None);
        assert_eq!(packets.len(), 3); // 4 + 4 + 2
        assert_eq!(packets[0].poolings(), 4);
        assert_eq!(packets[2].poolings(), 2);
        assert_eq!(packets[0].len(), 16);
    }

    #[test]
    fn pooling_sizes_count_each_poolings_instructions() {
        let b = batch(3, 5);
        let packets = builder(16).build(flat(&b).batch(0), None);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].pooling_sizes, [5, 5, 5]);
        assert_eq!(packets[0].len(), 15);
    }

    #[test]
    fn locality_defaults_to_cacheable_without_profile() {
        let b = batch(1, 4);
        let packets = builder(8).build(flat(&b).batch(0), None);
        assert!(packets[0].insts.iter().all(|i| i.locality));
    }

    #[test]
    fn profile_sets_locality_bits() {
        use recnmp_trace::HotEntryProfiler;
        let b = batch(1, 4); // rows 0,1,2,3
        let profile = HotEntryProfiler::new().profile(&[0, 0, 2], 0); // hot: {0, 2}
        let packets = builder(8).build(flat(&b).batch(0), Some(&profile));
        let bits: Vec<bool> = packets[0].insts.iter().map(|i| i.locality).collect();
        assert_eq!(bits, [true, false, true, false]);
    }

    #[test]
    fn byte_accounting() {
        let b = batch(2, 4);
        let packets = builder(8).build(flat(&b).batch(0), None);
        let p = &packets[0];
        assert_eq!(p.gathered_bytes(), 8 * 64);
        assert_eq!(p.output_bytes(), 2 * 64);
        assert_eq!(p.inst_bytes(), 8 * 10 + 16);
    }
}
