//! The compressed 79-bit NMP instruction (Figure 8(d)).
//!
//! Field layout, least-significant first when packed into a `u128`:
//!
//! | field       | bits | contents                                        |
//! |-------------|------|-------------------------------------------------|
//! | opcode      | 4    | which SLS-family operation the PU performs      |
//! | ddr_cmd     | 3    | presence of {ACT, RD, PRE} for this vector      |
//! | daddr       | 32   | packed rank/BG/BA/row/column coordinates        |
//! | vsize       | 3    | vector size in 64-byte bursts, minus one        |
//! | weight      | 32   | FP32 weight (1.0 for unweighted ops)            |
//! | locality    | 1    | `LocalityBit` RankCache hint                    |
//! | psum_tag    | 4    | which pooling this vector accumulates into      |
//!
//! Total: 79 bits, fitting the standard 84-pin C/A+DQ interface as the
//! paper requires.

use recnmp_dram::DramAddr;
use serde::{Deserialize, Serialize};

use std::error::Error;
use std::fmt;

/// Total bits of a packed NMP instruction.
pub const NMP_INST_BITS: u32 = 79;
/// Bits of the PsumTag field; bounds poolings per packet to 16.
pub const PSUM_TAG_BITS: u32 = 4;
/// Maximum poolings distinguishable within one packet.
pub const MAX_POOLINGS_PER_PACKET: usize = 1 << PSUM_TAG_BITS;

/// The SLS-family operation an NMP kernel performs (Figure 8(d) opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NmpOpcode {
    /// `nmp_sum`
    Sum = 0,
    /// `nmp_mean`
    Mean = 1,
    /// `nmp_weightedsum`
    WeightedSum = 2,
    /// `nmp_weightedmean`
    WeightedMean = 3,
    /// `nmp_weightedsum_8bits` (row-wise quantized)
    WeightedSum8 = 4,
    /// `nmp_weightedmean_8bits`
    WeightedMean8 = 5,
}

impl NmpOpcode {
    /// All opcodes.
    pub const ALL: [NmpOpcode; 6] = [
        NmpOpcode::Sum,
        NmpOpcode::Mean,
        NmpOpcode::WeightedSum,
        NmpOpcode::WeightedMean,
        NmpOpcode::WeightedSum8,
        NmpOpcode::WeightedMean8,
    ];

    fn from_bits(v: u8) -> Result<Self, DecodeInstError> {
        Self::ALL
            .into_iter()
            .find(|o| *o as u8 == v)
            .ok_or(DecodeInstError::BadOpcode(v))
    }
}

/// Embedded DDR command presence flags (the 3-bit `DDR cmd` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DdrCmdFlags {
    /// An ACT is needed (row currently closed).
    pub act: bool,
    /// A RD is needed (always true for lookups).
    pub rd: bool,
    /// A PRE is needed first (row conflict).
    pub pre: bool,
}

impl DdrCmdFlags {
    /// Read from an already-open row.
    pub const fn row_hit() -> Self {
        Self {
            act: false,
            rd: true,
            pre: false,
        }
    }

    /// Read requiring ACT (bank closed).
    pub const fn row_closed() -> Self {
        Self {
            act: true,
            rd: true,
            pre: false,
        }
    }

    /// Read requiring PRE then ACT (row conflict).
    pub const fn row_conflict() -> Self {
        Self {
            act: true,
            rd: true,
            pre: true,
        }
    }

    fn to_bits(self) -> u128 {
        (self.act as u128) | (self.rd as u128) << 1 | (self.pre as u128) << 2
    }

    fn from_bits(v: u8) -> Self {
        Self {
            act: v & 1 != 0,
            rd: v & 2 != 0,
            pre: v & 4 != 0,
        }
    }
}

/// Error decoding a packed NMP instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeInstError {
    /// Unknown opcode bits.
    BadOpcode(u8),
    /// Bits above bit 78 were set.
    ExcessBits,
}

impl fmt::Display for DecodeInstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadOpcode(v) => write!(f, "unknown NMP opcode bits {v:#x}"),
            Self::ExcessBits => write!(f, "bits beyond the 79-bit instruction are set"),
        }
    }
}

impl Error for DecodeInstError {}

/// One decoded NMP instruction: the work of fetching and accumulating a
/// single embedding vector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NmpInst {
    /// Operation selector.
    pub opcode: NmpOpcode,
    /// Embedded DDR command flags (set by the MC at packet build time).
    pub ddr_cmd: DdrCmdFlags,
    /// Target DRAM coordinates.
    pub daddr: DramAddr,
    /// Vector size in 64-byte bursts (1–8).
    pub vsize: u8,
    /// FP32 weight (1.0 for unweighted operations).
    pub weight: f32,
    /// `LocalityBit`: whether the RankCache should allocate this vector.
    pub locality: bool,
    /// Pooling tag within the packet (0–15).
    pub psum_tag: u8,
}

impl NmpInst {
    /// Creates an unweighted sum instruction with default flags. The
    /// `LocalityBit` defaults to set (cacheable) — the unprofiled policy.
    ///
    /// # Panics
    ///
    /// Panics if `vsize` is not in `1..=8` or `psum_tag` exceeds 15.
    pub fn sum(daddr: DramAddr, vsize: u8, psum_tag: u8) -> Self {
        let inst = Self {
            opcode: NmpOpcode::Sum,
            ddr_cmd: DdrCmdFlags::row_closed(),
            daddr,
            vsize,
            weight: 1.0,
            locality: true,
            psum_tag,
        };
        inst.assert_valid();
        inst
    }

    fn assert_valid(&self) {
        assert!((1..=8).contains(&self.vsize), "vsize must be 1..=8 bursts");
        assert!(
            (self.psum_tag as usize) < MAX_POOLINGS_PER_PACKET,
            "psum_tag must fit in 4 bits"
        );
    }

    /// Bytes this instruction fetches from DRAM.
    pub fn vector_bytes(&self) -> u64 {
        self.vsize as u64 * 64
    }

    /// Packs into the 79-bit wire format.
    pub fn pack(&self) -> u128 {
        self.assert_valid();
        let daddr_bits = pack_daddr(&self.daddr);
        let mut v: u128 = self.opcode as u128;
        let mut shift = 4;
        v |= self.ddr_cmd.to_bits() << shift;
        shift += 3;
        v |= (daddr_bits as u128) << shift;
        shift += 32;
        v |= ((self.vsize - 1) as u128) << shift;
        shift += 3;
        v |= (self.weight.to_bits() as u128) << shift;
        shift += 32;
        v |= (self.locality as u128) << shift;
        shift += 1;
        v |= (self.psum_tag as u128) << shift;
        v
    }

    /// Decodes the 79-bit wire format.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeInstError`] on unknown opcode bits or if bits above
    /// bit 78 are set.
    pub fn unpack(v: u128) -> Result<Self, DecodeInstError> {
        if v >> NMP_INST_BITS != 0 {
            return Err(DecodeInstError::ExcessBits);
        }
        let opcode = NmpOpcode::from_bits((v & 0xf) as u8)?;
        let ddr_cmd = DdrCmdFlags::from_bits(((v >> 4) & 0x7) as u8);
        let daddr = unpack_daddr(((v >> 7) & 0xffff_ffff) as u32);
        let vsize = (((v >> 39) & 0x7) as u8) + 1;
        let weight = f32::from_bits(((v >> 42) & 0xffff_ffff) as u32);
        let locality = (v >> 74) & 1 != 0;
        let psum_tag = ((v >> 75) & 0xf) as u8;
        Ok(Self {
            opcode,
            ddr_cmd,
            daddr,
            vsize,
            weight,
            locality,
            psum_tag,
        })
    }
}

/// Packs DRAM coordinates into the 32-bit `Daddr` field:
/// `rank(3) | bank_group(2) | bank(2) | row(17) | column(8)`.
fn pack_daddr(a: &DramAddr) -> u32 {
    debug_assert!(a.rank < 8 && a.bank_group < 4 && a.bank < 4);
    debug_assert!(a.row < (1 << 17) && a.column < (1 << 8));
    (a.rank as u32)
        | (a.bank_group as u32) << 3
        | (a.bank as u32) << 5
        | a.row << 7
        | a.column << 24
}

fn unpack_daddr(v: u32) -> DramAddr {
    DramAddr {
        rank: (v & 0x7) as u8,
        bank_group: ((v >> 3) & 0x3) as u8,
        bank: ((v >> 5) & 0x3) as u8,
        row: (v >> 7) & 0x1_ffff,
        column: (v >> 24) & 0xff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> DramAddr {
        DramAddr {
            rank: 5,
            bank_group: 2,
            bank: 3,
            row: 54_321,
            column: 101,
        }
    }

    #[test]
    fn pack_fits_79_bits() {
        let mut inst = NmpInst::sum(addr(), 8, 15);
        inst.weight = -123.456;
        inst.locality = true;
        inst.opcode = NmpOpcode::WeightedMean8;
        let packed = inst.pack();
        assert_eq!(packed >> NMP_INST_BITS, 0, "exceeds 79 bits");
    }

    #[test]
    fn roundtrip_preserves_all_fields() {
        let mut inst = NmpInst::sum(addr(), 2, 9);
        inst.opcode = NmpOpcode::WeightedSum;
        inst.ddr_cmd = DdrCmdFlags::row_conflict();
        inst.weight = 0.125;
        inst.locality = true;
        let out = NmpInst::unpack(inst.pack()).expect("valid encoding");
        assert_eq!(out, inst);
    }

    #[test]
    fn unpack_rejects_excess_bits() {
        assert_eq!(
            NmpInst::unpack(1u128 << 100),
            Err(DecodeInstError::ExcessBits)
        );
    }

    #[test]
    fn unpack_rejects_bad_opcode() {
        // Opcode 0xF is undefined.
        assert_eq!(NmpInst::unpack(0xf), Err(DecodeInstError::BadOpcode(0xf)));
    }

    #[test]
    #[should_panic(expected = "vsize")]
    fn vsize_zero_rejected() {
        NmpInst::sum(addr(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "psum_tag")]
    fn psum_tag_overflow_rejected() {
        NmpInst::sum(addr(), 1, 16);
    }

    #[test]
    fn vector_bytes_scale_with_vsize() {
        assert_eq!(NmpInst::sum(addr(), 1, 0).vector_bytes(), 64);
        assert_eq!(NmpInst::sum(addr(), 4, 0).vector_bytes(), 256);
    }

    #[test]
    fn daddr_pack_is_lossless_for_geometry_range() {
        for rank in 0..8u8 {
            for row in [0u32, 1, 65535, 99_999] {
                let a = DramAddr {
                    rank,
                    bank_group: rank % 4,
                    bank: (rank + 1) % 4,
                    row,
                    column: (row % 128),
                };
                assert_eq!(unpack_daddr(pack_daddr(&a)), a);
            }
        }
    }
}
