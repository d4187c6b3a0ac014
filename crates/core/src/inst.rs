//! The NMP instruction (Figure 8(d)), reduced to what the rank PU reads.
//!
//! Every evaluated kernel is a plain SLS sum, the rank derives its own
//! DDR commands, and a packet's instructions are grouped by pooling in
//! header order, so the paper's opcode, DDR-command, weight and PsumTag
//! fields would change nothing the timing model does. The one modelled
//! cost of the instruction format, its C/A-bus bytes, is
//! [`NmpPacket::inst_bytes`](crate::NmpPacket::inst_bytes).

use recnmp_dram::DramAddr;
use serde::{Deserialize, Serialize};

/// Maximum poolings per packet: the 4-bit PsumTag distinguishes 16.
pub const MAX_POOLINGS_PER_PACKET: usize = 16;

/// One NMP instruction: the work of fetching and accumulating a single
/// embedding vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NmpInst {
    /// Target DRAM coordinates.
    pub daddr: DramAddr,
    /// Vector size in 64-byte bursts (1–255).
    pub vsize: u8,
    /// `LocalityBit`: whether the RankCache should allocate this vector.
    pub locality: bool,
}

impl NmpInst {
    /// Bytes this instruction fetches from DRAM.
    pub fn vector_bytes(&self) -> u64 {
        self.vsize as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_bytes_scale_with_vsize() {
        let inst = |vsize| NmpInst {
            daddr: DramAddr::default(),
            vsize,
            locality: true,
        };
        assert_eq!(inst(1).vector_bytes(), 64);
        assert_eq!(inst(4).vector_bytes(), 256);
    }
}
