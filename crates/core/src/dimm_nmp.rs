//! The DIMM-NMP module (Figure 8(b)).
//!
//! Receives NMP instructions over the DIMM interface, multiplexes them to
//! rank-NMP modules by Rank-ID, buffers per-rank partial sums, and reduces
//! them through an element-wise adder tree before returning the final
//! `DIMM.Sum` to the host.

use recnmp_types::{ConfigError, Cycle, DimmId, RankId, SimError};

use crate::config::RecNmpConfig;
use crate::inst::NmpInst;
use crate::rank_nmp::RankNmp;

/// One DIMM's processing unit: its rank-NMP modules plus the adder tree.
#[derive(Debug)]
pub struct DimmNmp {
    id: DimmId,
    ranks: Vec<RankNmp>,
}

impl DimmNmp {
    /// Builds the PU for DIMM `id`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the per-rank configuration is invalid.
    pub fn new(id: DimmId, config: &RecNmpConfig) -> Result<Self, ConfigError> {
        let base = id.index() as u32 * config.ranks_per_dimm as u32;
        let ranks = (0..config.ranks_per_dimm as u32)
            .map(|r| RankNmp::new(RankId::new(base + r), config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { id, ranks })
    }

    /// This DIMM's identifier.
    pub fn id(&self) -> DimmId {
        self.id
    }

    /// The rank engines (read access for stats aggregation).
    pub fn ranks(&self) -> &[RankNmp] {
        &self.ranks
    }

    /// Mutable access to the rank engines — the prefetch/reset path into
    /// each rank's RankCache.
    pub fn ranks_mut(&mut self) -> &mut [RankNmp] {
        &mut self.ranks
    }

    /// Adder-tree depth: one pipelined element-wise adder stage per level.
    pub fn adder_tree_latency(&self) -> Cycle {
        (self.ranks.len().max(1) as f64).log2().ceil() as Cycle
    }

    /// Executes this DIMM's slice of a packet.
    ///
    /// `per_rank[r]` holds the delivery-stamped instructions for local
    /// rank `r`. Returns the cycle the DIMM finished reducing its ranks'
    /// partial sums: its slowest rank's finish plus the adder-tree and
    /// sum-buffer latency, or `start` when no rank had work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if any rank's DRAM devices livelock.
    pub fn process(
        &mut self,
        start: Cycle,
        per_rank: &[Vec<(Cycle, NmpInst)>],
    ) -> Result<Cycle, SimError> {
        assert_eq!(
            per_rank.len(),
            self.ranks.len(),
            "one instruction slice per rank"
        );
        if per_rank.iter().all(Vec::is_empty) {
            return Ok(start);
        }
        let mut done = start;
        for (rank, slice) in self.ranks.iter_mut().zip(per_rank) {
            done = done.max(rank.process(start, slice)?);
        }
        // Adder tree + one cycle into the DIMM.Sum buffer.
        Ok(done + self.adder_tree_latency() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_dram::DramAddr;

    fn config() -> RecNmpConfig {
        let mut cfg = RecNmpConfig::with_ranks(1, 2);
        cfg.refresh = false;
        cfg
    }

    fn inst(rank: u8, row: u32) -> NmpInst {
        NmpInst {
            daddr: DramAddr {
                rank,
                bank_group: 0,
                bank: 0,
                row,
                column: 0,
            },
            vsize: 1,
            locality: true,
        }
    }

    #[test]
    fn adder_tree_depth_scales() {
        let d = DimmNmp::new(DimmId::new(0), &config()).unwrap();
        assert_eq!(d.adder_tree_latency(), 1); // 2 ranks -> 1 level
        let mut cfg4 = RecNmpConfig::with_ranks(1, 4);
        cfg4.refresh = false;
        let d4 = DimmNmp::new(DimmId::new(0), &cfg4).unwrap();
        assert_eq!(d4.adder_tree_latency(), 2);
    }

    #[test]
    fn ranks_process_in_parallel() {
        let mut d = DimmNmp::new(DimmId::new(0), &config()).unwrap();
        // Two instructions, one per rank, both arriving at cycle 0.
        let done = d
            .process(0, &[vec![(0, inst(0, 1))], vec![(0, inst(1, 2))]])
            .unwrap();
        // Parallel ranks: latency close to a single read, not double.
        assert!(done < 2 * 40, "{done}");
        let insts: Vec<u64> = d.ranks().iter().map(|r| r.stats().insts).collect();
        assert_eq!(insts, vec![1, 1]);
    }

    #[test]
    fn slowest_rank_determines_latency() {
        let mut d = DimmNmp::new(DimmId::new(0), &config()).unwrap();
        // Rank 0 gets 8 conflicting reads, rank 1 gets one.
        let heavy: Vec<(Cycle, NmpInst)> = (0..8).map(|i| (0, inst(0, i * 7 + 1))).collect();
        let done = d.process(0, &[heavy, vec![(0, inst(1, 2))]]).unwrap();
        let single = {
            let mut d2 = DimmNmp::new(DimmId::new(0), &config()).unwrap();
            d2.process(0, &[vec![(0, inst(0, 1))], Vec::new()]).unwrap()
        };
        assert!(done > single, "{done} vs {single}");
    }

    #[test]
    fn empty_packet_is_free() {
        let mut d = DimmNmp::new(DimmId::new(0), &config()).unwrap();
        assert_eq!(d.process(55, &[Vec::new(), Vec::new()]).unwrap(), 55);
    }

    #[test]
    fn rank_ids_are_global() {
        let mut cfg = config();
        cfg.dimms = 2;
        let d1 = DimmNmp::new(DimmId::new(1), &cfg).unwrap();
        assert_eq!(d1.ranks()[0].id(), RankId::new(2));
        assert_eq!(d1.ranks()[1].id(), RankId::new(3));
    }
}
