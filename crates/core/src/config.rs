//! RecNMP system configuration.

use recnmp_cache::CacheConfig;
use recnmp_dram::{DramConfig, SimEngine};
use recnmp_types::ConfigError;
use serde::{Deserialize, Serialize};

/// How the NMP-extended memory controller orders packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Issue packets in arrival order (parallel SLS threads interleave).
    #[default]
    Fcfs,
    /// Table-aware: group packets of the same (model, table) batch
    /// together to retain intra-table temporal locality (Section III-D).
    TableAware,
}

/// How the channel front end issues packets to the ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Serial per-packet execution: the host waits for each packet's sum
    /// before streaming the next (the paper's base methodology; each
    /// packet's latency is set by its slowest rank).
    #[default]
    Serial,
    /// Overlapped execution: instructions stream continuously and every
    /// rank consumes its share as it arrives — the high
    /// task-level-parallelism regime the page-colored data layout of
    /// Figure 14(a) requires.
    Overlapped,
}

/// NMP instructions delivered per DRAM cycle over the channel interface:
/// the paper's double-data-rate compressed format carries two.
pub(crate) const INSTS_PER_CYCLE: u64 = 2;

/// Datapath pipeline depth in DRAM cycles (the paper's 4-stage pipeline).
pub(crate) const PIPELINE_DEPTH: u64 = 4;

/// Configuration of one RecNMP-equipped memory channel.
///
/// The channel interface delivers two instructions per DRAM cycle and
/// the datapath is a 4-stage pipeline, both fixed by the paper's design.
///
/// # Examples
///
/// ```
/// use recnmp::RecNmpConfig;
///
/// // The paper's largest configuration: 4 DIMMs x 2 ranks.
/// let cfg = RecNmpConfig::with_ranks(4, 2);
/// assert_eq!(cfg.total_ranks(), 8);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecNmpConfig {
    /// DIMMs on the channel.
    pub dimms: u8,
    /// Ranks per DIMM.
    pub ranks_per_dimm: u8,
    /// RankCache configuration; `None` = RecNMP-base (no cache).
    pub rank_cache: Option<CacheConfig>,
    /// Packet scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Whether hot-entry profiling annotates `LocalityBit` hints. Without
    /// profiling every instruction is treated as cacheable.
    pub hot_entry_profiling: bool,
    /// Poolings packed per NMP packet (1–16; Figure 14 sweeps this).
    pub poolings_per_packet: usize,
    /// Whether the per-rank DRAM devices simulate refresh.
    pub refresh: bool,
    /// How packets are issued to the ranks.
    pub execution: ExecutionMode,
    /// Main-loop strategy of the per-rank DRAM engines (event-driven
    /// skip-ahead by default; per-cycle is the validation reference).
    pub engine: SimEngine,
}

impl RecNmpConfig {
    /// RecNMP-base for a `dimms x ranks_per_dimm` channel: no RankCache,
    /// FCFS scheduling, 8 poolings per packet.
    pub fn with_ranks(dimms: u8, ranks_per_dimm: u8) -> Self {
        Self {
            dimms,
            ranks_per_dimm,
            rank_cache: None,
            scheduling: SchedulingPolicy::Fcfs,
            hot_entry_profiling: false,
            poolings_per_packet: 8,
            refresh: true,
            execution: ExecutionMode::Serial,
            engine: SimEngine::EventDriven,
        }
    }

    /// RecNMP-opt: 128 KiB RankCache, table-aware scheduling and
    /// hot-entry profiling (the paper's best configuration).
    pub fn optimized(dimms: u8, ranks_per_dimm: u8) -> Self {
        let mut cfg = Self::with_ranks(dimms, ranks_per_dimm);
        cfg.rank_cache = Some(CacheConfig::rank_cache_default());
        cfg.scheduling = SchedulingPolicy::TableAware;
        cfg.hot_entry_profiling = true;
        cfg
    }

    /// Total ranks on the channel.
    pub fn total_ranks(&self) -> u8 {
        self.dimms * self.ranks_per_dimm
    }

    /// Channel geometry (the authoritative source for packet building and
    /// page mapping; `RecNmpSystem::geometry` delegates here).
    pub fn geometry(&self) -> recnmp_dram::address::Geometry {
        recnmp_dram::address::Geometry::ddr4_8gb_x8(self.total_ranks())
    }

    /// The physical-to-DRAM mapping the NMP-extended controller applies.
    pub fn mapping(&self) -> recnmp_dram::AddressMapping {
        recnmp_dram::AddressMapping::SkylakeXor
    }

    /// The DRAM configuration of one rank's devices.
    pub fn rank_dram_config(&self) -> DramConfig {
        let mut cfg = DramConfig::single_rank();
        cfg.refresh = self.refresh;
        cfg.engine = self.engine;
        cfg
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero rank counts, a pooling count that
    /// exceeds the 4-bit PsumTag space, or an invalid cache geometry.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dimms == 0 {
            return Err(ConfigError::new("dimms", "must be positive"));
        }
        if self.ranks_per_dimm == 0 {
            return Err(ConfigError::new("ranks_per_dimm", "must be positive"));
        }
        if self.total_ranks() > 8 {
            return Err(ConfigError::new(
                "ranks_per_dimm",
                "NMP-Inst Daddr field addresses at most 8 ranks per channel",
            ));
        }
        if self.poolings_per_packet == 0
            || self.poolings_per_packet > crate::inst::MAX_POOLINGS_PER_PACKET
        {
            return Err(ConfigError::new(
                "poolings_per_packet",
                "must be 1..=16 (4-bit PsumTag)",
            ));
        }
        if let Some(cache) = &self.rank_cache {
            cache.validate()?;
        }
        self.rank_dram_config().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_has_no_cache() {
        let cfg = RecNmpConfig::with_ranks(4, 2);
        assert!(cfg.rank_cache.is_none());
        assert!(!cfg.hot_entry_profiling);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn optimized_enables_everything() {
        let cfg = RecNmpConfig::optimized(4, 2);
        assert!(cfg.rank_cache.is_some());
        assert_eq!(cfg.scheduling, SchedulingPolicy::TableAware);
        assert!(cfg.hot_entry_profiling);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_too_many_ranks() {
        let cfg = RecNmpConfig::with_ranks(4, 4);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_pooling_overflow() {
        let mut cfg = RecNmpConfig::with_ranks(1, 2);
        cfg.poolings_per_packet = 17;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rank_dram_is_single_rank() {
        let cfg = RecNmpConfig::with_ranks(2, 2);
        assert_eq!(cfg.rank_dram_config().geometry().ranks, 1);
    }
}
