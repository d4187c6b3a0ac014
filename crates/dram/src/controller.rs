//! Memory-controller configuration.

use recnmp_types::ConfigError;
use serde::{Deserialize, Serialize};

use crate::address::{AddressMapping, Geometry};
use crate::timing::DdrTiming;

/// Main-loop strategy of the cycle-level engine.
///
/// Both engines are *cycle-accurate* and produce identical statistics and
/// completion times; they differ only in how many loop iterations it takes
/// to get there (see the `event_equivalence` test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimEngine {
    /// Skip ahead: when no command can issue this cycle, jump the clock to
    /// the next cycle at which anything could change (a staged arrival, a
    /// refresh deadline, a bank/rank timing expiry, or the data bus coming
    /// free). Does O(commands) work instead of O(cycles).
    #[default]
    EventDriven,
    /// Advance one DRAM clock per loop iteration. The reference engine the
    /// event-driven path is validated against.
    PerCycle,
}

/// Configuration of one memory channel and its controller.
///
/// Use [`DramConfig::table1_baseline`] for the paper's per-channel baseline
/// (1 DIMM × 2 ranks of 8 Gb ×8 devices, FR-FCFS, 32-entry read queue,
/// open-page policy) or [`DramConfig::single_rank`] for the DRAM devices
/// behind one rank-NMP module.
///
/// # Examples
///
/// ```
/// use recnmp_dram::DramConfig;
///
/// let cfg = DramConfig::with_ranks(2, 2); // 2 DIMMs x 2 ranks
/// assert_eq!(cfg.geometry().ranks, 4);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// DIMMs on the channel.
    pub dimms: u8,
    /// Ranks per DIMM.
    pub ranks_per_dimm: u8,
    /// DDR timing set.
    pub timing: DdrTiming,
    /// Physical-address mapping policy.
    pub mapping: AddressMapping,
    /// Read-queue capacity (Table I: 32).
    pub read_queue: usize,
    /// Whether periodic refresh is simulated.
    pub refresh: bool,
    /// Age (cycles) after which the oldest request preempts row-hit
    /// prioritization, bounding FR-FCFS starvation.
    pub starvation_cycles: u64,
    /// Main-loop strategy (event-driven skip-ahead by default).
    pub engine: SimEngine,
    /// Loop iterations without any request progress after which
    /// [`run_stream`](crate::MemorySystem::run_stream) reports
    /// [`recnmp_types::SimError::Stalled`] instead of spinning forever.
    pub stall_iterations: u64,
}

impl DramConfig {
    /// The paper's Table I per-channel baseline: 1 DIMM × 2 ranks,
    /// DDR4-2400, FR-FCFS with a 32-entry read queue, open-page policy,
    /// Skylake-style address mapping.
    pub fn table1_baseline() -> Self {
        Self::with_ranks(1, 2)
    }

    /// A channel with `dimms × ranks_per_dimm` ranks and default policies.
    pub fn with_ranks(dimms: u8, ranks_per_dimm: u8) -> Self {
        Self {
            dimms,
            ranks_per_dimm,
            timing: DdrTiming::ddr4_2400(),
            mapping: AddressMapping::SkylakeXor,
            read_queue: 32,
            refresh: true,
            starvation_cycles: 2048,
            engine: SimEngine::EventDriven,
            stall_iterations: 1_000_000,
        }
    }

    /// The DRAM devices behind a single rank, as seen by a rank-NMP module:
    /// one rank, no host-side mapping games (identity interleave), refresh
    /// on.
    pub fn single_rank() -> Self {
        let mut cfg = Self::with_ranks(1, 1);
        cfg.mapping = AddressMapping::RowRankBankColumn;
        cfg
    }

    /// Channel geometry implied by the DIMM/rank counts.
    pub fn geometry(&self) -> Geometry {
        Geometry::ddr4_8gb_x8(self.dimms * self.ranks_per_dimm)
    }

    /// Total ranks on the channel.
    pub fn total_ranks(&self) -> u8 {
        self.dimms * self.ranks_per_dimm
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the rank count is not a positive power
    /// of two, the read queue is empty, or the timing set is inconsistent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.dimms == 0 {
            return Err(ConfigError::new("dimms", "must be positive"));
        }
        if self.ranks_per_dimm == 0 {
            return Err(ConfigError::new("ranks_per_dimm", "must be positive"));
        }
        if self.read_queue == 0 {
            return Err(ConfigError::new("read_queue", "must be positive"));
        }
        if self.stall_iterations <= self.timing.t_rfc + self.timing.t_refi {
            // A per-cycle engine legitimately idles for a whole refresh
            // epoch; a smaller bound would misreport it as a livelock.
            return Err(ConfigError::new(
                "stall_iterations",
                "must exceed tRFC + tREFI",
            ));
        }
        self.timing.validate()?;
        self.geometry().validate()
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table1_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let cfg = DramConfig::table1_baseline();
        assert_eq!(cfg.total_ranks(), 2);
        assert_eq!(cfg.read_queue, 32);
        assert!(cfg.refresh);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn single_rank_geometry() {
        let cfg = DramConfig::single_rank();
        assert_eq!(cfg.geometry().ranks, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_dimms() {
        let mut cfg = DramConfig::table1_baseline();
        cfg.dimms = 0;
        assert_eq!(cfg.validate().unwrap_err().field(), "dimms");
    }

    #[test]
    fn validate_rejects_empty_queue() {
        let mut cfg = DramConfig::table1_baseline();
        cfg.read_queue = 0;
        assert_eq!(cfg.validate().unwrap_err().field(), "read_queue");
    }

    #[test]
    fn validate_rejects_tiny_stall_bound() {
        let mut cfg = DramConfig::table1_baseline();
        cfg.stall_iterations = cfg.timing.t_refi;
        assert_eq!(cfg.validate().unwrap_err().field(), "stall_iterations");
    }

    #[test]
    fn default_engine_is_event_driven() {
        assert_eq!(DramConfig::table1_baseline().engine, SimEngine::EventDriven);
    }

    #[test]
    fn capacity_scales_with_ranks() {
        let small = DramConfig::with_ranks(1, 2).geometry().capacity_bytes();
        let large = DramConfig::with_ranks(4, 2).geometry().capacity_bytes();
        assert_eq!(large, 4 * small);
    }
}
