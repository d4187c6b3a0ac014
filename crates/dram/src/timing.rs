//! DDR4 timing parameters.
//!
//! All values are in DRAM clock cycles (1200 MHz for DDR4-2400). The
//! paper's Table I pins the core parameters; the remaining standard
//! parameters (tRAS, tRTP, tWR, tWTR, tCWL, tREFI, tRFC) are taken from the
//! Micron 8 Gb ×8 DDR4-2400 datasheet the paper cites, since a working
//! protocol model needs them.

use recnmp_types::ConfigError;
use serde::{Deserialize, Serialize};

/// The DDR4 timing-constraint set used by the simulator.
///
/// Construct with [`DdrTiming::ddr4_2400`] (the paper's configuration) or
/// build a custom set and validate it with [`DdrTiming::validate`].
///
/// # Examples
///
/// ```
/// let t = recnmp_dram::DdrTiming::ddr4_2400();
/// assert_eq!(t.t_rcd, 16);
/// assert_eq!(t.t_faw, 26);
/// assert!(t.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdrTiming {
    /// ACT-to-ACT delay, same bank (row cycle time).
    pub t_rc: u64,
    /// ACT-to-RD/WR delay (RAS-to-CAS).
    pub t_rcd: u64,
    /// RD-to-first-data delay (CAS latency).
    pub t_cl: u64,
    /// PRE-to-ACT delay (row precharge).
    pub t_rp: u64,
    /// Data burst duration (burst length 8 at double data rate = 4 cycles).
    pub t_bl: u64,
    /// RD-to-RD delay, different bank group.
    pub t_ccd_s: u64,
    /// RD-to-RD delay, same bank group.
    pub t_ccd_l: u64,
    /// ACT-to-ACT delay, different bank group.
    pub t_rrd_s: u64,
    /// ACT-to-ACT delay, same bank group.
    pub t_rrd_l: u64,
    /// Four-activate window: at most 4 ACTs per rank in this many cycles.
    pub t_faw: u64,
    /// ACT-to-PRE minimum (row active time).
    pub t_ras: u64,
    /// RD-to-PRE minimum (read-to-precharge).
    pub t_rtp: u64,
    /// WR-to-data delay (CAS write latency).
    pub t_cwl: u64,
    /// Write recovery: last write data to PRE.
    pub t_wr: u64,
    /// Write-to-read turnaround, same rank.
    pub t_wtr: u64,
    /// Average refresh interval (one REF per rank every tREFI).
    pub t_refi: u64,
    /// Refresh cycle time (rank is busy for tRFC after REF).
    pub t_rfc: u64,
    /// Extra data-bus cycles when consecutive bursts come from different
    /// ranks (rank-to-rank switch).
    pub rank_switch: u64,
}

impl DdrTiming {
    /// The DDR4-2400 timing set from Table I of the paper, completed with
    /// the Micron MT40A 8 Gb datasheet values for the parameters Table I
    /// omits.
    pub const fn ddr4_2400() -> Self {
        Self {
            t_rc: 55,
            t_rcd: 16,
            t_cl: 16,
            t_rp: 16,
            t_bl: 4,
            t_ccd_s: 4,
            t_ccd_l: 6,
            t_rrd_s: 4,
            t_rrd_l: 6,
            t_faw: 26,
            // tRAS = tRC - tRP = 39 cycles (32.5 ns).
            t_ras: 39,
            // tRTP = max(4 nCK, 7.5 ns) = 9 cycles.
            t_rtp: 9,
            // CWL for DDR4-2400 = 12.
            t_cwl: 12,
            // tWR = 15 ns = 18 cycles.
            t_wr: 18,
            // tWTR_L = 7.5 ns = 9 cycles.
            t_wtr: 9,
            // tREFI = 7.8 us = 9360 cycles.
            t_refi: 9360,
            // tRFC for 8 Gb = 350 ns = 420 cycles.
            t_rfc: 420,
            rank_switch: 2,
        }
    }

    /// Checks internal consistency of the timing set.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first inconsistent field, e.g.
    /// when `t_rc < t_ras + t_rp` or any parameter that must be positive is
    /// zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive: [(&str, u64); 10] = [
            ("t_rc", self.t_rc),
            ("t_rcd", self.t_rcd),
            ("t_cl", self.t_cl),
            ("t_rp", self.t_rp),
            ("t_bl", self.t_bl),
            ("t_ccd_s", self.t_ccd_s),
            ("t_ccd_l", self.t_ccd_l),
            ("t_rrd_s", self.t_rrd_s),
            ("t_rrd_l", self.t_rrd_l),
            ("t_faw", self.t_faw),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(ConfigError::new(name, "must be positive"));
            }
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(ConfigError::new("t_rc", "must be at least t_ras + t_rp"));
        }
        if self.t_ccd_l < self.t_ccd_s {
            return Err(ConfigError::new("t_ccd_l", "must be at least t_ccd_s"));
        }
        if self.t_rrd_l < self.t_rrd_s {
            return Err(ConfigError::new("t_rrd_l", "must be at least t_rrd_s"));
        }
        if self.t_faw < 4 * self.t_rrd_s {
            return Err(ConfigError::new("t_faw", "must cover four tRRD_S gaps"));
        }
        if self.t_ras < self.t_rcd {
            return Err(ConfigError::new("t_ras", "must be at least t_rcd"));
        }
        Ok(())
    }
}

impl Default for DdrTiming {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let t = DdrTiming::ddr4_2400();
        assert_eq!(
            (t.t_rc, t.t_rcd, t.t_cl, t.t_rp, t.t_bl),
            (55, 16, 16, 16, 4)
        );
        assert_eq!(
            (t.t_ccd_s, t.t_ccd_l, t.t_rrd_s, t.t_rrd_l, t.t_faw),
            (4, 6, 4, 6, 26)
        );
    }

    #[test]
    fn default_validates() {
        assert!(DdrTiming::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_field() {
        let mut t = DdrTiming::ddr4_2400();
        t.t_rcd = 0;
        let err = t.validate().unwrap_err();
        assert_eq!(err.field(), "t_rcd");
    }

    #[test]
    fn validate_rejects_short_trc() {
        let mut t = DdrTiming::ddr4_2400();
        t.t_rc = 10;
        assert_eq!(t.validate().unwrap_err().field(), "t_rc");
    }

    #[test]
    fn validate_rejects_inverted_ccd() {
        let mut t = DdrTiming::ddr4_2400();
        t.t_ccd_l = 2;
        assert_eq!(t.validate().unwrap_err().field(), "t_ccd_l");
    }

    #[test]
    fn validate_rejects_short_faw() {
        let mut t = DdrTiming::ddr4_2400();
        t.t_faw = 10;
        assert_eq!(t.validate().unwrap_err().field(), "t_faw");
    }
}
