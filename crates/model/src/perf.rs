//! Calibrated CPU performance model.
//!
//! The paper's Figures 4, 17 and 18 come from measurements on an 18-core
//! Skylake server (Table I). We do not have that machine, so this module
//! provides an analytic stand-in with the same structure:
//!
//! * **SLS** is memory-bound: time scales with gathered bytes over an
//!   effective gather bandwidth,
//! * **FC** pays a fixed weight-streaming cost (amortized over the batch)
//!   plus a batch-linear compute cost,
//! * **co-location** degrades TopFC by evicting its weights from the LLC;
//!   offloading SLS to RecNMP removes that pressure (Figure 17).
//!
//! The effective constants below are *calibrated*, not derived: they are
//! chosen so the operator breakdown (Figure 4 shape: SLS share 35–75%,
//! growing with batch and table count) and the end-to-end speedups
//! (Figure 18) land near the published values. `tests/paper_claims.rs`
//! holds the bands they must stay within, and `goldens/` pins the
//! figures they feed.

use serde::{Deserialize, Serialize};

use crate::config::ModelConfig;

/// Hardware parameters of the paper's test system (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Physical cores.
    pub cores: u32,
    /// Base frequency in GHz.
    pub freq_ghz: f64,
    /// Peak FP32 throughput in GFLOP/s (the paper's roofline compute bound).
    pub peak_gflops: f64,
    /// Empirical DRAM bandwidth in GB/s (Intel MLC measurement).
    pub dram_bw_gbs: f64,
    /// Theoretical peak DRAM bandwidth in GB/s (4 channels DDR4-2400).
    pub ideal_bw_gbs: f64,
    /// Per-core L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Shared LLC capacity in bytes.
    pub llc_bytes: u64,
}

impl CpuSpec {
    /// The Table I Skylake configuration.
    pub const fn table1() -> Self {
        Self {
            cores: 18,
            freq_ghz: 1.6,
            peak_gflops: 980.0,
            dram_bw_gbs: 62.1,
            ideal_bw_gbs: 76.8,
            l2_bytes: 1024 * 1024,
            llc_bytes: 25_952_256, // 24.75 MiB
        }
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self::table1()
    }
}

/// Calibrated effective-throughput constants (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfCalibration {
    /// Effective SLS gather bandwidth per model instance, GB/s.
    pub sls_eff_gbs: f64,
    /// Effective batched-GEMM throughput, GFLOP/s.
    pub fc_eff_gflops: f64,
    /// Weight-streaming bandwidth when weights are LLC-resident, GB/s.
    pub llc_stream_gbs: f64,
    /// Weight-streaming bandwidth when weights spill to DRAM, GB/s.
    pub dram_stream_gbs: f64,
    /// Non-SLS/non-FC operator overhead as a fraction of (SLS + FC) time.
    pub other_op_frac: f64,
}

impl Default for PerfCalibration {
    fn default() -> Self {
        Self {
            sls_eff_gbs: 6.0,
            fc_eff_gflops: 300.0,
            llc_stream_gbs: 60.0,
            dram_stream_gbs: 12.0,
            other_op_frac: 0.10,
        }
    }
}

/// Per-operator time breakdown of one model inference, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OperatorBreakdown {
    /// Embedding (SLS-family) time.
    pub sls_us: f64,
    /// BottomFC time.
    pub bottom_fc_us: f64,
    /// TopFC time.
    pub top_fc_us: f64,
    /// Everything else (interaction, concat, framework).
    pub other_us: f64,
}

impl OperatorBreakdown {
    /// Total inference latency.
    pub fn total_us(&self) -> f64 {
        self.sls_us + self.bottom_fc_us + self.top_fc_us + self.other_us
    }

    /// FC time (bottom + top).
    pub fn fc_us(&self) -> f64 {
        self.bottom_fc_us + self.top_fc_us
    }

    /// Fraction of time in SLS operators.
    pub fn sls_fraction(&self) -> f64 {
        if self.total_us() == 0.0 {
            0.0
        } else {
            self.sls_us / self.total_us()
        }
    }
}

/// The analytic CPU performance model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CpuPerfModel {
    /// Hardware parameters.
    pub spec: CpuSpec,
    /// Calibrated constants.
    pub cal: PerfCalibration,
}

impl CpuPerfModel {
    /// Builds the default (Table I + calibrated) model.
    pub fn table1() -> Self {
        Self::default()
    }

    /// Operator breakdown for one inference of `config` at `batch` size,
    /// running alone (no co-location).
    pub fn breakdown(&self, config: &ModelConfig, batch: usize) -> OperatorBreakdown {
        self.breakdown_colocated(config, batch, 1, false)
    }

    /// Operator breakdown with `co_located` model instances sharing the
    /// machine. When `nmp` is true, SLS traffic is offloaded to RecNMP so
    /// it no longer pressures the cache hierarchy (only the FC effect;
    /// SLS time itself is replaced by the NMP simulation elsewhere).
    pub fn breakdown_colocated(
        &self,
        config: &ModelConfig,
        batch: usize,
        co_located: usize,
        nmp: bool,
    ) -> OperatorBreakdown {
        let batch = batch.max(1) as f64;
        let sls_bytes = config.sls_bytes_per_sample() as f64 * batch;
        let sls_us = sls_bytes / (self.cal.sls_eff_gbs * 1e3);

        let bottom_fc_us = self.fc_time_us(
            config.bottom_fc_bytes(),
            config.bottom_fc_flops(),
            batch,
            co_located,
            config.pooling,
            nmp,
        );
        let top_fc_us = self.fc_time_us(
            config.top_fc_bytes(),
            config.top_fc_flops(),
            batch,
            co_located,
            config.pooling,
            nmp,
        );
        let other_us = self.cal.other_op_frac * (sls_us + bottom_fc_us + top_fc_us);
        OperatorBreakdown {
            sls_us,
            bottom_fc_us,
            top_fc_us,
            other_us,
        }
    }

    /// Time of one FC stack invocation over a batch.
    fn fc_time_us(
        &self,
        weight_bytes: u64,
        flops_per_sample: u64,
        batch: f64,
        co_located: usize,
        pooling: usize,
        nmp: bool,
    ) -> f64 {
        let stream_us = weight_bytes as f64 / (self.cal.llc_stream_gbs * 1e3);
        let compute_us = batch * flops_per_sample as f64 / (self.cal.fc_eff_gflops * 1e3);
        let base = stream_us + compute_us;
        base * (1.0 + self.fc_contention(weight_bytes, co_located, pooling, nmp))
    }

    /// Fractional TopFC slowdown from co-location cache contention
    /// (Figure 17). FC stacks whose weights fit in the private L2 are
    /// nearly immune; LLC-resident stacks suffer up to ~35% as SLS streams
    /// evict their weights. RecNMP removes the SLS traffic, leaving a
    /// small residual.
    pub fn fc_contention(
        &self,
        weight_bytes: u64,
        co_located: usize,
        pooling: usize,
        nmp: bool,
    ) -> f64 {
        if co_located <= 1 {
            return 0.0;
        }
        let max_degradation = if weight_bytes <= self.spec.l2_bytes {
            0.045
        } else {
            0.35
        };
        let pressure = (co_located - 1) as f64 * pooling as f64 / 80.0;
        let degradation = max_degradation * (1.0 - (-0.5 * pressure).exp());
        if nmp {
            degradation * 0.15
        } else {
            degradation
        }
    }

    /// End-to-end latency (µs) when SLS runs on RecNMP with the given
    /// memory-latency speedup, including the FC co-location relief.
    pub fn nmp_latency_us(
        &self,
        config: &ModelConfig,
        batch: usize,
        co_located: usize,
        sls_speedup: f64,
    ) -> f64 {
        assert!(sls_speedup > 0.0, "speedup must be positive");
        let nmp = self.breakdown_colocated(config, batch, co_located, true);
        nmp.sls_us / sls_speedup + nmp.bottom_fc_us + nmp.top_fc_us + nmp.other_us
    }

    /// End-to-end speedup of RecNMP over the CPU baseline.
    pub fn end_to_end_speedup(
        &self,
        config: &ModelConfig,
        batch: usize,
        co_located: usize,
        sls_speedup: f64,
    ) -> f64 {
        let base = self
            .breakdown_colocated(config, batch, co_located, false)
            .total_us();
        base / self.nmp_latency_us(config, batch, co_located, sls_speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecModelKind;

    fn model() -> CpuPerfModel {
        CpuPerfModel::table1()
    }

    #[test]
    fn sls_fraction_grows_with_batch() {
        let m = model();
        let cfg = RecModelKind::Rm1Small.config();
        let f8 = m.breakdown(&cfg, 8).sls_fraction();
        let f256 = m.breakdown(&cfg, 256).sls_fraction();
        assert!(f256 > f8, "{f8} -> {f256}");
    }

    #[test]
    fn sls_fraction_grows_with_tables() {
        let m = model();
        let f_rm1 = m
            .breakdown(&RecModelKind::Rm1Small.config(), 8)
            .sls_fraction();
        let f_rm2 = m
            .breakdown(&RecModelKind::Rm2Small.config(), 8)
            .sls_fraction();
        assert!(f_rm2 > f_rm1, "{f_rm1} vs {f_rm2}");
    }

    #[test]
    fn breakdown_in_paper_band() {
        // Figure 4: SLS share between roughly 35% and 80% across models
        // at batch 8, and higher at batch 256.
        let m = model();
        for kind in RecModelKind::ALL {
            let f = m.breakdown(&kind.config(), 8).sls_fraction();
            assert!((0.3..0.85).contains(&f), "{kind}: {f}");
            let f256 = m.breakdown(&kind.config(), 256).sls_fraction();
            assert!((0.55..0.95).contains(&f256), "{kind}@256: {f256}");
        }
    }

    #[test]
    fn rm2_large_is_several_times_rm1_large() {
        // Paper: RM2-large total is ~3.6x RM1-large (batch 8).
        let m = model();
        let rm1 = m.breakdown(&RecModelKind::Rm1Large.config(), 8).total_us();
        let rm2 = m.breakdown(&RecModelKind::Rm2Large.config(), 8).total_us();
        let ratio = rm2 / rm1;
        assert!((2.0..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn contention_immune_when_alone() {
        let m = model();
        assert_eq!(m.fc_contention(10 << 20, 1, 80, false), 0.0);
    }

    #[test]
    fn contention_larger_for_llc_resident_weights() {
        let m = model();
        let small = m.fc_contention(512 * 1024, 4, 80, false);
        let large = m.fc_contention(8 << 20, 4, 80, false);
        assert!(large > 3.0 * small, "{small} vs {large}");
        // In the paper's ballpark: 12-30% for large FCs.
        assert!((0.10..0.36).contains(&large), "{large}");
    }

    #[test]
    fn nmp_relieves_contention() {
        let m = model();
        let base = m.fc_contention(8 << 20, 4, 80, false);
        let nmp = m.fc_contention(8 << 20, 4, 80, true);
        assert!(nmp < 0.3 * base);
    }

    #[test]
    fn contention_grows_with_pooling() {
        let m = model();
        let lo = m.fc_contention(8 << 20, 4, 20, false);
        let hi = m.fc_contention(8 << 20, 4, 80, false);
        assert!(hi > lo);
    }

    #[test]
    fn end_to_end_speedup_exceeds_one_and_respects_amdahl() {
        let m = model();
        let cfg = RecModelKind::Rm2Large.config();
        let s = m.end_to_end_speedup(&cfg, 256, 1, 9.8);
        let f = m.breakdown(&cfg, 256).sls_fraction();
        let amdahl = 1.0 / (1.0 - f + f / 9.8);
        assert!(s > 1.0);
        // FC relief can push slightly past plain Amdahl but not wildly.
        assert!(s <= amdahl * 1.3, "{s} vs amdahl {amdahl}");
    }

    #[test]
    fn speedup_ordering_matches_figure_18() {
        // RM2-large > RM2-small > RM1-large > RM1-small at batch 256.
        let m = model();
        let s: Vec<f64> = RecModelKind::ALL
            .iter()
            .map(|k| m.end_to_end_speedup(&k.config(), 256, 1, 9.8))
            .collect();
        assert!(s[3] > s[2] && s[2] > s[1] && s[1] > s[0], "{s:?}");
    }
}
