//! The SLS memory-latency comparison engine (Figures 14, 15, 16).
//!
//! One [`SpeedupEngine`] owns a workload and serves it, from identical
//! physical traces, to any [`SlsBackend`] — the DRAM host baseline,
//! RecNMP configurations, the DIMM-level NMP comparators, multi-channel
//! clusters, and whatever comes next — reporting the unified
//! [`RunReport`] for each. The engine has no backend-specific logic:
//! every run goes through [`SpeedupEngine::run_backend`].

use recnmp::{ExecutionMode, RecNmpConfig, RecNmpSystem};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_baselines::{DimmLevelNmp, HostBaseline};
use recnmp_types::{ConfigError, PhysAddr};
use serde::{Deserialize, Serialize};

use crate::workload::{SlsWorkload, TableLayout, TraceKind};

/// Two systems' reports on the same trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlsComparison {
    /// The baseline system's report (conventionally the host).
    pub baseline: RunReport,
    /// The accelerated system's report (conventionally RecNMP).
    pub nmp: RunReport,
}

impl SlsComparison {
    /// Baseline cycles per lookup.
    pub fn baseline_cpl(&self) -> f64 {
        self.baseline.cycles_per_lookup()
    }

    /// Accelerated-system cycles per lookup.
    pub fn nmp_cpl(&self) -> f64 {
        self.nmp.cycles_per_lookup()
    }

    /// Memory-latency speedup of the accelerated system over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.nmp_cpl() == 0.0 {
            0.0
        } else {
            self.baseline_cpl() / self.nmp_cpl()
        }
    }
}

/// Builds matched SLS traces and runs them through [`SlsBackend`]s.
#[derive(Debug)]
pub struct SpeedupEngine {
    workload: SlsWorkload,
    seed: u64,
}

impl SpeedupEngine {
    /// Creates an engine over a workload.
    pub fn new(workload: SlsWorkload, seed: u64) -> Self {
        Self { workload, seed }
    }

    /// Convenience constructor: `tables` tables, `rounds` windows of
    /// `batch_size` poolings of 80.
    pub fn with_workload(
        kind: TraceKind,
        tables: usize,
        rounds: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        Self::new(
            SlsWorkload::build(kind, tables, rounds, batch_size, 80, seed),
            seed,
        )
    }

    /// The workload.
    pub fn workload(&self) -> &SlsWorkload {
        &self.workload
    }

    fn capacity_for(config: &RecNmpConfig) -> u64 {
        config.geometry().capacity_bytes()
    }

    /// The shared physical trace for a comparison at `config`'s geometry:
    /// tables laid out contiguously in logical space, pages mapped
    /// randomly. Every backend in one comparison serves this same trace.
    pub fn trace_for(&self, config: &RecNmpConfig) -> SlsTrace {
        let mut layout = TableLayout::random(
            &self.workload.specs,
            Self::capacity_for(config),
            self.seed ^ 0xfeed,
        );
        self.workload.trace(&mut |t, r| layout.translate(t, r))
    }

    /// The page-colored variant of the shared trace (Figure 14(a)): each
    /// table's pages are pinned to the rank matching its color.
    pub fn colored_trace_for(&self, config: &RecNmpConfig) -> SlsTrace {
        let ranks = config.total_ranks() as u32;
        // Color = the rank a page's bursts decode to (a 4 KiB page spans
        // 64 columns of one row, hence a single rank even under the XOR
        // mapping). Page-colored OS allocation needs a capture-free
        // function, so pick the decoder matching the rank count.
        fn decode_rank<const R: u8>(frame: u64) -> u32 {
            recnmp_dram::AddressMapping::SkylakeXor
                .decode(
                    PhysAddr::new(frame * 4096),
                    &recnmp_dram::address::Geometry::ddr4_8gb_x8(R),
                )
                .rank as u32
        }
        let color_of: fn(u64) -> u32 = match config.total_ranks() {
            1 => decode_rank::<1>,
            2 => decode_rank::<2>,
            4 => decode_rank::<4>,
            8 => decode_rank::<8>,
            _ => decode_rank::<2>,
        };
        let mut layout = crate::workload::TableLayout::colored(
            &self.workload.specs,
            Self::capacity_for(config),
            self.seed ^ 0xc01c,
            color_of,
            ranks,
        );
        self.workload.trace(&mut |t, r| layout.translate(t, r))
    }

    /// Runs any backend on a trace. This is the single execution path of
    /// the engine — no backend-specific branches exist downstream of it.
    pub fn run_backend(&self, backend: &mut dyn SlsBackend, trace: &SlsTrace) -> RunReport {
        backend.run(trace)
    }

    /// Runs two backends on the same trace and pairs their reports.
    pub fn compare_backends(
        &self,
        baseline: &mut dyn SlsBackend,
        accelerated: &mut dyn SlsBackend,
        trace: &SlsTrace,
    ) -> SlsComparison {
        SlsComparison {
            baseline: self.run_backend(baseline, trace),
            nmp: self.run_backend(accelerated, trace),
        }
    }

    /// Runs the host baseline on the shared trace, on the channel
    /// matching `config` ([`RecNmpConfig::host_dram_config`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn run_host(&self, config: &RecNmpConfig) -> Result<RunReport, ConfigError> {
        let mut host = HostBaseline::with_config(config.host_dram_config())?;
        Ok(self.run_backend(&mut host, &self.trace_for(config)))
    }

    /// Runs a RecNMP configuration on the shared trace.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn run_nmp(&self, config: &RecNmpConfig) -> Result<RunReport, ConfigError> {
        let mut sys = RecNmpSystem::new(config.clone())?;
        Ok(self.run_backend(&mut sys, &self.trace_for(config)))
    }

    /// Runs RecNMP with page-colored table placement (Figure 14(a)).
    ///
    /// Page coloring pays off only with task-level parallelism: packets
    /// from different tables run on different ranks simultaneously
    /// (paper, Section V-A), hence the overlapped execution mode.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn run_nmp_colored(&self, config: &RecNmpConfig) -> Result<RunReport, ConfigError> {
        let mut overlapped = config.clone();
        overlapped.execution = ExecutionMode::Overlapped;
        let mut sys = RecNmpSystem::new(overlapped)?;
        Ok(self.run_backend(&mut sys, &self.colored_trace_for(config)))
    }

    /// Runs TensorDIMM on the shared trace, on the channel matching
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn run_tensordimm(&self, config: &RecNmpConfig) -> Result<RunReport, ConfigError> {
        let mut td = DimmLevelNmp::tensordimm(config.host_dram_config())?;
        Ok(self.run_backend(&mut td, &self.trace_for(config)))
    }

    /// Runs Chameleon on the shared trace, on the channel matching
    /// `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn run_chameleon(&self, config: &RecNmpConfig) -> Result<RunReport, ConfigError> {
        let mut ch = DimmLevelNmp::chameleon(config.host_dram_config())?;
        Ok(self.run_backend(&mut ch, &self.trace_for(config)))
    }

    /// Full host-vs-RecNMP comparison: one shared trace, built once,
    /// served to both backends.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn compare(&self, config: &RecNmpConfig) -> Result<SlsComparison, ConfigError> {
        let trace = self.trace_for(config);
        let mut host = HostBaseline::with_config(config.host_dram_config())?;
        let mut sys = RecNmpSystem::new(config.clone())?;
        Ok(self.compare_backends(&mut host, &mut sys, &trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp::cluster::{RecNmpCluster, RecNmpClusterConfig};

    fn quiet(mut cfg: RecNmpConfig) -> RecNmpConfig {
        cfg.refresh = false;
        cfg
    }

    fn engine() -> SpeedupEngine {
        SpeedupEngine::with_workload(TraceKind::Production, 4, 1, 8, 11)
    }

    #[test]
    fn nmp_beats_host_on_8_ranks() {
        let e = engine();
        let cmp = e.compare(&quiet(RecNmpConfig::with_ranks(4, 2))).unwrap();
        assert!(
            cmp.speedup() > 2.0,
            "8-rank RecNMP-base speedup only {:.2}",
            cmp.speedup()
        );
        assert!(cmp.speedup() < 10.0, "{:.2}", cmp.speedup());
    }

    #[test]
    fn optimized_beats_base() {
        let e = engine();
        let base = e.compare(&quiet(RecNmpConfig::with_ranks(4, 2))).unwrap();
        let opt = e.compare(&quiet(RecNmpConfig::optimized(4, 2))).unwrap();
        assert!(
            opt.speedup() > base.speedup(),
            "base {:.2} vs opt {:.2}",
            base.speedup(),
            opt.speedup()
        );
    }

    #[test]
    fn recnmp_beats_dimm_level_comparators() {
        let e = engine();
        let cfg = quiet(RecNmpConfig::optimized(4, 2));
        let nmp = e.run_nmp(&cfg).unwrap();
        let td = e.run_tensordimm(&cfg).unwrap();
        let ch = e.run_chameleon(&cfg).unwrap();
        assert!(nmp.cycles_per_lookup() < td.cycles_per_lookup());
        assert!(td.cycles_per_lookup() < ch.cycles_per_lookup());
    }

    #[test]
    fn every_baseline_inherits_the_refresh_setting() {
        // The matched channel: host, TensorDIMM and Chameleon all run
        // under the RecNMP configuration's refresh setting.
        let e = engine();
        for refresh in [false, true] {
            let mut cfg = RecNmpConfig::optimized(2, 2);
            cfg.refresh = refresh;
            let runs = [
                e.run_host(&cfg).unwrap(),
                e.run_tensordimm(&cfg).unwrap(),
                e.run_chameleon(&cfg).unwrap(),
            ];
            for report in runs {
                let refs = report.dram.refs;
                assert_eq!(refs > 0, refresh, "{}: {refs} refreshes", report.system);
            }
        }
    }

    #[test]
    fn page_coloring_reaches_near_ideal_throughput() {
        // 8 tables on 8 ranks: coloring pins one table per rank and the
        // overlapped execution keeps all ranks busy — faster than the
        // serial-packet random layout (paper: 7.35x vs lower).
        let e = SpeedupEngine::with_workload(TraceKind::Production, 8, 1, 8, 13);
        let cfg = quiet(RecNmpConfig::with_ranks(4, 2));
        let random = e.run_nmp(&cfg).unwrap();
        let colored = e.run_nmp_colored(&cfg).unwrap();
        assert!(
            colored.total_cycles < random.total_cycles,
            "random {} vs colored {}",
            random.total_cycles,
            colored.total_cycles
        );
    }

    #[test]
    fn generic_backend_path_matches_named_helpers() {
        // run_host/run_nmp are thin wrappers over run_backend: driving the
        // backends directly through the trait gives identical reports.
        let e = engine();
        let cfg = quiet(RecNmpConfig::with_ranks(2, 2));
        let trace = e.trace_for(&cfg);

        let mut host = HostBaseline::with_config(cfg.host_dram_config()).unwrap();
        let mut sys = RecNmpSystem::new(cfg.clone()).unwrap();
        let cmp = e.compare_backends(&mut host, &mut sys, &trace);

        assert_eq!(cmp.baseline, e.run_host(&cfg).unwrap());
        assert_eq!(cmp.nmp, e.run_nmp(&cfg).unwrap());
    }

    #[test]
    fn cluster_drops_into_the_engine() {
        // A backend the engine has no named helper for runs through the
        // same generic path — the point of the SlsBackend redesign.
        let e = SpeedupEngine::with_workload(TraceKind::Production, 8, 1, 8, 29);
        let cfg = quiet(RecNmpConfig::with_ranks(1, 2));
        let trace = e.trace_for(&cfg);
        let mut cluster = RecNmpCluster::new(RecNmpClusterConfig::new(2, cfg.clone())).unwrap();
        let report = e.run_backend(&mut cluster, &trace);
        assert_eq!(report.insts, trace.total_lookups());
        let single = e.run_nmp(&cfg).unwrap();
        assert!(report.total_cycles < single.total_cycles);
    }
}
