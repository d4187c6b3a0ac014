//! DIMM-level NMP comparators: TensorDIMM and Chameleon.
//!
//! Both systems reduce embedding vectors inside the DIMM, so pooled
//! results (not raw vectors) cross the channel — but both are driven by
//! the *host* memory controller over the shared, conventional C/A bus:
//!
//! * **TensorDIMM** spends the standard ~3 command slots (PRE/ACT/RD) per
//!   low-locality vector. Its 64-byte-across-DIMMs interleave only helps
//!   vectors larger than 64 B; the paper's worst-case 64-byte vectors land
//!   entirely in one DIMM.
//! * **Chameleon** adds one more slot per vector for its time-multiplexed
//!   NDA command protocol (the paper simulates its temporal/spatial
//!   multiplexed C/A and DQ timing; we model the same delivery cost).
//!
//! Neither has a memory-side cache, so (per the paper) their latency is
//! insensitive to trace locality.

use recnmp_backend::report::{add_dram, dram_delta};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_dram::{DramConfig, DramStats, MemorySystem, SimEngine};
use recnmp_types::{ConfigError, PhysAddr, SimError};

use crate::Counted;

/// Shared engine for DIMM-level NMP systems: per-DIMM memory controllers
/// fed by a rate-limited shared command stream.
#[derive(Debug)]
pub struct DimmLevelNmp {
    name: &'static str,
    dimms: Vec<MemorySystem>,
    /// Shared-bus command slots per vector *beyond* the per-burst RDs
    /// (PRE + ACT for TensorDIMM, plus the NDA control word for
    /// Chameleon). Total stagger per vector = this + bursts.
    cmd_overhead_per_vector: u64,
}

impl DimmLevelNmp {
    /// Builds a system of `dimms` DIMMs with `ranks_per_dimm` ranks each;
    /// each vector costs `cmd_overhead_per_vector + bursts` slots on the
    /// shared C/A bus.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero DIMMs or invalid DRAM
    /// configurations.
    pub fn new(
        name: &'static str,
        dimms: u8,
        ranks_per_dimm: u8,
        cmd_overhead_per_vector: u64,
    ) -> Result<Self, ConfigError> {
        Self::with_refresh(name, dimms, ranks_per_dimm, cmd_overhead_per_vector, true)
    }

    /// Like [`new`](Self::new) with explicit refresh simulation — matched
    /// comparisons must run every system under the same refresh setting.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero DIMMs or invalid DRAM
    /// configurations.
    pub fn with_refresh(
        name: &'static str,
        dimms: u8,
        ranks_per_dimm: u8,
        cmd_overhead_per_vector: u64,
        refresh: bool,
    ) -> Result<Self, ConfigError> {
        if dimms == 0 {
            return Err(ConfigError::new("dimms", "must be positive"));
        }
        let dimm_systems = (0..dimms)
            .map(|_| {
                let mut cfg = DramConfig::with_ranks(1, ranks_per_dimm);
                cfg.refresh = refresh;
                MemorySystem::new(cfg)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            name,
            dimms: dimm_systems,
            cmd_overhead_per_vector,
        })
    }

    /// Switches the main-loop strategy of every per-DIMM memory controller
    /// (used by the engine-equivalence suite).
    pub fn set_engine(&mut self, engine: SimEngine) {
        for dimm in &mut self.dimms {
            dimm.set_engine(engine);
        }
    }

    /// Serves a lookup trace. Vectors are assigned to DIMMs by address
    /// interleave: a 64-byte vector lands in one DIMM; larger vectors
    /// spread consecutive bursts across DIMMs (the TensorDIMM layout).
    /// The report covers this call only.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if any per-DIMM channel livelocks.
    pub fn serve(
        &mut self,
        vectors: &[PhysAddr],
        bursts_per_vector: u8,
    ) -> Result<RunReport, SimError> {
        self.serve_vectors(vectors.iter().copied(), bursts_per_vector)
    }

    /// [`serve`](Self::serve) over an iterator of vectors: each DIMM
    /// streams its own share of the trace, so it holds O(queue) requests,
    /// not the trace.
    fn serve_vectors(
        &mut self,
        vectors: impl Iterator<Item = PhysAddr> + Clone,
        bursts_per_vector: u8,
    ) -> Result<RunReport, SimError> {
        let n = self.dimms.len() as u64;
        let start = self.dimms.iter().map(|d| d.cycle()).max().unwrap_or(0);
        let stagger = self.cmd_overhead_per_vector + bursts_per_vector as u64;
        // Burst `b` of a vector lives on DIMM `(burst0 + b) mod n`.
        let bursts_of = move |addr: PhysAddr| {
            let burst0 = addr.get() >> 6;
            burst0..burst0 + bursts_per_vector as u64
        };
        let mut insts = 0u64;
        let mut share = vec![0usize; self.dimms.len()];
        for addr in vectors.clone() {
            insts += 1;
            for burst in bursts_of(addr) {
                share[(burst % n) as usize] += 1;
            }
        }
        let mut end = start;
        let mut bursts = 0;
        let mut dram = DramStats::new();
        // A stall returns at once: no DIMM holds requests of this call
        // before its own run, so later DIMMs are left untouched.
        for (d, (mem, &left)) in self.dimms.iter_mut().zip(&share).enumerate() {
            let before = mem.stats().clone();
            let reads = vectors.clone().enumerate().flat_map(move |(i, addr)| {
                // Shared C/A bus: one vector's command bundle per
                // `stagger` slots (PRE/ACT overhead + one RD per burst).
                let arrival = start + i as u64 * stagger;
                // The DIMM-local address drops the interleave bits.
                bursts_of(addr)
                    .filter(move |burst| burst % n == d as u64)
                    .map(move |burst| (PhysAddr::new((burst / n) << 6), arrival))
            });
            let summary = mem.run_stream(Counted { iter: reads, left })?;
            end = end.max(summary.last_finish.unwrap_or(start));
            bursts += summary.completed;
            add_dram(&mut dram, &dram_delta(mem.stats(), &before));
        }
        Ok(RunReport {
            system: self.name.into(),
            total_cycles: end - start,
            insts,
            dram,
            dram_bursts: bursts,
            gathered_bytes: bursts * 64,
            // Reduction happens in the DIMM; pooled sums cross the
            // channel, but command traffic dominates the interface cost
            // modeled here, so byte accounting keeps the gathered view.
            io_bytes: bursts * 64,
            ..RunReport::default()
        })
    }
}

impl SlsBackend for DimmLevelNmp {
    fn name(&self) -> &str {
        self.name
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        self.serve_vectors(trace.flat_addrs(), trace.bursts_per_vector())
    }
}

/// TensorDIMM (MICRO 2019): DIMM-level NMP with standard command cost.
#[derive(Debug)]
pub struct TensorDimm(DimmLevelNmp);

impl TensorDimm {
    /// Builds a TensorDIMM system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid DRAM configurations.
    pub fn new(dimms: u8, ranks_per_dimm: u8) -> Result<Self, ConfigError> {
        Self::with_refresh(dimms, ranks_per_dimm, true)
    }

    /// Builds a TensorDIMM system with explicit refresh simulation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid DRAM configurations.
    pub fn with_refresh(dimms: u8, ranks_per_dimm: u8, refresh: bool) -> Result<Self, ConfigError> {
        // PRE + ACT overhead plus one RD per burst on the shared C/A bus.
        Ok(Self(DimmLevelNmp::with_refresh(
            "tensordimm",
            dimms,
            ranks_per_dimm,
            2,
            refresh,
        )?))
    }

    /// Switches the main-loop strategy of every per-DIMM controller.
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.0.set_engine(engine);
    }

    /// Serves a lookup trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if any per-DIMM channel livelocks.
    pub fn serve(
        &mut self,
        vectors: &[PhysAddr],
        bursts_per_vector: u8,
    ) -> Result<RunReport, SimError> {
        self.0.serve(vectors, bursts_per_vector)
    }
}

impl SlsBackend for TensorDimm {
    fn name(&self) -> &str {
        "tensordimm"
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        self.0.try_run(trace)
    }
}

/// Chameleon (MICRO 2016): NDA accelerators with multiplexed C/A.
#[derive(Debug)]
pub struct Chameleon(DimmLevelNmp);

impl Chameleon {
    /// Builds a Chameleon system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid DRAM configurations.
    pub fn new(dimms: u8, ranks_per_dimm: u8) -> Result<Self, ConfigError> {
        Self::with_refresh(dimms, ranks_per_dimm, true)
    }

    /// Builds a Chameleon system with explicit refresh simulation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid DRAM configurations.
    pub fn with_refresh(dimms: u8, ranks_per_dimm: u8, refresh: bool) -> Result<Self, ConfigError> {
        // PRE + ACT plus one time-multiplexed NDA control word per vector.
        Ok(Self(DimmLevelNmp::with_refresh(
            "chameleon",
            dimms,
            ranks_per_dimm,
            3,
            refresh,
        )?))
    }

    /// Switches the main-loop strategy of every per-DIMM controller.
    pub fn set_engine(&mut self, engine: SimEngine) {
        self.0.set_engine(engine);
    }

    /// Serves a lookup trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if any per-DIMM channel livelocks.
    pub fn serve(
        &mut self,
        vectors: &[PhysAddr],
        bursts_per_vector: u8,
    ) -> Result<RunReport, SimError> {
        self.0.serve(vectors, bursts_per_vector)
    }
}

impl SlsBackend for Chameleon {
    fn name(&self) -> &str {
        "chameleon"
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        self.0.try_run(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_types::rng::DetRng;

    fn random_addrs(n: usize, seed: u64) -> Vec<PhysAddr> {
        let mut rng = DetRng::seed(seed);
        (0..n)
            .map(|_| PhysAddr::new(rng.below(4 << 30) & !63))
            .collect()
    }

    #[test]
    fn all_vectors_complete() {
        let mut td = TensorDimm::new(4, 1).unwrap();
        let report = td.serve(&random_addrs(200, 1), 1).unwrap();
        assert_eq!(report.insts, 200);
        assert_eq!(report.dram_bursts, 200);
    }

    #[test]
    fn delivery_rate_caps_tensordimm() {
        // 64-byte vectors: TensorDIMM is C/A-delivery-bound at ~3
        // cycles/vector no matter how many DIMMs.
        let mut td = TensorDimm::new(4, 2).unwrap();
        let report = td.serve(&random_addrs(400, 2), 1).unwrap();
        assert!(
            report.cycles_per_lookup() >= 3.0,
            "{}",
            report.cycles_per_lookup()
        );
        assert!(
            report.cycles_per_lookup() < 6.0,
            "{}",
            report.cycles_per_lookup()
        );
    }

    #[test]
    fn chameleon_is_slower_than_tensordimm() {
        let addrs = random_addrs(400, 3);
        let mut td = TensorDimm::new(4, 2).unwrap();
        let mut ch = Chameleon::new(4, 2).unwrap();
        let t = td.serve(&addrs, 1).unwrap().total_cycles;
        let c = ch.serve(&addrs, 1).unwrap().total_cycles;
        assert!(c > t, "chameleon {c} vs tensordimm {t}");
    }

    #[test]
    fn large_vectors_interleave_across_dimms() {
        // A 256-byte vector spreads over 4 DIMMs: TensorDIMM's design
        // point. Throughput per vector should beat 4 sequential bursts on
        // one DIMM.
        let mut td = TensorDimm::new(4, 1).unwrap();
        let report = td.serve(&random_addrs(100, 4), 4).unwrap();
        assert_eq!(report.dram_bursts, 400);
        // Delivery is 3 cycles/vector; data 4x4=16 cycles/vector spread
        // over 4 DIMMs = 4 cycles/vector effective.
        assert!(
            report.cycles_per_lookup() < 12.0,
            "{}",
            report.cycles_per_lookup()
        );
    }

    #[test]
    fn locality_insensitive_without_cache() {
        // The same addresses repeated give roughly the same cycles per
        // lookup (row-buffer effects aside) — no memory-side cache.
        let addrs = random_addrs(100, 5);
        let repeated: Vec<PhysAddr> = addrs.iter().chain(addrs.iter()).copied().collect();
        let mut td1 = TensorDimm::new(2, 2).unwrap();
        let mut td2 = TensorDimm::new(2, 2).unwrap();
        let once = td1.serve(&addrs, 1).unwrap().cycles_per_lookup();
        let twice = td2.serve(&repeated, 1).unwrap().cycles_per_lookup();
        assert!((twice - once).abs() < 0.5 * once, "{once} vs {twice}");
    }

    #[test]
    fn back_to_back_runs_report_deltas() {
        let mut td = TensorDimm::new(2, 2).unwrap();
        let r1 = td.serve(&random_addrs(50, 6), 1).unwrap();
        let r2 = td.serve(&random_addrs(50, 7), 1).unwrap();
        assert_eq!(r1.dram.reads, 50);
        assert_eq!(r2.dram.reads, 50);
        assert_eq!(r2.dram_bursts, 50);
    }

    #[test]
    fn zero_dimms_is_a_config_error() {
        for err in [TensorDimm::new(0, 2).err(), Chameleon::new(0, 2).err()] {
            assert_eq!(err.expect("zero DIMMs must be rejected").field(), "dimms");
        }
    }
}
