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
use recnmp_dram::{DramConfig, DramStats, MemorySystem};
use recnmp_types::{ConfigError, PhysAddr, SimError};

use crate::Counted;

/// A DIMM-level NMP system: per-DIMM memory controllers fed by a
/// rate-limited shared command stream. Build one with
/// [`tensordimm`](Self::tensordimm) or [`chameleon`](Self::chameleon).
///
/// # Examples
///
/// ```
/// use recnmp_baselines::{DimmLevelNmp, DramConfig, SlsBackend};
///
/// # fn main() -> Result<(), recnmp_types::ConfigError> {
/// // The same 4-DIMM x 2-rank channel the host baseline would use.
/// let channel = DramConfig::with_ranks(4, 2);
/// let td = DimmLevelNmp::tensordimm(channel.clone())?;
/// let ch = DimmLevelNmp::chameleon(channel)?;
/// assert_eq!((td.name(), ch.name()), ("tensordimm", "chameleon"));
/// # Ok(())
/// # }
/// ```
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
    /// TensorDIMM (MICRO 2019): DIMM-level NMP with the standard command
    /// cost, PRE + ACT plus one RD per burst on the shared C/A bus.
    /// `channel` is the host channel it replaces: one controller per DIMM
    /// runs its ranks, refresh and engine settings.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero DIMMs or an invalid DRAM
    /// configuration.
    pub fn tensordimm(channel: DramConfig) -> Result<Self, ConfigError> {
        Self::build("tensordimm", channel, 2)
    }

    /// Chameleon (MICRO 2016): NDA accelerators with multiplexed C/A,
    /// PRE + ACT plus one time-multiplexed NDA control word per vector.
    /// `channel` is read as for [`tensordimm`](Self::tensordimm).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero DIMMs or an invalid DRAM
    /// configuration.
    pub fn chameleon(channel: DramConfig) -> Result<Self, ConfigError> {
        Self::build("chameleon", channel, 3)
    }

    fn build(
        name: &'static str,
        channel: DramConfig,
        cmd_overhead_per_vector: u64,
    ) -> Result<Self, ConfigError> {
        if channel.dimms == 0 {
            return Err(ConfigError::new("dimms", "must be positive"));
        }
        let dimm = DramConfig {
            dimms: 1,
            ..channel
        };
        let dimms = (0..channel.dimms)
            .map(|_| MemorySystem::new(dimm.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            name,
            dimms,
            cmd_overhead_per_vector,
        })
    }
}

impl SlsBackend for DimmLevelNmp {
    fn name(&self) -> &str {
        self.name
    }

    /// Serves a lookup trace. Vectors are assigned to DIMMs by address
    /// interleave: a 64-byte vector lands in one DIMM; larger vectors
    /// spread consecutive bursts across DIMMs (the TensorDIMM layout).
    /// Each DIMM streams its own share of the trace, so a run holds
    /// O(queue) requests, not the trace.
    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let bursts_per_vector = trace.bursts_per_vector() as u64;
        let n = self.dimms.len() as u64;
        let start = self.dimms.iter().map(|d| d.cycle()).max().unwrap_or(0);
        let stagger = self.cmd_overhead_per_vector + bursts_per_vector;
        // Burst `b` of a vector lives on DIMM `(burst0 + b) mod n`.
        let bursts_of = move |addr: PhysAddr| {
            let burst0 = addr.get() >> 6;
            burst0..burst0 + bursts_per_vector
        };
        let mut share = vec![0usize; self.dimms.len()];
        for burst in trace.flat_addrs().flat_map(bursts_of) {
            share[(burst % n) as usize] += 1;
        }
        let mut end = start;
        let mut bursts = 0;
        let mut dram = DramStats::new();
        // A stall returns at once: no DIMM holds requests of this call
        // before its own run, so later DIMMs are left untouched.
        for (d, (mem, &left)) in self.dimms.iter_mut().zip(&share).enumerate() {
            let before = mem.stats().clone();
            let reads = trace.flat_addrs().enumerate().flat_map(move |(i, addr)| {
                // Shared C/A bus: one vector's command bundle per
                // `stagger` slots (PRE/ACT overhead + one RD per burst).
                let arrival = start + i as u64 * stagger;
                // The DIMM-local address drops the interleave bits.
                bursts_of(addr)
                    .filter(move |burst| burst % n == d as u64)
                    .map(move |burst| (PhysAddr::new((burst / n) << 6), arrival))
            });
            mem.run_stream(Counted { iter: reads, left }, |_| {})?;
            end = end.max(mem.cycle());
            let delta = dram_delta(mem.stats(), &before);
            bursts += delta.reads;
            add_dram(&mut dram, &delta);
        }
        Ok(RunReport {
            system: self.name.into(),
            total_cycles: end - start,
            insts: trace.total_lookups(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{random_addrs, trace_of};

    fn tensordimm(dimms: u8, ranks_per_dimm: u8) -> DimmLevelNmp {
        DimmLevelNmp::tensordimm(DramConfig::with_ranks(dimms, ranks_per_dimm)).unwrap()
    }

    #[test]
    fn all_vectors_complete() {
        let mut td = tensordimm(4, 1);
        let report = td.try_run(&trace_of(&random_addrs(200, 1, 4), 1)).unwrap();
        assert_eq!(report.insts, 200);
        assert_eq!(report.dram_bursts, 200);
    }

    #[test]
    fn delivery_rate_caps_tensordimm() {
        // 64-byte vectors: TensorDIMM is C/A-delivery-bound at ~3
        // cycles/vector no matter how many DIMMs.
        let mut td = tensordimm(4, 2);
        let report = td.try_run(&trace_of(&random_addrs(400, 2, 4), 1)).unwrap();
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
        let trace = trace_of(&random_addrs(400, 3, 4), 1);
        let mut td = tensordimm(4, 2);
        let mut ch = DimmLevelNmp::chameleon(DramConfig::with_ranks(4, 2)).unwrap();
        let t = td.try_run(&trace).unwrap().total_cycles;
        let c = ch.try_run(&trace).unwrap().total_cycles;
        assert!(c > t, "chameleon {c} vs tensordimm {t}");
    }

    #[test]
    fn large_vectors_interleave_across_dimms() {
        // A 256-byte vector spreads over 4 DIMMs: TensorDIMM's design
        // point. Throughput per vector should beat 4 sequential bursts on
        // one DIMM.
        let mut td = tensordimm(4, 1);
        let report = td.try_run(&trace_of(&random_addrs(100, 4, 4), 4)).unwrap();
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
        let addrs = random_addrs(100, 5, 4);
        let repeated: Vec<PhysAddr> = addrs.iter().chain(addrs.iter()).copied().collect();
        let mut td1 = tensordimm(2, 2);
        let mut td2 = tensordimm(2, 2);
        let once = td1.try_run(&trace_of(&addrs, 1)).unwrap();
        let twice = td2.try_run(&trace_of(&repeated, 1)).unwrap();
        let (once, twice) = (once.cycles_per_lookup(), twice.cycles_per_lookup());
        assert!((twice - once).abs() < 0.5 * once, "{once} vs {twice}");
    }

    #[test]
    fn back_to_back_runs_report_deltas() {
        let mut td = tensordimm(2, 2);
        let r1 = td.try_run(&trace_of(&random_addrs(50, 6, 4), 1)).unwrap();
        let r2 = td.try_run(&trace_of(&random_addrs(50, 7, 4), 1)).unwrap();
        assert_eq!(r1.dram.reads, 50);
        assert_eq!(r2.dram.reads, 50);
        assert_eq!(r2.dram_bursts, 50);
    }

    #[test]
    fn zero_dimms_is_a_config_error() {
        let channel = DramConfig::with_ranks(0, 2);
        for err in [
            DimmLevelNmp::tensordimm(channel.clone()).err(),
            DimmLevelNmp::chameleon(channel).err(),
        ] {
            assert_eq!(err.expect("zero DIMMs must be rejected").field(), "dimms");
        }
    }
}
