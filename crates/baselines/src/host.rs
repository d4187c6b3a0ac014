//! The conventional CPU/DRAM baseline.

use recnmp_backend::report::dram_delta;
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_dram::{DramConfig, MemorySystem};
use recnmp_types::{ConfigError, PhysAddr, SimError};

use crate::Counted;

/// The host baseline: SLS lookups served as ordinary cacheline reads over
/// one memory channel, pooled on the CPU.
///
/// # Examples
///
/// ```
/// use recnmp_baselines::HostBaseline;
/// use recnmp_types::PhysAddr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut host = HostBaseline::new(1, 2)?;
/// let addrs: Vec<PhysAddr> = (0..64u64).map(|i| PhysAddr::new(i * 4096)).collect();
/// let report = host.serve(&addrs, 1)?;
/// assert_eq!(report.insts, 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HostBaseline {
    mem: MemorySystem,
}

impl HostBaseline {
    /// Builds the baseline channel (`dimms x ranks_per_dimm`, Table I
    /// policies).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn new(dimms: u8, ranks_per_dimm: u8) -> Result<Self, ConfigError> {
        Self::with_config(DramConfig::with_ranks(dimms, ranks_per_dimm))
    }

    /// Builds the baseline from an explicit DRAM configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn with_config(config: DramConfig) -> Result<Self, ConfigError> {
        Ok(Self {
            mem: MemorySystem::new(config)?,
        })
    }

    /// Access to the underlying memory system (e.g. for monitors).
    pub fn memory(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Serves one lookup trace: each vector of `bursts_per_vector`
    /// 64-byte bursts is read in full over the channel. The report covers
    /// this call only (row-buffer state persists across calls).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if the channel livelocks.
    pub fn serve(
        &mut self,
        vectors: &[PhysAddr],
        bursts_per_vector: u8,
    ) -> Result<RunReport, SimError> {
        self.serve_vectors(vectors.iter().copied(), vectors.len(), bursts_per_vector)
    }

    /// [`serve`](Self::serve) over `count` vectors from an iterator,
    /// streamed into the channel: it holds O(queue) requests, not the
    /// trace.
    fn serve_vectors(
        &mut self,
        vectors: impl Iterator<Item = PhysAddr>,
        count: usize,
        bursts_per_vector: u8,
    ) -> Result<RunReport, SimError> {
        let start = self.mem.cycle();
        let before = self.mem.stats().clone();
        let reads = vectors.flat_map(move |addr| {
            (0..bursts_per_vector as u64).map(move |b| (addr.offset(b * 64), start))
        });
        let left = count * bursts_per_vector as usize;
        let summary = self.mem.run_stream(Counted { iter: reads, left })?;
        let end = summary.last_finish.unwrap_or(start);
        let bursts = count as u64 * bursts_per_vector as u64;
        Ok(RunReport {
            system: "host".into(),
            total_cycles: end - start,
            insts: count as u64,
            dram: dram_delta(self.mem.stats(), &before),
            dram_bursts: bursts,
            // The CPU reads every embedding burst over the channel.
            gathered_bytes: bursts * 64,
            io_bytes: bursts * 64,
            ..RunReport::default()
        })
    }
}

impl SlsBackend for HostBaseline {
    fn name(&self) -> &str {
        "host"
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let count = trace.total_lookups() as usize;
        self.serve_vectors(trace.flat_addrs(), count, trace.bursts_per_vector())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_types::rng::DetRng;

    fn random_addrs(n: usize, seed: u64) -> Vec<PhysAddr> {
        let mut rng = DetRng::seed(seed);
        (0..n)
            .map(|_| PhysAddr::new(rng.below(8 << 30) & !63))
            .collect()
    }

    #[test]
    fn serves_every_vector() {
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = host.serve(&random_addrs(100, 1), 1).unwrap();
        assert_eq!(report.insts, 100);
        assert_eq!(report.dram.reads, 100);
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn multi_burst_vectors_read_all_bursts() {
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = host.serve(&random_addrs(50, 2), 4).unwrap();
        assert_eq!(report.dram_bursts, 200);
        assert_eq!(report.dram.reads, 200);
    }

    #[test]
    fn data_bus_bounds_throughput() {
        // Random 64-byte reads cannot beat the 16 B/cycle channel data
        // bus: at least 4 cycles per vector.
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = host.serve(&random_addrs(500, 3), 1).unwrap();
        assert!(
            report.cycles_per_lookup() >= 4.0,
            "{}",
            report.cycles_per_lookup()
        );
        // And random traffic on 2 ranks should stay within ~3x of the
        // streaming bound.
        assert!(
            report.cycles_per_lookup() < 12.0,
            "{}",
            report.cycles_per_lookup()
        );
    }

    #[test]
    fn sequential_runs_report_deltas() {
        // Delta semantics: each report covers its own run even though the
        // controller's internal counters keep accumulating.
        let mut host = HostBaseline::new(1, 2).unwrap();
        let r1 = host.serve(&random_addrs(10, 4), 1).unwrap();
        let r2 = host.serve(&random_addrs(10, 5), 1).unwrap();
        assert_eq!(r1.dram.reads, 10);
        assert_eq!(r2.dram.reads, 10);
        assert_eq!(r2.insts, 10);
        // The lifetime view stays available on the memory system itself.
        assert_eq!(host.memory().stats().reads, 20);
    }
}
