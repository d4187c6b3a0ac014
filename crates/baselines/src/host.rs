//! The conventional CPU/DRAM baseline.

use recnmp_backend::report::dram_delta;
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_dram::{DramConfig, MemorySystem};
use recnmp_types::{ConfigError, SimError};

use crate::Counted;

/// The host baseline: SLS lookups served as ordinary cacheline reads over
/// one memory channel, pooled on the CPU.
///
/// # Examples
///
/// ```
/// use recnmp_baselines::{HostBaseline, SlsBackend, SlsTrace};
/// use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
/// use recnmp_types::{PhysAddr, TableId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = EmbeddingTableSpec::dlrm_default();
/// let batch = TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Uniform, 7)
///     .batch(4, 16);
/// let trace = SlsTrace::from_batches(&[batch], &mut |_, row| PhysAddr::new(row * 128));
///
/// let mut host = HostBaseline::new(1, 2)?;
/// let report = host.try_run(&trace)?;
/// assert_eq!(report.insts, 64);
/// // Every 128-byte vector crosses the channel as two 64-byte bursts.
/// assert_eq!(report.dram.reads, 128);
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

    /// Main-loop iterations the channel's DRAM engine has executed (see
    /// [`MemorySystem::loop_iterations`]), like
    /// `RankNmp::dram_loop_iterations` on the RecNMP side.
    pub fn dram_loop_iterations(&self) -> u64 {
        self.mem.loop_iterations()
    }
}

impl SlsBackend for HostBaseline {
    fn name(&self) -> &str {
        "host"
    }

    /// Serves a lookup trace: each vector's bursts are read in full over
    /// the channel, streamed in, so a run holds O(queue) requests, not
    /// the trace.
    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let bursts_per_vector = trace.bursts_per_vector() as u64;
        let start = self.mem.cycle();
        let before = self.mem.stats().clone();
        let reads = trace.flat_addrs().flat_map(move |addr| {
            (0..bursts_per_vector).map(move |b| (addr.offset(b * 64), start))
        });
        let bursts = trace.total_lookups() * bursts_per_vector;
        let left = bursts as usize;
        self.mem.run_stream(Counted { iter: reads, left }, |_| {})?;
        Ok(RunReport {
            system: "host".into(),
            total_cycles: self.mem.cycle() - start,
            insts: trace.total_lookups(),
            dram: dram_delta(self.mem.stats(), &before),
            dram_bursts: bursts,
            // The CPU reads every embedding burst over the channel.
            gathered_bytes: bursts * 64,
            io_bytes: bursts * 64,
            ..RunReport::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{random_addrs, trace_of};

    #[test]
    fn serves_every_vector() {
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = host
            .try_run(&trace_of(&random_addrs(100, 1, 8), 1))
            .unwrap();
        assert_eq!(report.insts, 100);
        assert_eq!(report.dram.reads, 100);
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn try_run_on_rejects_a_second_server() {
        let mut host = HostBaseline::new(1, 2).unwrap();
        let trace = trace_of(&random_addrs(4, 1, 8), 1);
        let err = host.try_run_on(1, &trace).unwrap_err();
        assert!(
            matches!(&err, SimError::Config(e) if e.field() == "server"),
            "{err}"
        );
    }

    #[test]
    fn multi_burst_vectors_read_all_bursts() {
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = host.try_run(&trace_of(&random_addrs(50, 2, 8), 4)).unwrap();
        assert_eq!(report.dram_bursts, 200);
        assert_eq!(report.dram.reads, 200);
    }

    #[test]
    fn data_bus_bounds_throughput() {
        // Random 64-byte reads cannot beat the 16 B/cycle channel data
        // bus: at least 4 cycles per vector.
        let mut host = HostBaseline::new(1, 2).unwrap();
        let report = host
            .try_run(&trace_of(&random_addrs(500, 3, 8), 1))
            .unwrap();
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
        let r1 = host.try_run(&trace_of(&random_addrs(10, 4, 8), 1)).unwrap();
        let r2 = host.try_run(&trace_of(&random_addrs(10, 5, 8), 1)).unwrap();
        assert_eq!(r1.dram.reads, 10);
        assert_eq!(r2.dram.reads, 10);
        assert_eq!(r2.insts, 10);
    }

    #[test]
    fn bad_shards_are_a_config_error() {
        // The single-server default `try_run_shards` checks its shards
        // like the multi-channel overrides do.
        let mut host = HostBaseline::new(1, 2).unwrap();
        let trace = trace_of(&random_addrs(4, 6, 8), 1);
        for shards in [
            vec![(1, trace.clone())],
            vec![(0, trace.clone()), (0, trace)],
        ] {
            match host.try_run_shards(&shards) {
                Err(SimError::Config(e)) => assert_eq!(e.field(), "shards"),
                other => panic!("expected a config error, got {other:?}"),
            }
        }
    }
}
