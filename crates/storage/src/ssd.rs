//! One SSD unit with an in-storage SLS reduction engine.
//!
//! The model is analytic, not cycle-stepped: every latency source is a
//! deterministic integer timeline (per-die flash-array occupancy, per
//! flash-channel bus occupancy, the shared reduction pipeline, the host
//! link), all in DDR4-2400 cycles like the rest of the workspace, so an
//! SSD run composes directly with DRAM-channel runs inside one serving
//! schedule.
//!
//! The read path, per lookup:
//!
//! 1. the lookup's physical address names a flash *page*
//!    (`addr / page_bytes`); pages stripe across dies
//!    (`page mod dies`), dies stripe across flash channels;
//! 2. a page resident in the device-DRAM buffer is a *hit*: the vector
//!    is read from controller DRAM in [`buffer_read_cycles`];
//! 3. a miss occupies the die for the array read ([`read_latency`], tR)
//!    and then the die's flash-channel bus for the page transfer
//!    ([`channel_bus_cycles_per_page`]), landing the page in the buffer
//!    (deterministic LRU eviction);
//! 4. the pooling's vectors stream through the shared reduction unit
//!    ([`reduce_bytes_per_cycle`]); only the pooled sum crosses the host
//!    link ([`link_bytes_per_cycle`], after one [`link_latency`] command
//!    submission per run).
//!
//! [`buffer_read_cycles`]: SsdNmpConfig::buffer_read_cycles
//! [`read_latency`]: SsdNmpConfig::read_latency
//! [`channel_bus_cycles_per_page`]: SsdNmpConfig::channel_bus_cycles_per_page
//! [`reduce_bytes_per_cycle`]: SsdNmpConfig::reduce_bytes_per_cycle
//! [`link_bytes_per_cycle`]: SsdNmpConfig::link_bytes_per_cycle
//! [`link_latency`]: SsdNmpConfig::link_latency

use std::collections::BTreeMap;

use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_cache::CacheStats;
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};
use serde::{Deserialize, Serialize};

/// Geometry and latency parameters of one SSD unit.
///
/// The defaults model a fast NVMe TLC drive with SLC-mode read pages:
/// 4 flash channels x 4 dies, 16 KiB pages, 30 us array reads, a
/// 2.4 GB/s ONFI bus per channel, a 64 MiB controller-DRAM page buffer,
/// an 8 B/cycle reduction pipeline, and a ~4 GB/s host link — all
/// expressed at the 1.2 GHz DDR4-2400 clock (1200 cycles = 1 us).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SsdNmpConfig {
    /// Independent flash channels in the unit.
    pub channels: usize,
    /// Flash dies per channel (tR parallelism within a channel).
    pub dies_per_channel: usize,
    /// Flash page size — the read granule.
    pub page_bytes: ByteSize,
    /// Flash array read time per page (tR), in cycles.
    pub read_latency: Cycle,
    /// Cycles one page occupies its flash-channel bus.
    pub channel_bus_cycles_per_page: Cycle,
    /// Device-DRAM page buffer capacity, in pages.
    pub buffer_pages: usize,
    /// Cycles to read one vector out of a buffered page.
    pub buffer_read_cycles: Cycle,
    /// Throughput of the in-storage SLS reduction unit.
    pub reduce_bytes_per_cycle: u64,
    /// One-way command-submission latency of the host link, charged once
    /// per run.
    pub link_latency: Cycle,
    /// Host-link payload throughput (pooled sums out).
    pub link_bytes_per_cycle: u64,
}

impl Default for SsdNmpConfig {
    fn default() -> Self {
        Self {
            channels: 4,
            dies_per_channel: 4,
            page_bytes: ByteSize::kib(16),
            read_latency: 36_000,               // 30 us tR
            channel_bus_cycles_per_page: 8_192, // 16 KiB at 2 B/cycle
            buffer_pages: 4_096,                // 64 MiB of controller DRAM
            buffer_read_cycles: 240,            // 200 ns controller-DRAM hit
            reduce_bytes_per_cycle: 8,
            link_latency: 6_000,     // 5 us submission
            link_bytes_per_cycle: 4, // ~4.8 GB/s effective link
        }
    }
}

impl SsdNmpConfig {
    /// Total flash dies in the unit.
    pub fn dies(&self) -> usize {
        self.channels * self.dies_per_channel
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let positive: [(&str, u64); 6] = [
            ("channels", self.channels as u64),
            ("dies_per_channel", self.dies_per_channel as u64),
            ("page_bytes", self.page_bytes.get()),
            ("buffer_pages", self.buffer_pages as u64),
            ("reduce_bytes_per_cycle", self.reduce_bytes_per_cycle),
            ("link_bytes_per_cycle", self.link_bytes_per_cycle),
        ];
        for (field, v) in positive {
            if v == 0 {
                return Err(ConfigError::new(
                    "ssd-nmp",
                    format!("{field} must be positive"),
                ));
            }
        }
        Ok(())
    }
}

/// One SSD unit serving SLS traces with in-storage reduction.
///
/// Hardware state — the die/bus/link timelines and the page buffer —
/// persists across runs (a warm buffer stays warm), while every
/// [`RunReport`] covers one call only, per the [`SlsBackend`] contract.
///
/// # Examples
///
/// ```
/// use recnmp_backend::SlsBackend;
/// use recnmp_storage::SsdNmpBackend;
/// use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
/// use recnmp_types::{PhysAddr, TableId};
///
/// let spec = EmbeddingTableSpec::new(100_000, 128);
/// let batch = TraceGenerator::new(TableId::new(0), spec, IndexDistribution::Uniform, 7)
///     .batch(4, 8);
/// let trace = recnmp_backend::SlsTrace::from_batches(
///     std::slice::from_ref(&batch),
///     &mut |_, row| PhysAddr::new(row * 128),
/// );
/// let mut ssd = SsdNmpBackend::with_defaults().unwrap();
/// let report = ssd.run(&trace);
/// assert_eq!(report.insts, 32); // conservation
/// assert!(report.total_cycles > 0);
/// ```
#[derive(Debug)]
pub struct SsdNmpBackend {
    cfg: SsdNmpConfig,
    /// Device clock: completion time of the last finished run.
    now: Cycle,
    /// Per-die flash-array occupancy.
    die_free: Vec<Cycle>,
    /// Per-flash-channel bus occupancy.
    chan_free: Vec<Cycle>,
    /// Shared reduction-pipeline occupancy.
    reduce_free: Cycle,
    /// Host-link occupancy.
    link_free: Cycle,
    /// Buffer residency: page -> last-use tick.
    resident: BTreeMap<u64, u64>,
    /// Recency order: last-use tick -> page (LRU = smallest tick).
    recency: BTreeMap<u64, u64>,
    /// Monotonic access tick driving the LRU order.
    tick: u64,
}

impl SsdNmpBackend {
    /// Builds an SSD unit.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a geometry or throughput field is
    /// zero.
    pub fn new(cfg: SsdNmpConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self {
            now: 0,
            die_free: vec![0; cfg.dies()],
            chan_free: vec![0; cfg.channels],
            reduce_free: 0,
            link_free: 0,
            resident: BTreeMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            cfg,
        })
    }

    /// Builds an SSD unit with the reference configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the default configuration is invalid
    /// (it is not).
    pub fn with_defaults() -> Result<Self, ConfigError> {
        Self::new(SsdNmpConfig::default())
    }

    /// The unit's configuration.
    pub fn config(&self) -> &SsdNmpConfig {
        &self.cfg
    }

    /// Pages currently resident in the device-DRAM buffer.
    pub fn buffered_pages(&self) -> usize {
        self.resident.len()
    }

    /// Reads the page holding `addr`, returning when its data is in the
    /// device-DRAM buffer, and counts the hit/miss/eviction in `stats`.
    fn access_page(&mut self, page: u64, at: Cycle, stats: &mut CacheStats) -> Cycle {
        self.tick += 1;
        if let Some(old) = self.resident.insert(page, self.tick) {
            self.recency.remove(&old);
            self.recency.insert(self.tick, page);
            stats.hits += 1;
            return at + self.cfg.buffer_read_cycles;
        }
        stats.misses += 1;
        let die = (page % self.cfg.dies() as u64) as usize;
        let chan = die % self.cfg.channels;
        let array_start = at.max(self.die_free[die]);
        let array_done = array_start + self.cfg.read_latency;
        self.die_free[die] = array_done;
        let bus_start = array_done.max(self.chan_free[chan]);
        let done = bus_start + self.cfg.channel_bus_cycles_per_page;
        self.chan_free[chan] = done;
        // Install under LRU: evict the least-recently-used page first
        // (the resident map already holds the new page).
        if self.resident.len() > self.cfg.buffer_pages {
            let (&t, &victim) = self.recency.iter().next().expect("buffer is non-empty");
            self.recency.remove(&t);
            self.resident.remove(&victim);
            stats.evictions += 1;
        }
        self.recency.insert(self.tick, page);
        done
    }
}

impl SlsBackend for SsdNmpBackend {
    fn name(&self) -> &str {
        "ssd-nmp"
    }

    /// Serves `trace` entirely in-storage: page reads fan out over
    /// dies/channels, each pooling reduces through the shared pipeline,
    /// and pooled sums stream out over the link. `total_cycles` is
    /// first-command to last-sum-delivered.
    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let start = self.now;
        let submit = start + self.cfg.link_latency;
        let mut stats = CacheStats::new();
        let mut last_done = submit;
        let mut insts = 0u64;
        let mut alu_adds = 0u64;
        let mut io_bytes = 0u64;
        for tb in trace.batches() {
            let vb = tb.spec().vector_bytes;
            for pooling in tb.poolings().map(|p| p.addrs()) {
                if pooling.is_empty() {
                    continue;
                }
                let mut gathered = submit;
                for addr in pooling {
                    let page = addr.get() / self.cfg.page_bytes.get();
                    gathered = gathered.max(self.access_page(page, submit, &mut stats));
                }
                let reduce_cycles =
                    (pooling.len() as u64 * vb).div_ceil(self.cfg.reduce_bytes_per_cycle);
                let reduce_start = gathered.max(self.reduce_free);
                let reduced = reduce_start + reduce_cycles;
                self.reduce_free = reduced;
                let link_start = reduced.max(self.link_free);
                let done = link_start + vb.div_ceil(self.cfg.link_bytes_per_cycle);
                self.link_free = done;
                last_done = last_done.max(done);
                insts += pooling.len() as u64;
                // Pooling n vectors of f floats takes (n-1)*f adds.
                alu_adds += (pooling.len() as u64 - 1) * (vb / 4);
                // 8-byte index command in per lookup, one pooled sum out.
                io_bytes += pooling.len() as u64 * 8 + vb;
            }
        }
        self.now = last_done;
        // Flash reads move whole pages into the buffer.
        let gathered_bytes = stats.misses * self.cfg.page_bytes.get();
        Ok(RunReport {
            system: self.name().into(),
            total_cycles: last_done - start,
            insts,
            cache: stats,
            gathered_bytes,
            io_bytes,
            alu_adds,
            ..RunReport::default()
        })
    }
}

/// Rough flash-side service floor for `lookups` all-miss lookups: the
/// array reads pipeline over the dies, the page transfers over the
/// channel busses. Used by tests as a lower-bound sanity check.
#[cfg(test)]
fn all_miss_floor(cfg: &SsdNmpConfig, lookups: u64) -> Cycle {
    let per_die = lookups.div_ceil(cfg.dies() as u64);
    let per_chan = lookups.div_ceil(cfg.channels as u64);
    (per_die * cfg.read_latency).max(per_chan * cfg.channel_bus_cycles_per_page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
    use recnmp_types::{PhysAddr, TableId};

    fn trace(tables: u32, batch: usize, pooling: usize, seed: u64) -> SlsTrace {
        let spec = EmbeddingTableSpec::new(1 << 20, 128);
        let batches: Vec<SlsBatch> = (0..tables)
            .map(|t| {
                TraceGenerator::new(
                    TableId::new(t),
                    spec,
                    IndexDistribution::Uniform,
                    seed + t as u64,
                )
                .batch(batch, pooling)
            })
            .collect();
        SlsTrace::from_batches(&batches, &mut |t, row| {
            PhysAddr::new(((t as u64) << 32) | (row * 128))
        })
    }

    #[test]
    fn conserves_lookups_and_is_deterministic() {
        let t = trace(4, 4, 8, 7);
        let mut a = SsdNmpBackend::with_defaults().unwrap();
        let mut b = SsdNmpBackend::with_defaults().unwrap();
        let ra = a.run(&t);
        let rb = b.run(&t);
        assert_eq!(ra.insts, t.total_lookups());
        assert_eq!(ra, rb, "fresh units must agree bit-for-bit");
        assert_eq!(ra.cache.hits + ra.cache.misses, ra.insts);
        assert_eq!(
            ra.gathered_bytes,
            ra.cache.misses * a.config().page_bytes.get()
        );
    }

    #[test]
    fn buffer_warms_across_runs() {
        // The same working set twice: the second run hits the buffer and
        // finishes far faster than the first.
        let t = trace(1, 8, 8, 3);
        let mut ssd = SsdNmpBackend::with_defaults().unwrap();
        let cold = ssd.run(&t);
        let warm = ssd.run(&t);
        assert_eq!(cold.insts, warm.insts);
        assert!(warm.cache.hits > cold.cache.hits);
        assert!(
            warm.total_cycles * 2 < cold.total_cycles,
            "warm {} vs cold {}",
            warm.total_cycles,
            cold.total_cycles
        );
    }

    #[test]
    fn cold_run_respects_flash_pipeline_floor() {
        let t = trace(4, 8, 8, 11);
        let mut ssd = SsdNmpBackend::with_defaults().unwrap();
        let r = ssd.run(&t);
        // With 1M-row tables and uniform indices nearly every lookup is a
        // distinct page: the run cannot beat the die/bus pipeline floor
        // for its actual miss count.
        assert!(r.cache.misses > r.insts / 2);
        let floor = all_miss_floor(ssd.config(), r.cache.misses);
        assert!(
            r.total_cycles >= floor,
            "{} cycles beats the {floor}-cycle flash floor",
            r.total_cycles
        );
    }

    #[test]
    fn eviction_keeps_buffer_bounded() {
        let cfg = SsdNmpConfig {
            buffer_pages: 16,
            ..Default::default()
        };
        let mut ssd = SsdNmpBackend::new(cfg).unwrap();
        let t = trace(2, 8, 16, 5);
        let r = ssd.run(&t);
        assert!(ssd.buffered_pages() <= 16);
        assert!(r.cache.evictions > 0);
    }

    #[test]
    fn in_storage_reduction_keeps_link_traffic_small() {
        let t = trace(2, 4, 16, 9);
        let mut ssd = SsdNmpBackend::with_defaults().unwrap();
        let r = ssd.run(&t);
        // Pooled sums + index commands cross the link; whole pages do
        // not. 16-lookup poolings move 16x128 B of vectors per 128 B sum.
        assert!(r.io_bytes < r.gathered_bytes / 10);
        assert!(r.alu_adds > 0);
    }

    #[test]
    fn rejects_zero_geometry() {
        let no_channels = SsdNmpConfig {
            channels: 0,
            ..Default::default()
        };
        assert!(SsdNmpBackend::new(no_channels).is_err());
        let no_reduce = SsdNmpConfig {
            reduce_bytes_per_cycle: 0,
            ..Default::default()
        };
        assert!(SsdNmpBackend::new(no_reduce).is_err());
    }
}
