//! The full RecNMP-equipped memory channel.

use recnmp_backend::report::{add_cache, add_dram, cache_delta, dram_delta};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_cache::CacheStats;
use recnmp_dram::address::{AddressMapping, Geometry};
use recnmp_dram::DramStats;
use recnmp_trace::{PageMapper, SlsBatch};
use recnmp_types::{ConfigError, Cycle, ModelId, PhysAddr, SimError};

use crate::config::{ExecutionMode, RecNmpConfig, INSTS_PER_CYCLE};
use crate::dimm_nmp::DimmNmp;
use crate::inst::{NmpInst, NmpOpcode};
use crate::optimizer::LocalityAwareOptimizer;
use crate::packet::{NmpPacket, PacketBuilder};

/// Cumulative counters of one [`RecNmpSystem`] across every run the
/// channel has served; each run's [`RunReport`] is the delta since the
/// run began.
#[derive(Debug, Default)]
struct SessionStats {
    /// Packets executed since construction.
    packets: usize,
    /// Instructions executed since construction.
    insts: u64,
    /// Total instructions per rank since construction.
    rank_insts: Vec<u64>,
    /// Embedding bytes gathered since construction.
    gathered_bytes: u64,
    /// Channel-interface bytes since construction.
    io_bytes: u64,
}

/// Per-packet instruction delivery buffers: `[dimm][local rank]` slices
/// of `(arrival cycle, instruction)` pairs, reused across packets.
type DeliverySlices = Vec<Vec<Vec<(Cycle, NmpInst)>>>;

/// Snapshot of every cumulative counter at the start of one run, used to
/// report that run as a delta.
#[derive(Debug, Clone)]
struct RunMark {
    start_cycle: Cycle,
    packets: usize,
    insts: u64,
    rank_insts: Vec<u64>,
    gathered_bytes: u64,
    io_bytes: u64,
    cache: CacheStats,
    dram: DramStats,
    dram_bursts: u64,
    alu_adds: u64,
    alu_mults: u64,
}

/// One RecNMP-equipped memory channel: the NMP-extended controller front
/// end plus one PU per DIMM.
///
/// Execution follows the paper's methodology: packets run serially (the
/// host configures the accumulation counter, streams instructions at two
/// per DRAM cycle, and waits for the sum), each packet's latency set by
/// its slowest rank; rank state (DRAM rows, RankCache contents) persists
/// across packets — and across runs, while every returned [`RunReport`]
/// covers exactly one run.
#[derive(Debug)]
pub struct RecNmpSystem {
    config: RecNmpConfig,
    dimms: Vec<DimmNmp>,
    now: Cycle,
    session: SessionStats,
    /// Per-packet latencies of the run in progress — cleared at each
    /// run's [`mark`](Self::mark) so [`RunReport`]s carry full per-run
    /// vectors while the session keeps only counters.
    run_latencies: Vec<Cycle>,
    /// Busiest-rank fractions of the run in progress, aligned with
    /// `run_latencies`.
    run_fractions: Vec<f64>,
    /// Reusable per-packet delivery buffers (`[dimm][local rank]`
    /// instruction slices) so the scheduling loop does not allocate per
    /// packet; taken out and put back around each packet.
    slice_scratch: DeliverySlices,
    /// Reusable per-packet instruction counts, one per global rank.
    count_scratch: Vec<u64>,
}

impl RecNmpSystem {
    /// Builds the channel.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid.
    pub fn new(config: RecNmpConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let dimms = (0..config.dimms)
            .map(|d| DimmNmp::new(recnmp_types::DimmId::new(d as u32), &config))
            .collect::<Result<Vec<_>, _>>()?;
        let ranks = config.total_ranks() as usize;
        Ok(Self {
            config,
            dimms,
            now: 0,
            session: SessionStats {
                rank_insts: vec![0; ranks],
                ..SessionStats::default()
            },
            run_latencies: Vec::new(),
            run_fractions: Vec::new(),
            slice_scratch: Vec::new(),
            count_scratch: Vec::new(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &RecNmpConfig {
        &self.config
    }

    /// Channel geometry (for packet building and page mapping).
    pub fn geometry(&self) -> Geometry {
        self.config.geometry()
    }

    /// The physical-to-DRAM mapping the NMP-extended controller applies.
    pub fn mapping(&self) -> AddressMapping {
        self.config.mapping()
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.now
    }

    /// Total DRAM-engine main-loop iterations across every rank — the
    /// wall-clock cost driver of this channel's simulation (each
    /// iteration is one scheduling decision).
    pub fn total_dram_loop_iterations(&self) -> u64 {
        self.dimms
            .iter()
            .flat_map(|d| d.ranks())
            .map(|r| r.dram_loop_iterations())
            .sum()
    }

    /// Snapshots every cumulative counter at the start of a run and
    /// resets the run-scoped per-packet buffers.
    fn mark(&mut self) -> RunMark {
        self.run_latencies.clear();
        self.run_fractions.clear();
        let agg = self.aggregate();
        RunMark {
            start_cycle: self.now,
            packets: self.session.packets,
            insts: self.session.insts,
            rank_insts: self.session.rank_insts.clone(),
            gathered_bytes: self.session.gathered_bytes,
            io_bytes: self.session.io_bytes,
            cache: agg.cache,
            dram: agg.dram,
            dram_bursts: agg.dram_bursts,
            alu_adds: agg.alu_adds,
            alu_mults: agg.alu_mults,
        }
    }

    /// The per-run snapshot: everything that changed since `mark`. The
    /// run-scoped per-packet buffers are *moved* into the report (the
    /// next run's [`mark`](Self::mark) starts them fresh), not cloned.
    fn report_since(&mut self, mark: &RunMark) -> RunReport {
        let agg = self.aggregate();
        RunReport {
            system: "recnmp".into(),
            total_cycles: self.now - mark.start_cycle,
            packets: self.session.packets - mark.packets,
            insts: self.session.insts - mark.insts,
            packet_latencies: std::mem::take(&mut self.run_latencies),
            slowest_rank_fraction: std::mem::take(&mut self.run_fractions),
            rank_insts: self
                .session
                .rank_insts
                .iter()
                .zip(&mark.rank_insts)
                .map(|(now, then)| now - then)
                .collect(),
            cache: cache_delta(&agg.cache, &mark.cache),
            dram: dram_delta(&agg.dram, &mark.dram),
            dram_bursts: agg.dram_bursts - mark.dram_bursts,
            gathered_bytes: self.session.gathered_bytes - mark.gathered_bytes,
            io_bytes: self.session.io_bytes - mark.io_bytes,
            alu_adds: agg.alu_adds - mark.alu_adds,
            alu_mults: agg.alu_mults - mark.alu_mults,
            query_completions: Vec::new(),
            // Host-cache and prefetch accounting live in the serving
            // scheduler, which owns the host cache and the prefetch
            // budget; a bare trace run has neither.
            host_hits: 0,
            host_misses: 0,
            host_absorbed_bytes: 0,
            prefetch_fills: 0,
            // Resilience counters (retries/hedges/failovers and query
            // outcomes) are fleet-scheduler bookkeeping; a bare trace
            // run never retries or sheds.
            retries: 0,
            hedges: 0,
            failovers: 0,
            queries_rejected: 0,
            queries_shed: 0,
            queries_failed: 0,
        }
    }

    /// Runs a scheduled packet stream; returns the report for **this run
    /// only** (rank state persists, counters do not leak across runs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if a rank's DRAM devices livelock.
    pub fn run_packets(&mut self, packets: &[NmpPacket]) -> Result<RunReport, SimError> {
        let mark = self.mark();
        for packet in packets {
            self.run_one(packet)?;
        }
        Ok(self.report_since(&mark))
    }

    /// Sums the cumulative per-rank hardware counters.
    fn aggregate(&self) -> RankAggregates {
        let mut agg = RankAggregates::default();
        for dimm in &self.dimms {
            for rank in dimm.ranks() {
                add_cache(&mut agg.cache, &rank.cache_stats());
                add_dram(&mut agg.dram, rank.dram_stats());
                agg.dram_bursts += rank.stats().dram_bursts;
                agg.alu_adds += rank.stats().adds;
                agg.alu_mults += rank.stats().mults;
            }
        }
        agg
    }

    /// Takes the per-packet scratch buffers out of `self`, shaped and
    /// cleared for this channel's geometry.
    fn take_scratch(&mut self) -> (DeliverySlices, Vec<u64>) {
        let ranks_per_dimm = self.config.ranks_per_dimm as usize;
        let total_ranks = self.config.total_ranks() as usize;
        let mut slices = std::mem::take(&mut self.slice_scratch);
        if slices.len() != self.dimms.len()
            || slices.first().is_some_and(|d| d.len() != ranks_per_dimm)
        {
            slices = vec![vec![Vec::new(); ranks_per_dimm]; self.dimms.len()];
        } else {
            for dimm in &mut slices {
                for rank in dimm.iter_mut() {
                    rank.clear();
                }
            }
        }
        let mut counts = std::mem::take(&mut self.count_scratch);
        counts.clear();
        counts.resize(total_ranks, 0);
        (slices, counts)
    }

    fn run_one(&mut self, packet: &NmpPacket) -> Result<(), SimError> {
        if packet.is_empty() {
            return Ok(());
        }
        let start = self.now;
        let ranks_per_dimm = self.config.ranks_per_dimm as usize;
        let total_ranks = self.config.total_ranks() as usize;

        // Delivery schedule: INSTS_PER_CYCLE instructions per DRAM cycle
        // over the shared channel interface (the compressed-format C/A
        // expansion of Figure 9(b)). The delivery buffers are run-scoped
        // scratch, reused across packets.
        let (mut per_dimm, mut rank_counts) = self.take_scratch();
        for (i, inst) in packet.insts.iter().enumerate() {
            let arrival = start + (i as u64) / INSTS_PER_CYCLE;
            let rank = inst.daddr.rank as usize % total_ranks;
            let dimm = rank / ranks_per_dimm;
            per_dimm[dimm][rank % ranks_per_dimm].push((arrival, *inst));
            rank_counts[rank] += 1;
        }

        let mut done = start;
        for (dimm, slices) in self.dimms.iter_mut().zip(&per_dimm) {
            done = done.max(dimm.process(start, slices)?);
        }
        // Return the pooled sums to the host: one burst (4 cycles) per
        // pooling per vsize unit over the channel DQ bus.
        let vsize = packet.insts.first().map_or(1, |i| i.vsize) as u64;
        let out_cycles = packet.poolings() as u64 * vsize * 4;
        let packet_done = done + 1 + out_cycles;

        let total = packet.len() as u64;
        let max_rank = rank_counts.iter().copied().max().unwrap_or(0);
        let fraction = max_rank as f64 / total as f64;
        self.run_latencies.push(packet_done - start);
        self.run_fractions.push(fraction);
        for (acc, c) in self.session.rank_insts.iter_mut().zip(&rank_counts) {
            *acc += c;
        }
        self.session.packets += 1;
        self.session.insts += total;
        self.session.gathered_bytes += packet.gathered_bytes();
        self.session.io_bytes += packet.inst_bytes() + packet.output_bytes();
        self.now = packet_done;
        self.slice_scratch = per_dimm;
        self.count_scratch = rank_counts;
        Ok(())
    }

    /// Runs a packet stream with *overlapped* execution: instructions
    /// stream continuously at the channel delivery rate and every rank
    /// consumes its share as it arrives, with no per-packet barrier.
    ///
    /// This models the high task-level-parallelism regime the paper
    /// invokes for the page-coloring data layout (Figure 14(a)), where
    /// packets from different SLS operators are in flight on different
    /// ranks simultaneously. The run is reported as a single latency
    /// entry; per-packet latencies are not meaningful here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if a rank's DRAM devices livelock.
    pub fn run_packets_overlapped(&mut self, packets: &[NmpPacket]) -> Result<RunReport, SimError> {
        let mark = self.mark();
        let start = self.now;
        let ranks_per_dimm = self.config.ranks_per_dimm as usize;
        let total_ranks = self.config.total_ranks() as usize;
        let (mut per_dimm, mut rank_counts) = self.take_scratch();
        let mut delivered = 0u64;
        let mut gathered = 0u64;
        let mut io = 0u64;
        // Packets issue *simultaneously*: the controller round-robins one
        // instruction from each in-flight packet per delivery slot, so
        // every rank starts receiving work immediately (this is the
        // task-level parallelism the page-coloring layout requires).
        let mut cursors = vec![0usize; packets.len()];
        let mut remaining: usize = packets.iter().map(NmpPacket::len).sum();
        while remaining > 0 {
            for (packet, cursor) in packets.iter().zip(cursors.iter_mut()) {
                let Some(inst) = packet.insts.get(*cursor) else {
                    continue;
                };
                *cursor += 1;
                remaining -= 1;
                let arrival = start + delivered / INSTS_PER_CYCLE;
                delivered += 1;
                let rank = inst.daddr.rank as usize % total_ranks;
                per_dimm[rank / ranks_per_dimm][rank % ranks_per_dimm].push((arrival, *inst));
                rank_counts[rank] += 1;
            }
        }
        for packet in packets {
            gathered += packet.gathered_bytes();
            io += packet.inst_bytes() + packet.output_bytes();
        }
        let mut done = start;
        for (dimm, slices) in self.dimms.iter_mut().zip(&per_dimm) {
            done = done.max(dimm.process(start, slices)?);
        }
        // Pooled outputs stream back overlapped with execution; only the
        // final buffer write adds a cycle.
        self.now = done + 1;
        let total = delivered.max(1);
        let max_rank = rank_counts.iter().copied().max().unwrap_or(0);
        self.session.packets += packets.len();
        self.session.insts += delivered;
        let latency = self.now.saturating_sub(start);
        let fraction = max_rank as f64 / total as f64;
        self.run_latencies.push(latency);
        self.run_fractions.push(fraction);
        for (acc, c) in self.session.rank_insts.iter_mut().zip(&rank_counts) {
            *acc += c;
        }
        self.session.gathered_bytes += gathered;
        self.session.io_bytes += io;
        self.slice_scratch = per_dimm;
        self.count_scratch = rank_counts;
        Ok(self.report_since(&mark))
    }

    /// Convenience entry point: compiles, optimizes and runs a set of SLS
    /// batches using an internally managed page mapping (each table gets
    /// contiguous logical space mapped to random physical pages).
    ///
    /// Experiments that need a *shared* mapping with other backends should
    /// build an [`SlsTrace`] and use the [`SlsBackend`] entry point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if a batch's table spec is
    /// inconsistent or the batches mix vector sizes, or
    /// [`SimError::Stalled`] if the channel livelocks.
    pub fn offload(&mut self, batches: &[SlsBatch]) -> Result<RunReport, SimError> {
        let geo = self.geometry();
        let mut mapper = PageMapper::new(geo.capacity_bytes() / 4096, 0x5eed);
        let mut trace = SlsTrace::default();
        let mut base = 0u64;
        for batch in batches {
            batch.spec.validate()?;
            let vector_bytes = batch.spec.vector_bytes;
            if !trace.is_empty() && trace.vector_bytes() != vector_bytes {
                let msg = "batches of one offload must share a vector size";
                return Err(SimError::Config(ConfigError::new("vector_bytes", msg)));
            }
            trace.push_batch(batch.table, batch.spec);
            for p in &batch.poolings {
                trace.push_pooling(p.indices.iter().copied(), &p.weights, |row| {
                    mapper.translate(base + row * vector_bytes)
                });
            }
            base += batch.spec.bytes();
        }
        SlsBackend::try_run(self, &trace)
    }
}

/// Aggregated cumulative hardware counters across all ranks.
#[derive(Debug, Clone, Default)]
struct RankAggregates {
    cache: CacheStats,
    dram: DramStats,
    dram_bursts: u64,
    alu_adds: u64,
    alu_mults: u64,
}

/// Compiles a shared [`SlsTrace`] into this channel's scheduled packet
/// stream: one packet-group per batch, interleaved round-robin across
/// batches (the parallel-SLS-thread arrival order), then ordered by the
/// configured scheduling policy.
pub fn compile_trace(
    config: &RecNmpConfig,
    geo: Geometry,
    mapping: AddressMapping,
    trace: &SlsTrace,
) -> Vec<NmpPacket> {
    let builder = PacketBuilder::new(NmpOpcode::Sum, config.poolings_per_packet, mapping, geo);
    let optimizer = LocalityAwareOptimizer::from_config(config);
    // Round-robin across batches, one packet per batch per round: each
    // batch's packet chunks are compiled as their turn comes.
    let mut streams: Vec<_> = (trace.batches())
        .map(|tb| {
            (
                tb.chunks(config.poolings_per_packet),
                optimizer.profile_batch(tb.rows()),
            )
        })
        .collect();
    let total = streams.iter().map(|(chunks, _)| chunks.len()).sum();
    let mut interleaved = Vec::with_capacity(total);
    let mut last_row = Vec::new();
    while interleaved.len() < total {
        for (chunks, profile) in &mut streams {
            if let Some(chunk) = chunks.next() {
                let model = ModelId::new(0);
                interleaved.push(builder.packet(model, chunk, profile.as_ref(), &mut last_row));
            }
        }
    }
    optimizer.schedule(interleaved)
}

/// Modeled cost of staging one 64-byte line into a RankCache during an
/// idle gap: the prefetcher issues low-priority reads that stream at
/// roughly the column-to-column rate, so an idle budget of N cycles
/// stages about N/4 lines. This is what converts a scheduler-observed
/// gap into a bounded number of prefetched vectors.
pub const PREFETCH_CYCLES_PER_BURST: Cycle = 4;

impl SlsBackend for RecNmpSystem {
    fn name(&self) -> &str {
        "recnmp"
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let packets = compile_trace(&self.config, self.geometry(), self.mapping(), trace);
        match self.config.execution {
            ExecutionMode::Serial => self.run_packets(&packets),
            ExecutionMode::Overlapped => self.run_packets_overlapped(&packets),
        }
    }

    fn prefetch_on(
        &mut self,
        server: usize,
        addrs: &[PhysAddr],
        vector_bytes: u32,
        budget_cycles: Cycle,
    ) -> u64 {
        assert!(
            server < self.server_count(),
            "server {server} out of range for a single-channel system"
        );
        if !self
            .dimms
            .iter()
            .flat_map(DimmNmp::ranks)
            .any(crate::rank_nmp::RankNmp::has_cache)
        {
            return 0;
        }
        let geo = self.geometry();
        let mapping = self.mapping();
        let bursts = vector_bytes.div_ceil(64).clamp(1, u8::MAX as u32) as u8;
        let cost = bursts as Cycle * PREFETCH_CYCLES_PER_BURST;
        let budget_vectors = (budget_cycles / cost) as usize;
        let ranks_per_dimm = self.config.ranks_per_dimm as usize;
        let total_ranks = self.config.total_ranks() as usize;
        let mut staged = 0u64;
        // Hottest-first through the candidate list until the idle budget
        // runs out; routing mirrors the demand path exactly (decode, then
        // DIMM-major rank pick) so staged lines land in the cache the
        // demand lookups will probe.
        for addr in addrs.iter().take(budget_vectors) {
            let daddr = mapping.decode(*addr, &geo);
            let rank = daddr.rank as usize % total_ranks;
            let dimm = rank / ranks_per_dimm;
            if self.dimms[dimm].ranks_mut()[rank % ranks_per_dimm].prefetch_vector(&daddr, bursts) {
                staged += 1;
            }
        }
        staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
    use recnmp_types::TableId;

    fn batches(n_tables: u32, batch: usize) -> Vec<SlsBatch> {
        (0..n_tables)
            .map(|t| {
                TraceGenerator::new(
                    TableId::new(t),
                    EmbeddingTableSpec::dlrm_default(),
                    IndexDistribution::Zipf { s: 0.9 },
                    42 + t as u64,
                )
                .batch(batch, 80)
            })
            .collect()
    }

    fn quiet(mut cfg: RecNmpConfig) -> RecNmpConfig {
        cfg.refresh = false;
        cfg
    }

    #[test]
    fn offload_rejects_vectors_past_the_vsize_field() {
        // 16,384 bytes is 256 bursts, which the instruction's u8 `vsize`
        // would wrap to 0.
        let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(1, 2))).unwrap();
        let mut wide = batches(1, 1);
        wide[0].spec = EmbeddingTableSpec::new(1_000_000, 16_384);
        assert!(matches!(sys.offload(&wide), Err(SimError::Config(_))));
        // Mixed vector sizes are a config error too, not a panic.
        let mut mixed = batches(2, 1);
        mixed[1].spec = EmbeddingTableSpec::new(1_000_000, 64);
        assert!(matches!(sys.offload(&mixed), Err(SimError::Config(_))));
    }

    #[test]
    fn offload_runs_all_instructions() {
        let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(1, 2))).unwrap();
        let report = sys.offload(&batches(1, 8)).unwrap();
        assert_eq!(report.insts, 8 * 80);
        assert_eq!(report.packets, 1);
        assert!(report.total_cycles > 0);
        assert_eq!(report.rank_insts.iter().sum::<u64>(), 640);
    }

    #[test]
    fn more_ranks_run_faster() {
        let run = |dimms, ranks| {
            let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(dimms, ranks))).unwrap();
            sys.offload(&batches(2, 16)).unwrap().total_cycles
        };
        let two = run(1, 2);
        let eight = run(4, 2);
        assert!(
            (eight as f64) < 0.45 * two as f64,
            "2-rank {two} vs 8-rank {eight}"
        );
    }

    #[test]
    fn cache_reduces_dram_traffic() {
        let base_cfg = quiet(RecNmpConfig::with_ranks(1, 2));
        let mut cached_cfg = quiet(RecNmpConfig::optimized(1, 2));
        cached_cfg.scheduling = crate::config::SchedulingPolicy::Fcfs;
        let w = batches(1, 32);
        let mut base = RecNmpSystem::new(base_cfg).unwrap();
        let mut cached = RecNmpSystem::new(cached_cfg).unwrap();
        let rb = base.offload(&w).unwrap();
        let rc = cached.offload(&w).unwrap();
        assert_eq!(rb.insts, rc.insts);
        assert!(
            rc.dram_bursts < rb.dram_bursts,
            "{} vs {}",
            rc.dram_bursts,
            rb.dram_bursts
        );
        assert!(rc.cache.hits > 0);
        assert!(rc.total_cycles <= rb.total_cycles);
    }

    #[test]
    fn fewer_poolings_per_packet_cost_more() {
        let run = |ppp| {
            let mut cfg = quiet(RecNmpConfig::with_ranks(4, 2));
            cfg.poolings_per_packet = ppp;
            let mut sys = RecNmpSystem::new(cfg).unwrap();
            sys.offload(&batches(1, 16)).unwrap().total_cycles
        };
        let one = run(1);
        let eight = run(8);
        assert!(eight < one, "ppp=1 {one} vs ppp=8 {eight}");
    }

    #[test]
    fn imbalance_shrinks_with_packet_size() {
        let imb = |ppp| {
            let mut cfg = quiet(RecNmpConfig::with_ranks(4, 2));
            cfg.poolings_per_packet = ppp;
            let mut sys = RecNmpSystem::new(cfg).unwrap();
            sys.offload(&batches(1, 16)).unwrap().mean_imbalance()
        };
        let small = imb(1);
        let large = imb(8);
        // Perfect balance on 8 ranks is 0.125.
        assert!(large < small, "ppp=1 {small} vs ppp=8 {large}");
        assert!(large >= 0.125);
    }

    #[test]
    fn prefetch_stages_hot_vectors() {
        let mk = || {
            let mut cfg = quiet(RecNmpConfig::optimized(1, 2));
            cfg.scheduling = crate::config::SchedulingPolicy::Fcfs;
            RecNmpSystem::new(cfg).unwrap()
        };
        let w = batches(1, 32);
        let trace = SlsTrace::from_batches(&w, &mut |t, row| {
            recnmp_types::PhysAddr::new(((t as u64) << 28) ^ (row * 128))
        });
        // Candidate list: unique vector addresses, hottest-first.
        let mut counts = std::collections::BTreeMap::new();
        for a in trace.flat_addrs() {
            *counts.entry(a.get()).or_insert(0u64) += 1;
        }
        let mut hot: Vec<(u64, u64)> = counts.into_iter().collect();
        hot.sort_by_key(|&(addr, n)| (std::cmp::Reverse(n), addr));
        // Keep only the hot head so the staged set fits the RankCaches —
        // a real prefetcher is capacity-aware, and a list that thrashes
        // the cache would evict its own earlier fills.
        let addrs: Vec<recnmp_types::PhysAddr> = hot
            .iter()
            .take(64)
            .map(|&(addr, _)| recnmp_types::PhysAddr::new(addr))
            .collect();

        let mut cold = mk();
        let cold_report = cold.try_run(&trace).unwrap();

        let mut warm = mk();
        let staged = warm.prefetch_on(0, &addrs, 128, Cycle::MAX);
        assert!(staged > 0, "budget covers the list; something must stage");
        // Re-prefetching the same list stages nothing new.
        assert_eq!(warm.prefetch_on(0, &addrs, 128, Cycle::MAX), 0);
        let warm_report = warm.try_run(&trace).unwrap();
        assert_eq!(warm_report.insts, cold_report.insts);
        assert!(
            warm_report.cache.hits > cold_report.cache.hits,
            "warm {} vs cold {}",
            warm_report.cache.hits,
            cold_report.cache.hits
        );
        assert!(warm_report.dram_bursts < cold_report.dram_bursts);

        // Budget of zero (or below one vector's fill cost) stages nothing.
        let mut broke = mk();
        assert_eq!(broke.prefetch_on(0, &addrs, 128, 7), 0);
    }

    #[test]
    fn prefetch_on_uncached_system_is_inert() {
        let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(1, 2))).unwrap();
        let addrs = [recnmp_types::PhysAddr::new(0)];
        assert_eq!(sys.prefetch_on(0, &addrs, 128, Cycle::MAX), 0);
    }

    #[test]
    fn report_accounting_consistent() {
        let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(2, 2))).unwrap();
        let report = sys.offload(&batches(2, 8)).unwrap();
        assert_eq!(report.packet_latencies.len(), report.packets);
        assert_eq!(report.slowest_rank_fraction.len(), report.packets);
        assert_eq!(report.gathered_bytes, report.insts * 128);
        assert!(report.io_bytes < report.gathered_bytes);
        assert_eq!(report.alu_adds, report.insts * 32);
    }

    #[test]
    fn empty_offload_is_zero() {
        let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(1, 2))).unwrap();
        let report = sys.offload(&[]).unwrap();
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.packets, 0);
    }

    #[test]
    fn reports_are_per_run_snapshots() {
        // Regression for the seed's mixed semantics: `total_cycles` was
        // per-run while `packets`/`insts`/`packet_latencies` accumulated
        // forever. Every field must now cover one run only.
        let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(1, 2))).unwrap();
        let w = batches(2, 8);
        let first = sys.offload(&w).unwrap();
        let second = sys.offload(&w).unwrap();
        assert_eq!(first.packets, second.packets);
        assert_eq!(first.insts, second.insts);
        assert_eq!(first.packet_latencies.len(), second.packet_latencies.len());
        assert_eq!(
            first.rank_insts.iter().sum::<u64>(),
            second.rank_insts.iter().sum::<u64>()
        );
        assert_eq!(first.gathered_bytes, second.gathered_bytes);
        // DRAM/cache counters are deltas too: the second run cannot carry
        // the first run's traffic.
        assert!(second.dram_bursts <= first.dram_bursts);
        // Per-run reports carry full per-packet vectors.
        assert!(!first.packet_latencies.is_empty());
        // The session counters are the cumulative complement.
        assert_eq!(sys.session.packets, first.packets + second.packets);
        assert_eq!(sys.session.insts, first.insts + second.insts);
    }

    #[test]
    fn overlapped_report_is_delta_too() {
        let mut sys = RecNmpSystem::new(quiet(RecNmpConfig::with_ranks(2, 2))).unwrap();
        let geo = sys.geometry();
        let mapping = sys.mapping();
        let cfg = sys.config().clone();
        let w = batches(4, 8);
        let trace = SlsTrace::from_batches(&w, &mut |t, row| {
            recnmp_types::PhysAddr::new(((t as u64) << 28) ^ (row * 128))
        });
        let packets = compile_trace(&cfg, geo, mapping, &trace);
        let first = sys.run_packets_overlapped(&packets).unwrap();
        let second = sys.run_packets_overlapped(&packets).unwrap();
        assert_eq!(first.insts, second.insts);
        assert_eq!(second.packet_latencies.len(), 1);
        assert_eq!(first.packets, second.packets);
    }
}
