//! The unified run report shared by every execution backend.

use recnmp_cache::CacheStats;
use recnmp_dram::DramStats;
use recnmp_types::Cycle;
use serde::{Deserialize, Serialize};

/// Result of serving one [`SlsTrace`](crate::SlsTrace) on one backend.
///
/// One type for every system — the host baseline, the DIMM-level NMP
/// comparators, RecNMP and the multi-channel cluster — so the experiment
/// harness compares them without case analysis. Fields a system has no
/// concept of stay at their defaults (e.g. the host baseline has no
/// memory-side cache, so `cache` is zero; only packetized NMP systems
/// fill `packet_latencies`).
///
/// **Delta semantics:** a report covers exactly one
/// [`SlsBackend::run`](crate::SlsBackend::run) call. Lifetime aggregates
/// live in each backend's internal session state, never here.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// System label (`"host"`, `"tensordimm"`, `"chameleon"`, `"recnmp"`,
    /// `"recnmp-cluster"`).
    pub system: String,
    /// End-to-end cycles from first request/delivery to last data beat.
    pub total_cycles: Cycle,
    /// Embedding vectors served (instructions for NMP systems, vector
    /// reads for the baselines). Conservation: equals the trace's
    /// `total_lookups()`.
    pub insts: u64,
    /// NMP packets executed (zero for non-packetized systems).
    pub packets: usize,
    /// Per-packet latency, delivery start to DIMM.Sum (NMP systems only).
    pub packet_latencies: Vec<Cycle>,
    /// Per-packet fraction of instructions on the busiest execution unit
    /// (the Figure 14(b) load-imbalance metric; `1/units` is perfect).
    pub slowest_rank_fraction: Vec<f64>,
    /// Instructions per execution unit (per rank for RecNMP; concatenated
    /// across channels for a cluster; empty for the baselines, which have
    /// no per-unit instruction streams).
    pub rank_insts: Vec<u64>,
    /// Memory-side cache statistics (zero for cache-less systems).
    pub cache: CacheStats,
    /// Aggregated DRAM statistics, summed over all controllers.
    pub dram: DramStats,
    /// 64-byte bursts read from DRAM devices.
    pub dram_bursts: u64,
    /// Embedding bytes gathered (before any cache filtering).
    pub gathered_bytes: u64,
    /// Bytes crossing the channel interface (whole vectors for the host;
    /// instructions in and pooled sums out for NMP systems).
    pub io_bytes: u64,
    /// FP32 additions performed near memory (zero when pooling happens on
    /// the host CPU).
    pub alu_adds: u64,
    /// FP32 multiplications performed near memory: 0 on every backend,
    /// since every kernel is a plain sum.
    pub alu_mults: u64,
    /// Absolute simulated completion timestamp of each query, in arrival
    /// order, when this report aggregates a query-serving run. Empty for
    /// plain trace replays, which have no notion of per-query arrivals.
    pub query_completions: Vec<Cycle>,
    /// Lookups served by the host-side hot-embedding cache — absorbed
    /// before any channel saw them (zero outside cached serving runs).
    /// Same per-run delta semantics as every other counter here.
    pub host_hits: u64,
    /// Lookups that missed the host cache and were dispatched to the
    /// backend. Conservation under cached serving:
    /// `host_hits + host_misses` equals the offered lookups.
    pub host_misses: u64,
    /// Embedding bytes the host cache absorbed (`host_hits` × the
    /// workload's vector size) — traffic the channels never carried.
    pub host_absorbed_bytes: u64,
    /// Vectors newly staged into per-channel RankCaches by the
    /// inter-query prefetcher during idle gaps (zero when prefetch is
    /// off or the backend has no rank caches).
    pub prefetch_fills: u64,
    /// Shard attempts re-dispatched after a timeout under resilient
    /// serving (zero outside fault-injected runs).
    pub retries: u64,
    /// Straggler node jobs duplicated onto a replica by hedged dispatch.
    pub hedges: u64,
    /// Batches re-routed off a crashed or degraded node to a surviving
    /// replica.
    pub failovers: u64,
    /// Queries refused at admission: their estimated queue delay already
    /// exceeded the SLO deadline (or the bounded queue was full).
    pub queries_rejected: u64,
    /// Queries dropped at dispatch: actual channel backlog put their
    /// service start past the SLO deadline.
    pub queries_shed: u64,
    /// Queries that failed outright: a table with no surviving replica,
    /// or a shard that exhausted its retry budget.
    pub queries_failed: u64,
}

impl RunReport {
    /// A zeroed report labeled `system`.
    pub fn for_system(system: impl Into<String>) -> Self {
        Self {
            system: system.into(),
            ..Self::default()
        }
    }

    /// Cycles per served vector — the throughput figure every experiment
    /// normalizes against the host baseline.
    pub fn cycles_per_lookup(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.insts as f64
        }
    }

    /// Mean slowest-unit fraction (load imbalance).
    pub fn mean_imbalance(&self) -> f64 {
        if self.slowest_rank_fraction.is_empty() {
            0.0
        } else {
            self.slowest_rank_fraction.iter().sum::<f64>() / self.slowest_rank_fraction.len() as f64
        }
    }

    /// Achieved DRAM data bandwidth in GB/s.
    pub fn bandwidth_gbs(&self) -> f64 {
        recnmp_types::units::bandwidth_gbs(self.dram_bursts * 64, self.total_cycles)
    }

    /// Folds `other` into `self` as a **parallel** merge: counters add,
    /// per-packet vectors concatenate, per-unit counts append, and
    /// `total_cycles` takes the maximum — the wall-clock of independent
    /// channels running side by side. Used by multi-channel clusters.
    pub fn absorb_parallel(&mut self, other: RunReport) {
        self.total_cycles = self.total_cycles.max(other.total_cycles);
        self.insts += other.insts;
        self.packets += other.packets;
        self.packet_latencies.extend(other.packet_latencies);
        self.slowest_rank_fraction
            .extend(other.slowest_rank_fraction);
        self.rank_insts.extend(other.rank_insts);
        add_cache(&mut self.cache, &other.cache);
        add_dram(&mut self.dram, &other.dram);
        self.dram_bursts += other.dram_bursts;
        self.gathered_bytes += other.gathered_bytes;
        self.io_bytes += other.io_bytes;
        self.alu_adds += other.alu_adds;
        self.alu_mults += other.alu_mults;
        self.query_completions.extend(other.query_completions);
        self.host_hits += other.host_hits;
        self.host_misses += other.host_misses;
        self.host_absorbed_bytes += other.host_absorbed_bytes;
        self.prefetch_fills += other.prefetch_fills;
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.failovers += other.failovers;
        self.queries_rejected += other.queries_rejected;
        self.queries_shed += other.queries_shed;
        self.queries_failed += other.queries_failed;
    }

    /// Host-cache hit rate over the offered lookups; zero when no lookups
    /// passed through a host cache.
    pub fn host_hit_rate(&self) -> f64 {
        let offered = self.host_hits + self.host_misses;
        if offered == 0 {
            0.0
        } else {
            self.host_hits as f64 / offered as f64
        }
    }
}

/// Adds `b`'s cache counters into `a`.
pub fn add_cache(a: &mut CacheStats, b: &CacheStats) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.compulsory_misses += b.compulsory_misses;
    a.evictions += b.evictions;
    a.bypasses += b.bypasses;
}

/// Adds `b`'s DRAM counters into `a`.
pub fn add_dram(a: &mut DramStats, b: &DramStats) {
    a.reads += b.reads;
    a.acts += b.acts;
    a.pres += b.pres;
    a.refs += b.refs;
    a.row_hits += b.row_hits;
    a.row_misses += b.row_misses;
    a.row_conflicts += b.row_conflicts;
    a.data_bus_busy += b.data_bus_busy;
    a.cmd_bus_busy += b.cmd_bus_busy;
    a.latency_sum += b.latency_sum;
    a.latency_max = a.latency_max.max(b.latency_max);
    for (x, y) in a.latency_hist.iter_mut().zip(&b.latency_hist) {
        *x += y;
    }
}

/// The counter-wise difference `now - then` of two cumulative DRAM
/// snapshots — how a backend turns a forever-growing controller counter
/// set into a per-run report.
pub fn dram_delta(now: &DramStats, then: &DramStats) -> DramStats {
    let mut d = DramStats {
        reads: now.reads - then.reads,
        acts: now.acts - then.acts,
        pres: now.pres - then.pres,
        refs: now.refs - then.refs,
        row_hits: now.row_hits - then.row_hits,
        row_misses: now.row_misses - then.row_misses,
        row_conflicts: now.row_conflicts - then.row_conflicts,
        data_bus_busy: now.data_bus_busy - then.data_bus_busy,
        cmd_bus_busy: now.cmd_bus_busy - then.cmd_bus_busy,
        latency_sum: now.latency_sum - then.latency_sum,
        // Max is not differentiable; report the lifetime max, which upper
        // bounds this run's.
        latency_max: now.latency_max,
        ..DramStats::new()
    };
    for (slot, (n, t)) in d
        .latency_hist
        .iter_mut()
        .zip(now.latency_hist.iter().zip(&then.latency_hist))
    {
        *slot = n - t;
    }
    d
}

/// The counter-wise difference `now - then` of two cumulative cache
/// snapshots.
pub fn cache_delta(now: &CacheStats, then: &CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - then.hits,
        misses: now.misses - then.misses,
        compulsory_misses: now.compulsory_misses - then.compulsory_misses,
        evictions: now.evictions - then.evictions,
        bypasses: now.bypasses - then.bypasses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_per_lookup_math() {
        let r = RunReport {
            system: "host".into(),
            total_cycles: 1000,
            insts: 250,
            dram_bursts: 250,
            ..RunReport::default()
        };
        assert_eq!(r.cycles_per_lookup(), 4.0);
        assert!(r.bandwidth_gbs() > 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = RunReport::default();
        assert_eq!(r.cycles_per_lookup(), 0.0);
        assert_eq!(r.mean_imbalance(), 0.0);
    }

    #[test]
    fn parallel_merge_takes_max_cycles_and_sums_counters() {
        let mut a = RunReport {
            total_cycles: 100,
            insts: 10,
            packets: 1,
            dram_bursts: 20,
            rank_insts: vec![10],
            ..RunReport::default()
        };
        let b = RunReport {
            total_cycles: 250,
            insts: 30,
            packets: 2,
            dram_bursts: 60,
            rank_insts: vec![15, 15],
            query_completions: vec![90, 250],
            ..RunReport::default()
        };
        a.absorb_parallel(b);
        assert_eq!(a.total_cycles, 250);
        assert_eq!(a.insts, 40);
        assert_eq!(a.packets, 3);
        assert_eq!(a.dram_bursts, 80);
        assert_eq!(a.rank_insts, vec![10, 15, 15]);
        assert_eq!(a.query_completions, vec![90, 250]);
    }

    #[test]
    fn host_cache_counters_sum_and_rate() {
        let mut a = RunReport {
            host_hits: 3,
            host_misses: 5,
            host_absorbed_bytes: 384,
            prefetch_fills: 2,
            ..RunReport::default()
        };
        let b = RunReport {
            host_hits: 1,
            host_misses: 3,
            host_absorbed_bytes: 128,
            prefetch_fills: 4,
            ..RunReport::default()
        };
        a.absorb_parallel(b);
        assert_eq!(
            (a.host_hits, a.host_misses, a.host_absorbed_bytes),
            (4, 8, 512)
        );
        assert_eq!(a.prefetch_fills, 6);
        assert!((a.host_hit_rate() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(RunReport::default().host_hit_rate(), 0.0);
    }

    #[test]
    fn resilience_counters_sum_under_parallel_merge() {
        let mut a = RunReport {
            retries: 2,
            hedges: 1,
            failovers: 3,
            queries_rejected: 4,
            queries_shed: 1,
            queries_failed: 2,
            ..RunReport::default()
        };
        let b = RunReport {
            retries: 1,
            hedges: 2,
            failovers: 1,
            queries_rejected: 0,
            queries_shed: 2,
            queries_failed: 1,
            ..RunReport::default()
        };
        a.absorb_parallel(b);
        assert_eq!((a.retries, a.hedges, a.failovers), (3, 3, 4));
        assert_eq!(
            (a.queries_rejected, a.queries_shed, a.queries_failed),
            (4, 3, 3)
        );
    }

    #[test]
    fn dram_delta_subtracts_every_counter() {
        let mut then = DramStats::new();
        then.reads = 5;
        then.acts = 2;
        then.record_latency(40);
        let mut now = then.clone();
        now.reads = 12;
        now.acts = 6;
        now.record_latency(80);
        let d = dram_delta(&now, &then);
        assert_eq!(d.reads, 7);
        assert_eq!(d.acts, 4);
        assert_eq!(d.latency_sum, 80);
        assert_eq!(d.latency_hist.iter().sum::<u64>(), 1);
    }
}
