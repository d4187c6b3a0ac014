//! Multi-channel RecNMP: N independent channels behind one dispatch API.
//!
//! The paper models a single RecNMP-equipped memory channel; production
//! recommendation servers have many. [`RecNmpCluster`] is the first
//! scaling axis beyond that single-channel model: it fans a multi-table
//! SLS workload out across `channels` independent [`RecNmpSystem`]s under
//! a [`ShardingPolicy`] and merges the per-channel [`RunReport`]s into
//! one (counters add, wall-clock is the slowest channel).
//!
//! Because the channels share no state, the cluster simulates them as
//! independent tasks on the deterministic worker pool (`recnmp-exec`):
//! simulator wall-clock scales with the pool's worker count while thread
//! usage stays fixed — a 256-channel cluster never spawns 256 threads —
//! and reports stay deterministic, because shards are merged in channel
//! order, never completion order.
//!
//! The cluster is itself an [`SlsBackend`], so the experiment harness
//! compares it against the single-channel systems without special cases.
//!
//! # Examples
//!
//! ```
//! use recnmp::cluster::{RecNmpCluster, RecNmpClusterConfig};
//! use recnmp_backend::{ShardingPolicy, SlsBackend, SlsTrace};
//! use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
//! use recnmp_types::{PhysAddr, TableId};
//!
//! # fn main() -> Result<(), recnmp_types::ConfigError> {
//! // 4 channels of 4 DIMMs x 2 ranks, tables pinned to channels.
//! let config = RecNmpClusterConfig::builder()
//!     .channels(4)
//!     .dimms(4)
//!     .ranks_per_dimm(2)
//!     .sharding(ShardingPolicy::HashByTable)
//!     .build()?;
//! let mut cluster = RecNmpCluster::new(config)?;
//!
//! let spec = EmbeddingTableSpec::dlrm_default();
//! let batches: Vec<_> = (0..8u32)
//!     .map(|t| {
//!         TraceGenerator::new(TableId::new(t), spec, IndexDistribution::Uniform, 3)
//!             .batch(4, 20)
//!     })
//!     .collect();
//! let trace = SlsTrace::from_batches(&batches, &mut |t, row| {
//!     PhysAddr::new(((t as u64) << 30) ^ (row * 128))
//! });
//! let report = cluster.run(&trace);
//! assert_eq!(report.insts, trace.total_lookups());
//! # Ok(())
//! # }
//! ```

use recnmp_backend::{
    check_server, shard_slots, PlacementPlan, RunReport, ShardingPolicy, SlsBackend, SlsTrace,
};
use recnmp_types::{ConfigError, SimError};
use serde::{Deserialize, Serialize};

use crate::config::RecNmpConfig;
use crate::system::RecNmpSystem;

/// Geometry and dispatch policy of a [`RecNmpCluster`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecNmpClusterConfig {
    /// Independent RecNMP channels.
    pub channels: usize,
    /// Configuration every channel shares.
    pub channel: RecNmpConfig,
    /// How batches are dispatched to channels.
    pub sharding: ShardingPolicy,
}

impl RecNmpClusterConfig {
    /// A cluster of `channels` copies of `channel`, hash-by-table sharded.
    pub fn new(channels: usize, channel: RecNmpConfig) -> Self {
        Self {
            channels,
            channel,
            sharding: ShardingPolicy::HashByTable,
        }
    }

    /// Starts a geometry builder with the paper's single-channel defaults
    /// (1 channel of 4 DIMMs x 2 ranks, RecNMP-base, hash-by-table).
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// Total ranks across the cluster.
    pub fn total_ranks(&self) -> usize {
        self.channels * self.channel.total_ranks() as usize
    }

    /// Validates the cluster geometry and the shared channel config.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a zero channel count or an invalid
    /// per-channel configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.channels == 0 {
            return Err(ConfigError::new("channels", "must be positive"));
        }
        self.channel.validate()
    }
}

/// Fluent builder for [`RecNmpClusterConfig`] geometry.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    channels: usize,
    dimms: u8,
    ranks_per_dimm: u8,
    optimized: bool,
    refresh: bool,
    poolings_per_packet: Option<usize>,
    sharding: ShardingPolicy,
}

impl Default for ClusterConfigBuilder {
    fn default() -> Self {
        Self {
            channels: 1,
            dimms: 4,
            ranks_per_dimm: 2,
            optimized: false,
            refresh: true,
            poolings_per_packet: None,
            sharding: ShardingPolicy::HashByTable,
        }
    }
}

impl ClusterConfigBuilder {
    /// Number of independent channels.
    pub fn channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// DIMMs per channel.
    pub fn dimms(mut self, dimms: u8) -> Self {
        self.dimms = dimms;
        self
    }

    /// Ranks per DIMM.
    pub fn ranks_per_dimm(mut self, ranks: u8) -> Self {
        self.ranks_per_dimm = ranks;
        self
    }

    /// Use the RecNMP-opt channel configuration (RankCache, table-aware
    /// scheduling, hot-entry profiling) instead of RecNMP-base.
    pub fn optimized(mut self, optimized: bool) -> Self {
        self.optimized = optimized;
        self
    }

    /// Whether the per-rank DRAM devices simulate refresh.
    pub fn refresh(mut self, refresh: bool) -> Self {
        self.refresh = refresh;
        self
    }

    /// Poolings packed per NMP packet (1–16).
    pub fn poolings_per_packet(mut self, ppp: usize) -> Self {
        self.poolings_per_packet = Some(ppp);
        self
    }

    /// Batch dispatch policy.
    pub fn sharding(mut self, sharding: ShardingPolicy) -> Self {
        self.sharding = sharding;
        self
    }

    /// Finalizes and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid geometry.
    pub fn build(self) -> Result<RecNmpClusterConfig, ConfigError> {
        let mut channel = if self.optimized {
            RecNmpConfig::optimized(self.dimms, self.ranks_per_dimm)
        } else {
            RecNmpConfig::with_ranks(self.dimms, self.ranks_per_dimm)
        };
        channel.refresh = self.refresh;
        if let Some(ppp) = self.poolings_per_packet {
            channel.poolings_per_packet = ppp;
        }
        let config = RecNmpClusterConfig {
            channels: self.channels,
            channel,
            sharding: self.sharding,
        };
        config.validate()?;
        Ok(config)
    }
}

/// N independent RecNMP channels behind one [`SlsBackend`] dispatch API.
#[derive(Debug)]
pub struct RecNmpCluster {
    name: String,
    sharding: ShardingPolicy,
    channels: Vec<RecNmpSystem>,
}

impl RecNmpCluster {
    /// Builds the cluster.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid configurations.
    pub fn new(config: RecNmpClusterConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let channels = (0..config.channels)
            .map(|_| RecNmpSystem::new(config.channel.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            name: format!("recnmp-cluster[{}]", config.channels),
            sharding: config.sharding,
            channels,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The dispatch policy.
    pub fn sharding(&self) -> ShardingPolicy {
        self.sharding
    }

    /// Always `None`: placement lives in the serving layer, which shards
    /// each query itself. Kept for an outside harness that still asks.
    pub fn placement(&self) -> Option<&PlacementPlan> {
        None
    }

    /// Access to one channel (for per-channel inspection in experiments).
    pub fn channel(&self, i: usize) -> &RecNmpSystem {
        &self.channels[i]
    }

    /// Mutable access to all channels at once, so a composing system
    /// (the tiered cluster) can fan independent per-channel work out as
    /// parallel pool tasks instead of serializing behind one `&mut
    /// RecNmpCluster` borrow.
    pub fn channels_mut(&mut self) -> &mut [RecNmpSystem] {
        &mut self.channels
    }
}

impl SlsBackend for RecNmpCluster {
    /// `"recnmp-cluster[N]"` — always equal to the `system` label of the
    /// reports this backend returns.
    fn name(&self) -> &str {
        &self.name
    }

    /// Shards `trace` across the channels under the stateless
    /// [`ShardingPolicy`], runs every shard as **one task on the
    /// deterministic worker pool** (the channels are independent
    /// hardware running in parallel, but thread usage is bounded by the
    /// pool's worker count, not the channel count) and merges the
    /// per-channel reports: counters add, per-unit instruction counts
    /// concatenate (channel-major), and `total_cycles` is the slowest
    /// channel.
    ///
    /// The merge order is the fixed channel order regardless of task
    /// completion order, so reports are deterministic and identical to a
    /// serial channel-by-channel run at any worker count.
    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let shards = trace.shard(self.channels.len(), self.sharding);
        let tasks: Vec<_> = self
            .channels
            .iter_mut()
            .zip(shards)
            .map(|(channel, shard)| move || channel.try_run(&shard))
            .collect();
        let reports = recnmp_exec::current().run_vec(tasks)?;
        let mut merged = RunReport::for_system(self.name.clone());
        for report in reports {
            merged.absorb_parallel(report);
        }
        Ok(merged)
    }

    /// One dispatchable server per channel.
    fn server_count(&self) -> usize {
        self.channels.len()
    }

    /// Serves `trace` entirely on channel `server` — the query-scheduler
    /// dispatch hook. Unlike [`try_run`](SlsBackend::try_run), the trace
    /// is **not** sharded: the whole query lands on one channel, so a
    /// serving layer controls placement (and therefore queueing) itself.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when `server >= self.channels()`
    /// ([`check_server`]), and the channel's error otherwise.
    fn try_run_on(&mut self, server: usize, trace: &SlsTrace) -> Result<RunReport, SimError> {
        check_server(server, self.channels.len())?;
        self.channels[server].try_run(trace)
    }

    /// Runs each shard on its channel as one task on the deterministic
    /// worker pool — the channels are independent hardware — and returns
    /// the reports in shard order, byte-identical to the serial default
    /// at any worker count. A fleet serving layer calls this once per
    /// node per job, nesting node-level fan-out over channel-level
    /// fan-out (waiting submitters help run their own batch, so nesting
    /// never deadlocks the pool).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the shard channels are not
    /// strictly increasing or one is out of range ([`shard_slots`]), and
    /// the first shard's error otherwise.
    fn try_run_shards(&mut self, shards: &[(usize, SlsTrace)]) -> Result<Vec<RunReport>, SimError> {
        let slots = shard_slots(shards, self.channels.len())?;
        let tasks: Vec<_> = self
            .channels
            .iter_mut()
            .zip(&slots)
            .filter_map(|(channel, slot)| slot.map(|shard| move || channel.try_run(shard)))
            .collect();
        recnmp_exec::current().run_vec(tasks)
    }

    /// Forwards the prefetch to channel `server`'s RankCaches (the
    /// channel is a single-server system, so its server index is 0).
    ///
    /// # Panics
    ///
    /// Panics when `server >= self.channels()`.
    fn prefetch_on(
        &mut self,
        server: usize,
        addrs: &[recnmp_types::PhysAddr],
        vector_bytes: u32,
        budget_cycles: recnmp_types::Cycle,
    ) -> u64 {
        assert!(
            server < self.channels.len(),
            "server {server} out of range for {} channel(s)",
            self.channels.len()
        );
        self.channels[server].prefetch_on(0, addrs, vector_bytes, budget_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
    use recnmp_types::{PhysAddr, TableId};

    fn workload(tables: u32, batch: usize) -> SlsTrace {
        let batches: Vec<SlsBatch> = (0..tables)
            .map(|t| {
                TraceGenerator::new(
                    TableId::new(t),
                    EmbeddingTableSpec::dlrm_default(),
                    IndexDistribution::Zipf { s: 0.9 },
                    91 + t as u64,
                )
                .batch(batch, 80)
            })
            .collect();
        SlsTrace::from_batches(&batches, &mut |t, row| {
            PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
        })
    }

    fn cluster(channels: usize) -> RecNmpCluster {
        let config = RecNmpClusterConfig::builder()
            .channels(channels)
            .dimms(1)
            .ranks_per_dimm(2)
            .refresh(false)
            .build()
            .unwrap();
        RecNmpCluster::new(config).unwrap()
    }

    #[test]
    fn builder_validates_geometry() {
        assert!(RecNmpClusterConfig::builder().channels(0).build().is_err());
        assert!(RecNmpClusterConfig::builder()
            .ranks_per_dimm(0)
            .build()
            .is_err());
        let cfg = RecNmpClusterConfig::builder()
            .channels(4)
            .optimized(true)
            .build()
            .unwrap();
        assert_eq!(cfg.total_ranks(), 4 * 8);
        assert!(cfg.channel.rank_cache.is_some());
    }

    #[test]
    fn cluster_conserves_lookups() {
        let trace = workload(8, 4);
        let mut c = cluster(4);
        let report = c.run(&trace);
        assert_eq!(report.insts, trace.total_lookups());
        assert_eq!(report.rank_insts.iter().sum::<u64>(), trace.total_lookups());
        assert_eq!(report.gathered_bytes, trace.total_lookups() * 128);
        assert_eq!(report.system, "recnmp-cluster[4]");
    }

    #[test]
    fn more_channels_cut_wall_clock() {
        let trace = workload(8, 8);
        let one = cluster(1).run(&trace).total_cycles;
        let four = cluster(4).run(&trace).total_cycles;
        assert!(
            (four as f64) < (one as f64) / 3.0,
            "1-channel {one} vs 4-channel {four}"
        );
    }

    #[test]
    fn round_robin_handles_single_table() {
        // All batches hit one table: hash-by-table would serialize on one
        // channel; round-robin still spreads the load.
        let batches: Vec<SlsBatch> = (0..8)
            .map(|i| {
                TraceGenerator::new(
                    TableId::new(0),
                    EmbeddingTableSpec::dlrm_default(),
                    IndexDistribution::Uniform,
                    17 + i,
                )
                .batch(4, 40)
            })
            .collect();
        let trace = SlsTrace::from_batches(&batches, &mut |_, row| PhysAddr::new(row * 131 * 128));
        let config = RecNmpClusterConfig::builder()
            .channels(4)
            .dimms(1)
            .ranks_per_dimm(2)
            .refresh(false)
            .sharding(ShardingPolicy::RoundRobin)
            .build()
            .unwrap();
        let mut rr = RecNmpCluster::new(config).unwrap();
        let report = rr.run(&trace);
        assert_eq!(report.insts, trace.total_lookups());
        // Every channel saw work: 8 ranks' worth of per-unit counts.
        assert_eq!(report.rank_insts.len(), 8);
        assert!(report.rank_insts.iter().all(|&n| n > 0));
    }

    /// The config error `try_run_shards` returns for `shards`.
    fn shards_error(shards: &[(usize, SlsTrace)]) -> ConfigError {
        match cluster(2).try_run_shards(shards) {
            Err(SimError::Config(e)) => e,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_shards_are_a_config_error() {
        let trace = workload(2, 1);
        let e = shards_error(&[(1, trace.clone()), (0, trace)]);
        assert_eq!(e.field(), "shards");
        assert!(e.reason().contains("strictly increasing"), "{e}");
    }

    #[test]
    fn out_of_range_shards_are_a_config_error() {
        let trace = workload(2, 1);
        let e = shards_error(&[(0, trace.clone()), (5, trace)]);
        assert_eq!(e.field(), "shards");
        assert!(e.reason().contains("server 5 out of range"), "{e}");
    }

    #[test]
    fn empty_trace_is_zero() {
        let mut c = cluster(2);
        let report = c.run(&SlsTrace::default());
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.insts, 0);
    }

    #[test]
    fn try_run_on_targets_a_single_channel() {
        let trace = workload(4, 2);
        let mut c = cluster(4);
        assert_eq!(c.server_count(), 4);
        let report = c.try_run_on(2, &trace).unwrap();
        // The whole query is served, unsharded, by one 2-rank channel.
        assert_eq!(report.insts, trace.total_lookups());
        assert_eq!(report.rank_insts.len(), 2);
        // Only channel 2 advanced; the others are untouched and a later
        // dispatch to them starts from a cold channel clock.
        let other = c.try_run_on(0, &trace).unwrap();
        assert_eq!(other.insts, trace.total_lookups());
    }

    #[test]
    fn prefetch_forwards_per_channel() {
        let config = RecNmpClusterConfig::builder()
            .channels(2)
            .dimms(1)
            .ranks_per_dimm(2)
            .refresh(false)
            .optimized(true)
            .build()
            .unwrap();
        let mut c = RecNmpCluster::new(config).unwrap();
        let trace = workload(1, 8);
        let addrs: Vec<PhysAddr> = trace.batch(0).addrs().iter().copied().take(16).collect();
        let staged = c.prefetch_on(1, &addrs, 128, recnmp_types::Cycle::MAX);
        assert!(staged > 0, "optimized channels have RankCaches to fill");
        // Channel 0's caches were untouched by the channel-1 prefetch.
        assert!(c.prefetch_on(0, &addrs, 128, recnmp_types::Cycle::MAX) > 0);
        // Re-staging on a warm channel finds everything resident.
        assert_eq!(c.prefetch_on(1, &addrs, 128, recnmp_types::Cycle::MAX), 0);
    }

    #[test]
    fn try_run_on_rejects_bad_server() {
        let trace = workload(2, 1);
        let Err(SimError::Config(e)) = cluster(2).try_run_on(5, &trace) else {
            panic!("an out-of-range server must be a config error");
        };
        assert_eq!(e.field(), "server");
        assert!(e.reason().contains("server 5 out of range"), "{e}");
    }
}
