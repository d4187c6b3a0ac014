//! DRAM-NMP channels plus SSD units behind one dispatch surface.

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::{check_server, shard_slots, RunReport, ShardingPolicy, SlsBackend, SlsTrace};
use recnmp_types::{ConfigError, SimError};

use crate::ssd::{SsdNmpBackend, SsdNmpConfig};

/// The two-tier execution system: a [`RecNmpCluster`] of DRAM channels
/// and a set of [`SsdNmpBackend`] units, exposed as one [`SlsBackend`]
/// whose server space concatenates both tiers — DRAM channels are
/// servers `0..dram_servers()`, SSD units follow.
///
/// The numbering matches `TierSpec`'s combined unit space in
/// `recnmp_backend::placement::tiered`, so a `TieredPlacementPlan`'s
/// unit picks are directly dispatchable via
/// [`try_run_on`](SlsBackend::try_run_on).
///
/// # Examples
///
/// ```
/// use recnmp_backend::SlsBackend;
/// use recnmp_storage::TieredCluster;
///
/// let cluster = TieredCluster::reference(4, 2).unwrap();
/// assert_eq!(cluster.server_count(), 6);
/// assert_eq!(cluster.dram_servers(), 4);
/// ```
#[derive(Debug)]
pub struct TieredCluster {
    name: String,
    dram: RecNmpCluster,
    ssds: Vec<SsdNmpBackend>,
}

impl TieredCluster {
    /// Builds the tiered system from an existing DRAM cluster and SSD
    /// units.
    pub fn new(dram: RecNmpCluster, ssds: Vec<SsdNmpBackend>) -> Self {
        Self {
            name: format!("tiered[{}+{}]", dram.channels(), ssds.len()),
            dram,
            ssds,
        }
    }

    /// Builds the reference geometry: `dram_channels` Table-I RecNMP
    /// channels (1 DIMM x 2 ranks each) plus `ssd_units` default-config
    /// SSD units.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid geometry.
    pub fn reference(dram_channels: usize, ssd_units: usize) -> Result<Self, ConfigError> {
        let config = RecNmpClusterConfig::builder()
            .channels(dram_channels)
            .dimms(1)
            .ranks_per_dimm(2)
            .build()?;
        let dram = RecNmpCluster::new(config)?;
        let ssds = (0..ssd_units)
            .map(|_| SsdNmpBackend::new(SsdNmpConfig::default()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(dram, ssds))
    }

    /// Servers belonging to the DRAM tier (`0..dram_servers()`).
    pub fn dram_servers(&self) -> usize {
        self.dram.server_count()
    }

    /// Number of SSD units.
    pub fn ssd_units(&self) -> usize {
        self.ssds.len()
    }

    /// The DRAM tier.
    pub fn dram(&self) -> &RecNmpCluster {
        &self.dram
    }

    /// One SSD unit.
    pub fn ssd(&self, i: usize) -> &SsdNmpBackend {
        &self.ssds[i]
    }
}

impl SlsBackend for TieredCluster {
    /// `"tiered[D+S]"` for D DRAM channels and S SSD units.
    fn name(&self) -> &str {
        &self.name
    }

    /// Shards `trace` by table hash across the *combined* server space
    /// and runs every non-empty shard as one task on the deterministic
    /// worker pool — DRAM channels and SSD units are independent
    /// hardware, so both tiers simulate in parallel under the pool's
    /// fixed thread budget. Reports merge in server order regardless of
    /// completion order, byte-identical to the old serial per-server
    /// loop. Tier-aware serving dispatches per unit through
    /// [`try_run_on`](SlsBackend::try_run_on) instead.
    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        let mut shards = trace
            .shard(self.server_count(), ShardingPolicy::HashByTable)
            .into_iter();
        // Pair every unit of both tiers with its shard, dropping empty
        // shards (their units contribute nothing to the merged report).
        let mut jobs: Vec<(&mut dyn SlsBackend, SlsTrace)> = Vec::new();
        for (channel, shard) in self.dram.channels_mut().iter_mut().zip(shards.by_ref()) {
            if !shard.is_empty() {
                jobs.push((channel, shard));
            }
        }
        for (ssd, shard) in self.ssds.iter_mut().zip(shards) {
            if !shard.is_empty() {
                jobs.push((ssd, shard));
            }
        }
        let tasks: Vec<_> = jobs
            .iter_mut()
            .map(|(unit, shard)| move || unit.try_run(shard))
            .collect();
        let reports = recnmp_exec::current().run_vec(tasks)?;
        let mut merged = RunReport::for_system(self.name.clone());
        for report in reports {
            merged.absorb_parallel(report);
        }
        merged.system = self.name.clone();
        Ok(merged)
    }

    fn server_count(&self) -> usize {
        self.dram.server_count() + self.ssds.len()
    }

    /// Runs `trace` entirely on one unit of either tier: DRAM channels
    /// first, then SSD units.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when `server >= self.server_count()`
    /// ([`check_server`]), and the unit's error otherwise.
    fn try_run_on(&mut self, server: usize, trace: &SlsTrace) -> Result<RunReport, SimError> {
        check_server(server, self.server_count())?;
        let d = self.dram.server_count();
        if server < d {
            self.dram.try_run_on(server, trace)
        } else {
            self.ssds[server - d].try_run(trace)
        }
    }

    /// Runs each shard on its unit (DRAM channel or SSD) as one pool
    /// task, reports in shard order — the fleet node handle for tiered
    /// nodes, identical to the serial default at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the shard units are not strictly
    /// increasing or one is out of range ([`shard_slots`]), and the first
    /// shard's error otherwise.
    fn try_run_shards(&mut self, shards: &[(usize, SlsTrace)]) -> Result<Vec<RunReport>, SimError> {
        let slots = shard_slots(shards, self.server_count())?;
        let backends = self
            .dram
            .channels_mut()
            .iter_mut()
            .map(|c| c as &mut dyn SlsBackend)
            .chain(self.ssds.iter_mut().map(|s| s as &mut dyn SlsBackend));
        let tasks: Vec<_> = backends
            .zip(&slots)
            .filter_map(|(unit, slot)| slot.map(|shard| move || unit.try_run(shard)))
            .collect();
        recnmp_exec::current().run_vec(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
    use recnmp_types::{PhysAddr, TableId};

    fn trace(tables: u32, seed: u64) -> SlsTrace {
        let spec = EmbeddingTableSpec::new(1 << 18, 128);
        let batches: Vec<SlsBatch> = (0..tables)
            .map(|t| {
                TraceGenerator::new(
                    TableId::new(t),
                    spec,
                    IndexDistribution::Uniform,
                    seed + t as u64,
                )
                .batch(2, 8)
            })
            .collect();
        SlsTrace::from_batches(&batches, &mut |t, row| {
            PhysAddr::new(((t as u64) << 32) | (row * 128))
        })
    }

    #[test]
    fn combined_server_space_conserves_lookups() {
        let t = trace(6, 13);
        let mut cluster = TieredCluster::reference(4, 2).unwrap();
        let r = cluster.run(&t);
        assert_eq!(r.insts, t.total_lookups());
        assert_eq!(cluster.server_count(), 6);
    }

    #[test]
    fn per_server_dispatch_reaches_both_tiers() {
        let t = trace(1, 21);
        let mut cluster = TieredCluster::reference(2, 1).unwrap();
        let on_dram = cluster.try_run_on(0, &t).unwrap();
        let on_ssd = cluster.try_run_on(2, &t).unwrap();
        assert_eq!(on_dram.insts, t.total_lookups());
        assert_eq!(on_ssd.insts, t.total_lookups());
        assert_eq!(on_ssd.system, "ssd-nmp");
        // The cold SSD tier is far slower than a DRAM channel — that gap
        // is the entire premise of tiered placement.
        assert!(on_ssd.total_cycles > 4 * on_dram.total_cycles);
    }

    #[test]
    fn per_server_dispatch_rejects_bad_server() {
        let t = trace(1, 21);
        let mut cluster = TieredCluster::reference(2, 1).unwrap();
        match cluster.try_run_on(3, &t) {
            Err(SimError::Config(e)) => {
                assert!(e.reason().contains("server 3 out of range for 3"), "{e}");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn tiered_runs_are_deterministic() {
        let t = trace(6, 5);
        let mut a = TieredCluster::reference(4, 2).unwrap();
        let mut b = TieredCluster::reference(4, 2).unwrap();
        assert_eq!(a.run(&t), b.run(&t));
    }

    /// The config error `try_run_shards` returns for `shards` on a node
    /// of 2 DRAM channels and 1 SSD unit.
    fn shards_error(shards: &[(usize, SlsTrace)]) -> ConfigError {
        let mut cluster = TieredCluster::reference(2, 1).unwrap();
        match cluster.try_run_shards(shards) {
            Err(SimError::Config(e)) => e,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_shards_are_a_config_error() {
        let t = trace(2, 3);
        let e = shards_error(&[(2, t.clone()), (0, t)]);
        assert_eq!(e.field(), "shards");
        assert!(e.reason().contains("strictly increasing"), "{e}");
    }

    #[test]
    fn out_of_range_shards_are_a_config_error() {
        let t = trace(2, 3);
        let e = shards_error(&[(0, t.clone()), (3, t)]);
        assert_eq!(e.field(), "shards");
        assert!(e.reason().contains("server 3 out of range"), "{e}");
    }
}
