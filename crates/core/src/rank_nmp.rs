//! The rank-NMP module (Figure 8(c)).
//!
//! One rank-NMP sits in front of each rank's DRAM devices. It performs the
//! three functions the paper describes: translating NMP instructions into
//! low-level DDR command sequences (here: driving a single-rank cycle-level
//! DRAM simulator through its local command decoder), managing the
//! memory-side RankCache, and executing the SLS datapath (partial-sum
//! accumulate) in a pipeline that hides behind the memory reads.

use recnmp_cache::{CacheStats, RankCache, RankCacheOutcome};
use recnmp_dram::{DramAddr, MemorySystem};
use recnmp_types::{ConfigError, Cycle, RankId, SimError};
use serde::{Deserialize, Serialize};

use crate::config::{RecNmpConfig, PIPELINE_DEPTH};
use crate::inst::NmpInst;

/// Counters kept by one rank-NMP module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RankNmpStats {
    /// Instructions executed.
    pub insts: u64,
    /// 64-byte bursts read from the DRAM devices.
    pub dram_bursts: u64,
    /// FP32 adds performed.
    pub adds: u64,
    /// Cycles this rank spent busy across all packets.
    pub busy_cycles: Cycle,
}

/// One rank's NMP engine: local DRAM, optional RankCache, datapath stats.
#[derive(Debug)]
pub struct RankNmp {
    id: RankId,
    dram: MemorySystem,
    cache: Option<RankCache>,
    cache_latency: u64,
    stats: RankNmpStats,
}

/// SRAM access latency grows with capacity (Cacti-style): 1 cycle up to
/// 128 KiB, one more per quadrupling beyond that. This is what turns the
/// Figure 15(b) cache-size sweep over from "bigger is better".
pub fn cache_latency_cycles(capacity_bytes: u64) -> u64 {
    let reference = 128 * 1024;
    if capacity_bytes <= reference {
        1
    } else {
        1 + (capacity_bytes as f64 / reference as f64).log(4.0).ceil() as u64
    }
}

impl RankNmp {
    /// Builds the engine for rank `id` under the given system config.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the DRAM or cache configuration is
    /// invalid.
    pub fn new(id: RankId, config: &RecNmpConfig) -> Result<Self, ConfigError> {
        let dram = MemorySystem::new(config.rank_dram_config())?;
        let cache = match &config.rank_cache {
            Some(c) => Some(RankCache::new(*c)?),
            None => None,
        };
        let cache_latency = config
            .rank_cache
            .as_ref()
            .map_or(1, |c| cache_latency_cycles(c.capacity_bytes));
        Ok(Self {
            id,
            dram,
            cache,
            cache_latency,
            stats: RankNmpStats::default(),
        })
    }

    /// This rank's identifier.
    pub fn id(&self) -> RankId {
        self.id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &RankNmpStats {
        &self.stats
    }

    /// RankCache statistics (zeroed when no cache is configured).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(RankCache::stats)
            .unwrap_or_default()
    }

    /// DRAM statistics of this rank's devices.
    pub fn dram_stats(&self) -> &recnmp_dram::DramStats {
        self.dram.stats()
    }

    /// Main-loop iterations this rank's DRAM engine has executed (see
    /// [`recnmp_dram::MemorySystem::loop_iterations`]) — the simulator-cost
    /// metric the throughput benchmarks track.
    pub fn dram_loop_iterations(&self) -> u64 {
        self.dram.loop_iterations()
    }

    /// Executes this rank's slice of a packet.
    ///
    /// `arrivals` pairs each instruction with the cycle the MC delivered
    /// it. Returns the cycle the rank finished its last accumulate; a
    /// rank with no instructions finishes at `start`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if this rank's DRAM devices livelock.
    pub fn process(
        &mut self,
        start: Cycle,
        arrivals: &[(Cycle, NmpInst)],
    ) -> Result<Cycle, SimError> {
        if arrivals.is_empty() {
            return Ok(start);
        }
        let mut last_hit_ready = start;
        let mut enqueued = 0u64;
        for (arrival, inst) in arrivals {
            debug_assert_eq!(
                inst.daddr.rank as usize,
                self.id.index() % 8,
                "instruction routed to wrong rank"
            );
            self.stats.insts += 1;
            // 16 FP32 elements per 64-byte burst.
            self.stats.adds += inst.vsize as u64 * 16;
            let line_addr = rank_local_bytes(&inst.daddr);
            let outcome = match self.cache.as_mut() {
                Some(cache) => {
                    // Multi-burst vectors occupy consecutive cache lines;
                    // hit only if every line is resident.
                    let mut all_hit = true;
                    for b in 0..inst.vsize as u64 {
                        let o = cache.access(line_addr + b * 64, inst.locality);
                        if o != RankCacheOutcome::Hit {
                            all_hit = false;
                        }
                    }
                    if all_hit {
                        RankCacheOutcome::Hit
                    } else if inst.locality {
                        RankCacheOutcome::MissFill
                    } else {
                        RankCacheOutcome::Bypass
                    }
                }
                None => RankCacheOutcome::Bypass,
            };
            if outcome == RankCacheOutcome::Hit {
                // Served from the RankCache; access latency scales with
                // SRAM capacity.
                last_hit_ready = last_hit_ready.max(arrival + self.cache_latency);
            } else {
                for b in 0..inst.vsize {
                    let addr = burst_daddr(&inst.daddr, b);
                    self.dram.enqueue_decoded(addr, *arrival);
                    self.stats.dram_bursts += 1;
                    enqueued += 1;
                }
            }
        }
        let dram_done = if enqueued > 0 {
            // Only the last finish matters, and the run ends there: run
            // the enqueued bursts with no stream behind them and ignore
            // the individual completions.
            self.dram.run_stream(std::iter::empty(), |_| {})?;
            self.dram.cycle()
        } else {
            start
        };
        let done = dram_done.max(last_hit_ready) + PIPELINE_DEPTH;
        self.stats.busy_cycles += done.saturating_sub(start);
        Ok(done)
    }

    /// Whether this rank carries a RankCache at all.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Stages one `bursts`-burst vector at `daddr` into the RankCache via
    /// the stats-clean prefetch path — the inter-query prefetch target.
    /// Returns `true` when at least one line was newly installed; `false`
    /// when fully resident already or when the rank has no cache.
    pub fn prefetch_vector(&mut self, daddr: &DramAddr, bursts: u8) -> bool {
        let Some(cache) = self.cache.as_mut() else {
            return false;
        };
        let line_addr = rank_local_bytes(daddr);
        let mut fresh = false;
        for b in 0..bursts.max(1) as u64 {
            fresh |= cache.prefetch_fill(line_addr + b * 64);
        }
        fresh
    }
}

/// Rank-local byte address of a burst coordinate, used as the RankCache
/// tag (row-major within the rank).
pub fn rank_local_bytes(a: &DramAddr) -> u64 {
    let banks = 16u64;
    let flat_bank = a.flat_bank(4) as u64;
    ((a.row as u64 * banks + flat_bank) * 128 + a.column as u64) * 64
}

/// The coordinates of burst `b` of a multi-burst vector (consecutive
/// columns, wrapping within the row; embedding vectors never straddle
/// rows because tables are row-aligned).
fn burst_daddr(base: &DramAddr, b: u8) -> DramAddr {
    DramAddr {
        rank: 0, // single-rank device simulator
        column: (base.column + b as u32) % 128,
        ..*base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::NmpInst;
    use recnmp_cache::CacheConfig;

    fn config(cache: bool) -> RecNmpConfig {
        let mut cfg = RecNmpConfig::with_ranks(1, 1);
        if cache {
            cfg.rank_cache = Some(CacheConfig::new(4096, 64, 4));
        }
        cfg.refresh = false;
        cfg
    }

    fn inst(row: u32, col: u32) -> NmpInst {
        NmpInst {
            daddr: DramAddr {
                rank: 0,
                bank_group: (row % 4) as u8,
                bank: (row % 16 / 4) as u8,
                row,
                column: col,
            },
            vsize: 1,
            locality: true,
        }
    }

    #[test]
    fn empty_slice_finishes_immediately() {
        let mut r = RankNmp::new(RankId::new(0), &config(false)).unwrap();
        assert_eq!(r.process(100, &[]).unwrap(), 100);
        assert_eq!(r.stats().insts, 0);
    }

    #[test]
    fn single_read_latency_includes_pipeline() {
        let mut r = RankNmp::new(RankId::new(0), &config(false)).unwrap();
        let done = r.process(0, &[(0, inst(1, 0))]).unwrap();
        // ACT + RD + data + pipeline drain.
        assert!(done >= 16 + 16 + 4 + 4);
        assert_eq!(r.stats().dram_bursts, 1);
        assert_eq!(r.stats().adds, 16);
    }

    #[test]
    fn cache_hit_skips_dram() {
        let mut r = RankNmp::new(RankId::new(0), &config(true)).unwrap();
        let i = inst(1, 0);
        r.process(0, &[(0, i)]).unwrap();
        let bursts_before = r.stats().dram_bursts;
        let done = r.process(1000, &[(1000, i)]).unwrap();
        assert_eq!(r.stats().dram_bursts, bursts_before, "hit went to DRAM");
        // Cache hit: 1 cycle + pipeline.
        assert_eq!(done, 1000 + 1 + 4);
        assert_eq!(r.cache_stats().hits, 1);
    }

    #[test]
    fn low_locality_bypasses_cache() {
        let mut r = RankNmp::new(RankId::new(0), &config(true)).unwrap();
        let mut i = inst(1, 0);
        i.locality = false;
        r.process(0, &[(0, i)]).unwrap();
        r.process(1000, &[(1000, i)]).unwrap();
        assert_eq!(r.stats().dram_bursts, 2);
        assert_eq!(r.cache_stats().bypasses, 2);
    }

    #[test]
    fn multi_burst_vector_reads_all_bursts() {
        let mut r = RankNmp::new(RankId::new(0), &config(false)).unwrap();
        let mut i = inst(2, 4);
        i.vsize = 4; // 256-byte vector
        let done = r.process(0, &[(0, i)]).unwrap();
        assert_eq!(r.stats().dram_bursts, 4);
        // Row hit streaming: 4 bursts at tCCD_L spacing after the ACT.
        assert!(done < 70, "{done}");
    }

    #[test]
    fn parallel_bank_reads_overlap() {
        let mut r = RankNmp::new(RankId::new(0), &config(false)).unwrap();
        // 16 instructions spread across all 16 banks.
        let insts: Vec<(Cycle, NmpInst)> = (0..16u32)
            .map(|b| {
                (
                    0,
                    NmpInst {
                        daddr: DramAddr {
                            rank: 0,
                            bank_group: (b % 4) as u8,
                            bank: (b / 4) as u8,
                            row: 7,
                            column: 0,
                        },
                        vsize: 1,
                        locality: true,
                    },
                )
            })
            .collect();
        let done = r.process(0, &insts).unwrap();
        // Serial row misses would cost 16 * ~36 cycles; bank-level
        // parallelism must land far below that.
        assert!(done < 16 * 36, "{done}");
    }

    #[test]
    fn prefetched_vector_hits_on_demand() {
        let mut r = RankNmp::new(RankId::new(0), &config(true)).unwrap();
        let i = inst(1, 0);
        assert!(r.has_cache());
        assert!(r.prefetch_vector(&i.daddr, i.vsize));
        assert!(!r.prefetch_vector(&i.daddr, i.vsize)); // already staged
        let done = r.process(1000, &[(1000, i)]).unwrap();
        // Served from the staged line: no DRAM bursts, cache-hit latency.
        assert_eq!(r.stats().dram_bursts, 0);
        assert_eq!(done, 1000 + 1 + 4);
        assert_eq!(r.cache_stats().hits, 1);
        assert_eq!(r.cache_stats().misses, 0);
    }

    #[test]
    fn prefetch_without_cache_is_inert() {
        let mut r = RankNmp::new(RankId::new(0), &config(false)).unwrap();
        let i = inst(1, 0);
        assert!(!r.has_cache());
        assert!(!r.prefetch_vector(&i.daddr, i.vsize));
    }

    #[test]
    fn cache_latency_grows_with_capacity() {
        assert_eq!(cache_latency_cycles(8 * 1024), 1);
        assert_eq!(cache_latency_cycles(128 * 1024), 1);
        assert_eq!(cache_latency_cycles(256 * 1024), 2);
        assert_eq!(cache_latency_cycles(512 * 1024), 2);
        assert_eq!(cache_latency_cycles(1024 * 1024), 3);
    }

    #[test]
    fn rank_local_bytes_is_injective_across_columns_and_rows() {
        let mut seen = std::collections::HashSet::new();
        for row in 0..4u32 {
            for col in 0..128u32 {
                for bank in 0..4u8 {
                    let a = DramAddr {
                        rank: 0,
                        bank_group: bank,
                        bank: 0,
                        row,
                        column: col,
                    };
                    assert!(seen.insert(rank_local_bytes(&a)));
                }
            }
        }
    }
}
