//! The locality-aware optimizer: table-aware scheduling plus hot-entry
//! profiling (Section III-D), bundled behind one switchboard.

use recnmp_trace::profile::{HotEntryProfile, HotEntryProfiler};

use crate::config::{RecNmpConfig, SchedulingPolicy};
use crate::packet::NmpPacket;
use crate::sched;

/// Applies the paper's two HW/SW co-optimizations to a packet stream.
#[derive(Debug, Clone, Copy)]
pub struct LocalityAwareOptimizer {
    /// Packet ordering policy.
    pub scheduling: SchedulingPolicy,
    /// Whether hot-entry profiling runs before kernel launch.
    pub profiling: bool,
    /// RankCache line count used to pick the profiling threshold.
    pub cache_lines: usize,
    /// Largest threshold evaluated in the sweep.
    pub max_threshold: u64,
}

impl LocalityAwareOptimizer {
    /// Derives the optimizer settings from a system configuration.
    pub fn from_config(config: &RecNmpConfig) -> Self {
        Self {
            scheduling: config.scheduling,
            profiling: config.hot_entry_profiling && config.rank_cache.is_some(),
            cache_lines: config.rank_cache.as_ref().map_or(0, |c| c.num_lines()),
            max_threshold: 4,
        }
    }

    /// Profiles one batch's rows (all its poolings' indices, in order)
    /// into `LocalityBit` hints, when profiling is enabled. The threshold
    /// is swept 0..=max and the value with the best predicted hit rate
    /// wins, as in the paper.
    ///
    /// Returns `None`, which marks every lookup cacheable, when profiling
    /// is off and whenever the sweep would mark every row of the batch hot
    /// anyway: a batch with no more lookups than the RankCache has lines
    /// (not even counted) or one whose best threshold is 0 (see
    /// [`HotEntryProfiler::hints`]).
    pub fn profile_batch(&self, rows: &[u32]) -> Option<HotEntryProfile> {
        if !self.profiling {
            return None;
        }
        HotEntryProfiler::new().hints(rows, self.cache_lines, self.max_threshold)
    }

    /// Orders the packet queue.
    pub fn schedule(&self, packets: Vec<NmpPacket>) -> Vec<NmpPacket> {
        sched::schedule(packets, self.scheduling)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_trace::{EmbeddingTableSpec, Pooling, SlsBatch};
    use recnmp_types::TableId;

    fn batch() -> SlsBatch {
        SlsBatch {
            table: TableId::new(0),
            spec: EmbeddingTableSpec::new(1000, 64),
            poolings: vec![Pooling::new(vec![1, 1, 1, 2, 3, 4])],
        }
    }

    /// The batch's rows as an `SlsTrace` stores them.
    fn rows() -> Vec<u32> {
        let rows = batch().flat_indices().into_iter();
        rows.map(|r| u32::try_from(r).unwrap()).collect()
    }

    #[test]
    fn base_config_disables_everything() {
        let opt = LocalityAwareOptimizer::from_config(&RecNmpConfig::with_ranks(1, 2));
        assert!(!opt.profiling);
        assert!(opt.profile_batch(&rows()).is_none());
        assert_eq!(opt.scheduling, SchedulingPolicy::Fcfs);
    }

    #[test]
    fn optimized_config_profiles() {
        let mut opt = LocalityAwareOptimizer::from_config(&RecNmpConfig::optimized(1, 2));
        assert!(opt.profiling);
        assert_eq!(opt.cache_lines, 2048);
        // Six lookups fit 2,048 lines: every row is hot, no profile needed.
        assert!(opt.profile_batch(&rows()).is_none());
        // Row 1 recurs between pairs of single-use rows that thrash two
        // lines unless they are filtered.
        opt.cache_lines = 2;
        let thrashing: Vec<u32> = (0..40)
            .flat_map(|i| [1, 100 + 2 * i, 101 + 2 * i])
            .collect();
        let profile = opt.profile_batch(&thrashing).expect("cold rows filtered");
        assert!(profile.threshold > 0);
        assert!(profile.is_hot(1));
        assert!(!profile.is_hot(100));
    }

    #[test]
    fn profiling_requires_cache() {
        let mut cfg = RecNmpConfig::with_ranks(1, 2);
        cfg.hot_entry_profiling = true; // but no rank_cache
        let opt = LocalityAwareOptimizer::from_config(&cfg);
        assert!(!opt.profiling);
    }
}
