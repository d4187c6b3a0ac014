//! The RankCache: RecNMP's memory-side cache with bypass hints.
//!
//! One RankCache sits in each rank-NMP module (Section III-A of the paper).
//! It differs from an ordinary cache in two ways:
//!
//! * embedding tables are **read-only during inference**, so there is no
//!   dirty state and bypassing never affects correctness; and
//! * each access carries a **cacheability hint** — the `LocalityBit` set by
//!   hot-entry profiling. Unhinted accesses bypass the cache, which avoids
//!   polluting the small structure with single-use vectors.
//!
//! Access energy comes from Table I: 50 pJ per access. The access
//! latency is the rank-NMP model's, which scales it with capacity.
//!
//! It is also the one cache in the crate that counts cold misses: its
//! compulsory limit is what Figure 12 reports beside the hit rate.

use recnmp_types::hash::U64Set;
use recnmp_types::ConfigError;

use crate::config::CacheConfig;
use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;

/// RankCache access energy in picojoules (Table I).
pub const RANK_CACHE_ACCESS_PJ: f64 = 50.0;

/// What happened to a RankCache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankCacheOutcome {
    /// Served from the cache: no DRAM access needed.
    Hit,
    /// Missed; the line was fetched from DRAM and allocated.
    MissFill,
    /// The hint said "low locality": went straight to DRAM, no allocation.
    Bypass,
}

/// Memory-side cache of one rank-NMP module.
///
/// # Examples
///
/// ```
/// use recnmp_cache::{CacheConfig, RankCache, RankCacheOutcome};
///
/// # fn main() -> Result<(), recnmp_types::ConfigError> {
/// let mut rc = RankCache::new(CacheConfig::rank_cache_default())?;
/// assert_eq!(rc.access(0x80, true), RankCacheOutcome::MissFill);
/// assert_eq!(rc.access(0x80, true), RankCacheOutcome::Hit);
/// // A low-locality access bypasses even though the line is absent.
/// assert_eq!(rc.access(0x4000, false), RankCacheOutcome::Bypass);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RankCache {
    inner: SetAssocCache,
    /// Every line id a hinted demand access has missed on; its size is
    /// the compulsory-miss count. Prefetch fills do not enter it.
    demand_missed: U64Set,
    bypasses: u64,
    prefetch_fills: u64,
}

impl RankCache {
    /// Builds an empty RankCache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is inconsistent.
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        Ok(Self {
            inner: SetAssocCache::new(config)?,
            demand_missed: U64Set::default(),
            bypasses: 0,
            prefetch_fills: 0,
        })
    }

    /// Performs one access.
    ///
    /// `cacheable` carries the NMP instruction's `LocalityBit`: when false
    /// the lookup is skipped entirely and the access goes to DRAM. A
    /// *hit* is still possible for uncacheable lines that happen to be
    /// resident — the paper bypasses the lookup too, so we match that and
    /// do not probe.
    pub fn access(&mut self, addr: u64, cacheable: bool) -> RankCacheOutcome {
        if !cacheable {
            self.bypasses += 1;
            return RankCacheOutcome::Bypass;
        }
        if self.inner.access(addr).is_hit() {
            RankCacheOutcome::Hit
        } else {
            self.demand_missed.insert(self.inner.line_id(addr));
            RankCacheOutcome::MissFill
        }
    }

    /// Stages a predicted-hot line without recording a lookup — the
    /// inter-query prefetch path (ProactivePIM-style): lines installed
    /// during an idle gap only pay off when a later *hinted* demand
    /// access finds them, so they must not perturb hit/miss accounting.
    /// Returns `true` when the line was newly installed.
    pub fn prefetch_fill(&mut self, addr: u64) -> bool {
        let fresh = self.inner.fill(addr);
        if fresh {
            self.prefetch_fills += 1;
        }
        fresh
    }

    /// Lines newly installed by [`prefetch_fill`](Self::prefetch_fill).
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Statistics, with bypasses and compulsory misses folded in. A
    /// compulsory miss is the first demand miss on a line; a line that
    /// was prefetched and then hit never counts.
    pub fn stats(&self) -> CacheStats {
        let mut s = *self.inner.stats();
        s.bypasses = self.bypasses;
        s.compulsory_misses = self.demand_missed.len() as u64;
        s
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CacheConfig {
        self.inner.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rc() -> RankCache {
        RankCache::new(CacheConfig::new(512, 64, 4)).unwrap()
    }

    #[test]
    fn hit_after_fill() {
        let mut c = rc();
        assert_eq!(c.access(0, true), RankCacheOutcome::MissFill);
        assert_eq!(c.access(0, true), RankCacheOutcome::Hit);
    }

    #[test]
    fn bypass_does_not_allocate() {
        let mut c = rc();
        assert_eq!(c.access(0, false), RankCacheOutcome::Bypass);
        // Still a miss when later accessed cacheably.
        assert_eq!(c.access(0, true), RankCacheOutcome::MissFill);
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn bypass_skips_lookup_even_when_resident() {
        let mut c = rc();
        c.access(0, true);
        assert_eq!(c.access(0, false), RankCacheOutcome::Bypass);
    }

    #[test]
    fn effective_hit_rate_penalizes_bypasses() {
        let mut c = rc();
        c.access(0, true); // miss
        c.access(0, true); // hit
        c.access(64, false); // bypass
        c.access(128, false); // bypass
        let s = c.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.effective_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prefetch_fill_turns_demand_miss_into_hit() {
        let mut c = rc();
        assert!(c.prefetch_fill(0x80));
        assert!(!c.prefetch_fill(0x80));
        assert_eq!(c.prefetch_fills(), 1);
        // The staged line costs no lookups, and the hinted demand access
        // now hits instead of filling.
        assert_eq!(c.stats().lookups(), 0);
        assert_eq!(c.access(0x80, true), RankCacheOutcome::Hit);
        // Unhinted accesses still bypass: prefetch only helps lines the
        // locality profiler marked cacheable.
        assert_eq!(c.access(0x80, false), RankCacheOutcome::Bypass);
    }
}
