//! Cache access statistics.

use serde::{Deserialize, Serialize};

/// Counters kept by every simulated cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses to lines never missed on before (compulsory/cold misses).
    /// Only [`RankCache`](crate::RankCache) fills this in, counting
    /// demand misses alone; the set- and fully-associative models keep no
    /// line history and leave it zero.
    pub compulsory_misses: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
    /// Accesses that bypassed the cache (RankCache hint said
    /// "low locality").
    pub bypasses: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accesses that went through the lookup path (hits + misses;
    /// bypasses excluded).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate over lookups; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Hit rate counting bypasses as misses — the fraction of *all* traffic
    /// served from the cache.
    pub fn effective_hit_rate(&self) -> f64 {
        let total = self.lookups() + self.bypasses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The best hit rate any cache of this line size could achieve on the
    /// observed trace: one miss per distinct line (compulsory limit).
    pub fn compulsory_limit(&self) -> f64 {
        let total = self.lookups() + self.bypasses;
        if total == 0 {
            0.0
        } else {
            1.0 - self.compulsory_misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 30,
            misses: 70,
            compulsory_misses: 50,
            evictions: 10,
            bypasses: 0,
        };
        assert!((s.hit_rate() - 0.3).abs() < 1e-12);
        assert!((s.compulsory_limit() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn effective_rate_counts_bypasses() {
        let s = CacheStats {
            hits: 50,
            misses: 25,
            compulsory_misses: 25,
            evictions: 0,
            bypasses: 25,
        };
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.effective_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        let s = CacheStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.effective_hit_rate(), 0.0);
        assert_eq!(s.compulsory_limit(), 0.0);
    }
}
