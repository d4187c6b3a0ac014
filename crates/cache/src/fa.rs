//! Fully-associative LRU cache with O(log n) operations.
//!
//! The Figure 7(b) study isolates conflict misses by re-running the
//! line-size sweep on a fully-associative cache. At 16 MiB that is
//! hundreds of thousands of ways, far beyond what the linear-scan
//! [`SetAssocCache`](crate::SetAssocCache) handles; this implementation
//! uses a hash map plus an ordered recency index instead. Like the
//! set-associative model it keeps no history of evicted lines, so its
//! `compulsory_misses` stays zero.

use std::collections::BTreeMap;

use recnmp_types::hash::U64Map;
use recnmp_types::ConfigError;

use crate::stats::CacheStats;

/// A fully-associative LRU cache sized in lines.
///
/// # Examples
///
/// ```
/// use recnmp_cache::fa::FullyAssocLru;
///
/// # fn main() -> Result<(), recnmp_types::ConfigError> {
/// let mut c = FullyAssocLru::new(2 * 64, 64)?; // two 64-byte lines
/// c.access(0);
/// c.access(64);
/// c.access(0); // renew line 0
/// c.access(128); // evicts line 64
/// assert!(c.contains(0));
/// assert!(!c.contains(64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocLru {
    line_bytes: u64,
    capacity_lines: usize,
    /// tag -> recency stamp
    lines: U64Map<u64>,
    /// recency stamp -> tag (oldest first)
    recency: BTreeMap<u64, u64>,
    clock: u64,
    stats: CacheStats,
}

impl FullyAssocLru {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `line_bytes` is not a power of two
    /// or the capacity holds no full line.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Result<Self, ConfigError> {
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(ConfigError::new("line_bytes", "must be a power of two"));
        }
        let capacity_lines = (capacity_bytes / line_bytes) as usize;
        if capacity_lines == 0 {
            return Err(ConfigError::new(
                "capacity_bytes",
                "must hold at least one line",
            ));
        }
        Ok(Self {
            line_bytes,
            capacity_lines,
            lines: U64Map::default(),
            recency: BTreeMap::new(),
            clock: 0,
            stats: CacheStats::new(),
        })
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Checks residency without touching replacement state.
    pub fn contains(&self, addr: u64) -> bool {
        self.lines.contains_key(&(addr / self.line_bytes))
    }

    /// Performs one access; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let tag = addr / self.line_bytes;
        if let Some(stamp) = self.lines.get_mut(&tag) {
            self.recency.remove(stamp);
            *stamp = self.clock;
            self.recency.insert(self.clock, tag);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.lines.len() == self.capacity_lines {
            let (&oldest, &victim) = self.recency.iter().next().expect("cache is full");
            self.recency.remove(&oldest);
            self.lines.remove(&victim);
            self.stats.evictions += 1;
        }
        self.lines.insert(tag, self.clock);
        self.recency.insert(self.clock, tag);
        false
    }

    /// Runs a whole trace and returns the hit rate.
    pub fn run_trace<I: IntoIterator<Item = u64>>(&mut self, addrs: I) -> f64 {
        for a in addrs {
            self.access(a);
        }
        self.stats.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::set_assoc::SetAssocCache;

    #[test]
    fn agrees_with_linear_scan_implementation() {
        let mut fast = FullyAssocLru::new(8 * 64, 64).unwrap();
        let mut slow = SetAssocCache::new(CacheConfig::fully_associative(8 * 64, 64)).unwrap();
        let mut x = 123456789u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (x >> 16) % 4096;
            assert_eq!(fast.access(addr), slow.access(addr).is_hit());
        }
        assert_eq!(fast.stats().hits, slow.stats().hits);
        assert_eq!(fast.stats().evictions, slow.stats().evictions);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = FullyAssocLru::new(4 * 64, 64).unwrap();
        for i in 0..100u64 {
            c.access(i * 64);
        }
        assert_eq!(c.stats().evictions, 96);
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(FullyAssocLru::new(32, 64).is_err());
    }
}
