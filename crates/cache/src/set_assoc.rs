//! Set-associative cache model.

use recnmp_types::hash::U64Set;
use recnmp_types::ConfigError;

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::stats::CacheStats;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line was resident.
    Hit,
    /// Line was absent; `evicted` names the displaced line's base address,
    /// `compulsory` is true when the line was never referenced before.
    Miss {
        /// Base address of the evicted line, if a valid line was displaced.
        evicted: Option<u64>,
        /// Whether this was a cold (first-reference) miss.
        compulsory: bool,
    },
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Self::Hit)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    /// LRU timestamp or FIFO insertion order, depending on policy.
    stamp: u64,
    valid: bool,
}

/// A set-associative cache with LRU or FIFO replacement.
///
/// Addresses are plain `u64` byte addresses; the cache works on aligned
/// lines of `line_bytes`. The model is *trace driven*: it tracks only
/// presence, not contents.
///
/// # Examples
///
/// ```
/// use recnmp_cache::{CacheConfig, SetAssocCache};
///
/// # fn main() -> Result<(), recnmp_types::ConfigError> {
/// let mut c = SetAssocCache::new(CacheConfig::new(4096, 64, 4))?;
/// c.access(0);
/// assert!(c.contains(32)); // same 64-byte line
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// All lines in one flat allocation, indexed `set * ways + way` — one
    /// contiguous block instead of a `Vec<Vec<Line>>` of per-set heap
    /// islands, so the rank-cache hot path walks a set without chasing an
    /// outer pointer.
    lines: Vec<Line>,
    num_sets: usize,
    clock: u64,
    /// Every line id ever referenced, for compulsory-miss accounting.
    seen: U64Set,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is inconsistent
    /// (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let num_sets = config.num_sets();
        let lines = vec![
            Line {
                tag: 0,
                stamp: 0,
                valid: false
            };
            num_sets * config.ways
        ];
        Ok(Self {
            config,
            lines,
            num_sets,
            clock: 0,
            seen: U64Set::default(),
            stats: CacheStats::new(),
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets contents and statistics, keeping the configuration.
    pub fn reset(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
        self.clock = 0;
        self.seen.clear();
        self.stats = CacheStats::new();
    }

    fn line_id(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes
    }

    fn set_index(&self, line_id: u64) -> usize {
        (line_id % self.num_sets as u64) as usize
    }

    /// The ways of one set: `ways` consecutive lines starting at
    /// `set * ways`.
    fn set_lines(&self, idx: usize) -> &[Line] {
        &self.lines[idx * self.config.ways..][..self.config.ways]
    }

    /// Checks residency without updating replacement state or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let id = self.line_id(addr);
        let set = self.set_lines(self.set_index(id));
        set.iter().any(|l| l.valid && l.tag == id)
    }

    /// Performs one access, updating replacement state and statistics.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        let id = self.line_id(addr);
        let idx = self.set_index(id);
        let policy = self.config.policy;
        let ways = self.config.ways;
        let set = &mut self.lines[idx * ways..][..ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == id) {
            if policy == ReplacementPolicy::Lru {
                line.stamp = self.clock;
            }
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        // Miss: choose a victim — an invalid way if any, else the smallest
        // stamp (LRU time or FIFO insertion order).
        let victim = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let (i, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .expect("sets are never empty");
                i
            }
        };
        let evicted = if set[victim].valid {
            self.stats.evictions += 1;
            Some(set[victim].tag * self.config.line_bytes)
        } else {
            None
        };
        set[victim] = Line {
            tag: id,
            stamp: self.clock,
            valid: true,
        };
        let compulsory = self.seen.insert(id);
        self.stats.misses += 1;
        if compulsory {
            self.stats.compulsory_misses += 1;
        }
        AccessOutcome::Miss {
            evicted,
            compulsory,
        }
    }

    /// Installs the line of `addr` without recording a hit or miss — the
    /// prefetch path: a staged line must help a later demand access's hit
    /// rate, not inflate the lookup counters that rate is computed over.
    ///
    /// The filled line gets current recency (it competes in LRU like a
    /// fresh demand fill) and may evict a victim, which *is* counted —
    /// displacement is real regardless of who caused it. Returns `true`
    /// when the line was newly installed, `false` when already resident
    /// (residency is refreshed either way under LRU).
    pub fn fill(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let id = self.line_id(addr);
        let idx = self.set_index(id);
        let policy = self.config.policy;
        let ways = self.config.ways;
        let set = &mut self.lines[idx * ways..][..ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == id) {
            if policy == ReplacementPolicy::Lru {
                line.stamp = self.clock;
            }
            return false;
        }
        let victim = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                let (i, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .expect("sets are never empty");
                i
            }
        };
        if set[victim].valid {
            self.stats.evictions += 1;
        }
        set[victim] = Line {
            tag: id,
            stamp: self.clock,
            valid: true,
        };
        true
    }

    /// Runs a whole trace of addresses and returns the hit rate.
    pub fn run_trace<I: IntoIterator<Item = u64>>(&mut self, addrs: I) -> f64 {
        for a in addrs {
            self.access(a);
        }
        self.stats.hit_rate()
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 lines of 64 B in a single set.
        SetAssocCache::new(CacheConfig::fully_associative(256, 64)).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let m = c.access(0);
        assert!(matches!(
            m,
            AccessOutcome::Miss {
                evicted: None,
                compulsory: true
            }
        ));
        assert!(c.access(63).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().compulsory_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(i * 64);
        }
        // Touch line 0 so line 1 becomes LRU.
        c.access(0);
        let out = c.access(4 * 64);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted: Some(64),
                compulsory: true
            }
        );
        assert!(c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut cfg = CacheConfig::fully_associative(256, 64);
        cfg.policy = ReplacementPolicy::Fifo;
        let mut c = SetAssocCache::new(cfg).unwrap();
        for i in 0..4u64 {
            c.access(i * 64);
        }
        // Re-touching line 0 must NOT save it under FIFO.
        c.access(0);
        let out = c.access(4 * 64);
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted: Some(0),
                compulsory: true
            }
        );
    }

    #[test]
    fn set_conflicts_evict_within_set() {
        // 2 sets x 1 way: lines with even ids map to set 0.
        let mut c = SetAssocCache::new(CacheConfig::new(128, 64, 1)).unwrap();
        c.access(0); // set 0
        c.access(64); // set 1
        c.access(128); // set 0 again: evicts line 0
        assert!(!c.contains(0));
        assert!(c.contains(64));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn recurrent_miss_is_not_compulsory() {
        let mut c = SetAssocCache::new(CacheConfig::new(128, 64, 1)).unwrap();
        c.access(0);
        c.access(128); // evicts 0
        let out = c.access(0); // capacity/conflict miss, seen before
        assert!(matches!(
            out,
            AccessOutcome::Miss {
                compulsory: false,
                ..
            }
        ));
        assert_eq!(c.stats().compulsory_misses, 2);
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().lookups(), 0);
        assert!(!c.contains(0));
    }

    #[test]
    fn fill_installs_without_lookup_stats() {
        let mut c = tiny();
        assert!(c.fill(0));
        assert!(!c.fill(32)); // same line: already resident
        assert_eq!(c.stats().lookups(), 0);
        assert_eq!(c.stats().misses, 0);
        // The staged line serves the later demand access as a hit.
        assert!(c.access(0).is_hit());
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn fill_evictions_are_counted_and_recency_applies() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(i * 64);
        }
        // Refreshing line 0 via fill makes line 1 the LRU victim.
        assert!(!c.fill(0));
        assert!(c.fill(4 * 64));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.contains(0));
        assert!(!c.contains(64));
        // Fills never mark lines as seen: a filled-then-evicted line
        // that was never demand-accessed still misses as compulsory.
        for i in 5..9u64 {
            c.access(i * 64); // flush the filled 4*64 line out
        }
        assert!(!c.contains(4 * 64));
        let out = c.access(4 * 64);
        assert!(matches!(
            out,
            AccessOutcome::Miss {
                compulsory: true,
                ..
            }
        ));
    }

    #[test]
    fn run_trace_returns_hit_rate() {
        let mut c = tiny();
        let rate = c.run_trace([0u64, 0, 0, 0]);
        assert!((rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.access(i * 64);
        }
        assert_eq!(c.occupancy(), 4);
    }
}
