//! Set-associative cache model.

use recnmp_types::ConfigError;

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// Result of one cache access.
///
/// A set-associative cache keeps no history of the lines it has seen, so
/// a miss does not say whether it was a cold (first-reference) miss; the
/// [`RankCache`](crate::RankCache) counts those itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line was resident.
    Hit,
    /// Line was absent and is now installed.
    Miss {
        /// Base address of the evicted line, if a valid line was displaced.
        evicted: Option<u64>,
    },
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Self::Hit)
    }
}

/// One way of a set: 16 bytes, so a 4-way set fills one 64-byte line of
/// the host running the model.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// Line id (`addr / line_bytes`), or `u64::MAX` for an empty way.
    /// Lines are at least 2 bytes, so no address has that id.
    tag: u64,
    /// Time of the last access (LRU recency). The clock ticks before
    /// every install, so a valid way's stamp is at least 1 and an empty
    /// way's is 0.
    stamp: u64,
}

impl Line {
    const EMPTY: Self = Self {
        tag: u64::MAX,
        stamp: 0,
    };

    fn is_valid(self) -> bool {
        self.tag != Self::EMPTY.tag
    }
}

/// A set-associative cache with LRU replacement.
///
/// Addresses are plain `u64` byte addresses; the cache works on aligned
/// lines of `line_bytes`. The model is *trace driven*: it tracks only
/// presence, not contents. Its footprint is fixed at construction, 16
/// bytes per line, however many lines stream through it.
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
    /// `log2(line_bytes)`: a line id is `addr >> line_shift`.
    line_shift: u32,
    /// `num_sets - 1`: a line's set is `line_id & set_mask`. Both sizes
    /// are powers of two ([`CacheConfig::validate`]), so the hot path
    /// neither divides nor takes a remainder.
    set_mask: u64,
    clock: u64,
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
        Ok(Self {
            config,
            lines: vec![Line::EMPTY; num_sets * config.ways],
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            clock: 0,
            stats: CacheStats::new(),
        })
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics. `compulsory_misses` stays zero: this cache
    /// does not track cold misses.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets contents and statistics, keeping the configuration.
    pub fn reset(&mut self) {
        self.lines.fill(Line::EMPTY);
        self.clock = 0;
        self.stats = CacheStats::new();
    }

    /// The id of the line holding `addr` (`addr / line_bytes`).
    pub(crate) fn line_id(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_index(&self, line_id: u64) -> usize {
        (line_id & self.set_mask) as usize
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
        set.iter().any(|l| l.tag == id)
    }

    /// Performs one access, updating replacement state and statistics.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let outcome = self.touch(addr);
        if outcome.is_hit() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        outcome
    }

    /// Installs the line of `addr` without recording a hit or miss — the
    /// prefetch path: a staged line must help a later demand access's hit
    /// rate, not inflate the lookup counters that rate is computed over.
    ///
    /// The filled line gets current recency (it competes in LRU like a
    /// fresh demand fill) and may evict a victim, which *is* counted —
    /// displacement is real regardless of who caused it. Returns `true`
    /// when the line was newly installed, `false` when already resident
    /// (its recency is refreshed either way).
    pub fn fill(&mut self, addr: u64) -> bool {
        !self.touch(addr).is_hit()
    }

    /// The step [`access`](Self::access) and [`fill`](Self::fill) share:
    /// refreshes a resident line's recency, or installs the line over its
    /// set's victim and counts the eviction. The victim is the first empty
    /// way, else the least recently used; since empty ways have stamp 0
    /// and valid stamps are distinct and positive, that is the first way
    /// of smallest stamp.
    fn touch(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        let id = self.line_id(addr);
        let idx = self.set_index(id);
        let ways = self.config.ways;
        let set = &mut self.lines[idx * ways..][..ways];

        if let Some(line) = set.iter_mut().find(|l| l.tag == id) {
            line.stamp = self.clock;
            return AccessOutcome::Hit;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| l.stamp)
            .expect("sets are never empty");
        let evicted = victim.is_valid().then(|| victim.tag << self.line_shift);
        *victim = Line {
            tag: id,
            stamp: self.clock,
        };
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        AccessOutcome::Miss { evicted }
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
        self.lines.iter().filter(|l| l.is_valid()).count()
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
        assert_eq!(c.access(0), AccessOutcome::Miss { evicted: None });
        assert!(c.access(63).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
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
        assert_eq!(out, AccessOutcome::Miss { evicted: Some(64) });
        assert!(c.contains(0));
        assert!(!c.contains(64));
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
    fn recurrent_miss_reports_its_victim() {
        let mut c = SetAssocCache::new(CacheConfig::new(128, 64, 1)).unwrap();
        c.access(0);
        c.access(128); // evicts 0
        let out = c.access(0); // conflict miss: evicts 128 in turn
        assert_eq!(out, AccessOutcome::Miss { evicted: Some(128) });
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().compulsory_misses, 0);
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
