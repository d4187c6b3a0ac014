//! Property-based tests for the cache simulator.
//!
//! The key oracles: a naive reference LRU model must agree with the
//! set-associative implementation configured fully-associatively, and the
//! LRU *stack property* (inclusion: a bigger fully-associative LRU cache
//! hits on a superset of accesses) must hold.

use proptest::prelude::*;
use recnmp_cache::fa::FullyAssocLru;
use recnmp_cache::{CacheConfig, SetAssocCache};

/// Naive LRU over a Vec: move-to-front on hit, pop-back on overflow.
struct RefLru {
    lines: Vec<u64>,
    capacity: usize,
    line_bytes: u64,
    hits: u64,
    misses: u64,
}

impl RefLru {
    fn new(capacity: usize, line_bytes: u64) -> Self {
        Self {
            lines: Vec::new(),
            capacity,
            line_bytes,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let id = addr / self.line_bytes;
        if let Some(pos) = self.lines.iter().position(|&l| l == id) {
            self.lines.remove(pos);
            self.lines.insert(0, id);
            self.hits += 1;
            true
        } else {
            self.lines.insert(0, id);
            if self.lines.len() > self.capacity {
                self.lines.pop();
            }
            self.misses += 1;
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fully_associative_matches_reference_lru(
        addrs in prop::collection::vec(0u64..4096, 1..400),
        lines in prop_oneof![Just(4usize), Just(8), Just(16)],
    ) {
        let mut sut =
            SetAssocCache::new(CacheConfig::fully_associative(lines as u64 * 64, 64)).unwrap();
        let mut oracle = RefLru::new(lines, 64);
        for &a in &addrs {
            let hit = sut.access(a).is_hit();
            let expect = oracle.access(a);
            prop_assert_eq!(hit, expect, "divergence at addr {}", a);
        }
        prop_assert_eq!(sut.stats().hits, oracle.hits);
        prop_assert_eq!(sut.stats().misses, oracle.misses);
    }

    #[test]
    fn lru_stack_property_bigger_cache_never_worse(
        addrs in prop::collection::vec(0u64..8192, 1..400),
    ) {
        let mut small =
            SetAssocCache::new(CacheConfig::fully_associative(8 * 64, 64)).unwrap();
        let mut large =
            SetAssocCache::new(CacheConfig::fully_associative(32 * 64, 64)).unwrap();
        for &a in &addrs {
            let s = small.access(a).is_hit();
            let l = large.access(a).is_hit();
            // Inclusion: anything the small LRU hits, the large LRU hits.
            prop_assert!(!s || l, "small hit but large missed at {}", a);
        }
        prop_assert!(large.stats().hits >= small.stats().hits);
    }

    #[test]
    fn compulsory_misses_equal_distinct_lines(
        addrs in prop::collection::vec(0u64..100_000, 1..300),
    ) {
        let mut c = SetAssocCache::new(CacheConfig::new(16 * 64, 64, 4)).unwrap();
        let mut fa = FullyAssocLru::new(16 * 64, 64).unwrap();
        for &a in &addrs {
            c.access(a);
            fa.access(a);
        }
        let distinct: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a / 64).collect();
        prop_assert_eq!(c.stats().compulsory_misses, distinct.len() as u64);
        prop_assert_eq!(fa.stats().compulsory_misses, distinct.len() as u64);
    }

    #[test]
    fn hits_plus_misses_equals_accesses(
        addrs in prop::collection::vec(0u64..100_000, 0..300),
    ) {
        let mut c = SetAssocCache::new(CacheConfig::new(8 * 64, 64, 2)).unwrap();
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.stats().lookups(), addrs.len() as u64);
    }
}
