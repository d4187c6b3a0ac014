//! Property-based tests for the cache simulator.
//!
//! The key oracles: a naive reference LRU model must agree with the
//! set-associative implementation configured fully-associatively, a naive
//! per-set LRU model must agree with it call for call under any geometry,
//! the LRU *stack property* (inclusion: a bigger fully-associative LRU
//! cache hits on a superset of accesses) must hold,
//! and the RankCache's cold-miss count must equal the distinct lines the
//! per-set model says missed on demand.

use std::collections::HashSet;

use proptest::prelude::*;
use recnmp_cache::{
    AccessOutcome, CacheConfig, CacheStats, RankCache, RankCacheOutcome, SetAssocCache,
};

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

/// Naive set-associative model: each set is a `Vec` of line ids in
/// eviction order, the next victim first. A hit moves its line to the
/// back; a miss appends, evicting the front line when the set is full.
struct RefSets {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
    stats: CacheStats,
}

impl RefSets {
    fn new(config: CacheConfig) -> Self {
        Self {
            sets: vec![Vec::new(); config.num_sets()],
            ways: config.ways,
            line_bytes: config.line_bytes,
            stats: CacheStats::new(),
        }
    }

    fn set_of(&self, id: u64) -> usize {
        (id % self.sets.len() as u64) as usize
    }

    fn contains(&self, addr: u64) -> bool {
        let id = addr / self.line_bytes;
        self.sets[self.set_of(id)].contains(&id)
    }

    /// Hit, or the evicted line's base address on a miss.
    fn touch(&mut self, addr: u64) -> AccessOutcome {
        let id = addr / self.line_bytes;
        let idx = self.set_of(id);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&l| l == id) {
            set.remove(pos);
            set.push(id);
            return AccessOutcome::Hit;
        }
        let evicted = (set.len() == self.ways).then(|| set.remove(0) * self.line_bytes);
        set.push(id);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        AccessOutcome::Miss { evicted }
    }

    fn access(&mut self, addr: u64) -> AccessOutcome {
        let out = self.touch(addr);
        if out.is_hit() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        out
    }

    fn fill(&mut self, addr: u64) -> bool {
        !self.touch(addr).is_hit()
    }

    fn reset(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.stats = CacheStats::new();
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Fill(u64),
    Contains(u64),
    Reset,
}

/// Mostly accesses, then fills and probes, and a rare reset. Addresses
/// are raw; each test folds them onto a span a few times its capacity.
fn op() -> impl Strategy<Value = Op> {
    (0u8..80, 0u64..1 << 20).prop_map(|(kind, addr)| match kind {
        0..=47 => Op::Access(addr),
        48..=63 => Op::Fill(addr),
        64..=78 => Op::Contains(addr),
        _ => Op::Reset,
    })
}

/// `(capacity, line, ways)`: fully associative, direct mapped, and
/// several sets of 2, 4 and 8 ways.
fn geometry() -> impl Strategy<Value = (u64, u64, usize)> {
    prop_oneof![
        Just((256u64, 64u64, 4usize)),
        Just((1024, 32, 1)),
        Just((512, 64, 2)),
        Just((2048, 128, 4)),
        Just((4096, 64, 8)),
    ]
}

/// The three RankCache operations, over few enough lines that a
/// 16-line cache sees hits, evictions and repeats.
#[derive(Debug, Clone, Copy)]
enum RankOp {
    Hinted(u64),
    Unhinted(u64),
    Prefetch(u64),
}

fn rank_op() -> impl Strategy<Value = RankOp> {
    (0u8..3, 0u64..64 * 64).prop_map(|(kind, addr)| match kind {
        0 => RankOp::Hinted(addr),
        1 => RankOp::Unhinted(addr),
        _ => RankOp::Prefetch(addr),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn set_assoc_matches_per_set_reference(
        ops in prop::collection::vec(op(), 1..500),
        geometry in geometry(),
    ) {
        let (capacity, line, ways) = geometry;
        let config = CacheConfig::new(capacity, line, ways);
        let mut sut = SetAssocCache::new(config).unwrap();
        let mut oracle = RefSets::new(config);
        // Four times the capacity: hits, conflicts and evictions all occur.
        let span = 4 * capacity;
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Access(a) => {
                    let a = a % span;
                    prop_assert_eq!(sut.access(a), oracle.access(a), "op {}", i)
                }
                Op::Fill(a) => {
                    let a = a % span;
                    prop_assert_eq!(sut.fill(a), oracle.fill(a), "op {}", i)
                }
                Op::Contains(a) => {
                    let a = a % span;
                    prop_assert_eq!(sut.contains(a), oracle.contains(a), "op {}", i)
                }
                Op::Reset => {
                    sut.reset();
                    oracle.reset();
                }
            }
        }
        prop_assert_eq!(*sut.stats(), oracle.stats);
        let resident: usize = oracle.sets.iter().map(Vec::len).sum();
        prop_assert_eq!(sut.occupancy(), resident);
    }

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
        ops in prop::collection::vec(rank_op(), 1..300),
    ) {
        let config = CacheConfig::new(16 * 64, 64, 4);
        let mut rc = RankCache::new(config).unwrap();
        let mut oracle = RefSets::new(config);
        let mut demand_missed = HashSet::new();
        for &op in &ops {
            match op {
                RankOp::Hinted(a) => {
                    let miss = !oracle.access(a).is_hit();
                    if miss {
                        demand_missed.insert(a / 64);
                    }
                    let expect = if miss { RankCacheOutcome::MissFill } else { RankCacheOutcome::Hit };
                    prop_assert_eq!(rc.access(a, true), expect);
                }
                RankOp::Unhinted(a) => {
                    prop_assert_eq!(rc.access(a, false), RankCacheOutcome::Bypass);
                }
                RankOp::Prefetch(a) => prop_assert_eq!(rc.prefetch_fill(a), oracle.fill(a)),
            }
        }
        prop_assert_eq!(rc.stats().compulsory_misses, demand_missed.len() as u64);
        prop_assert_eq!(rc.stats().misses, oracle.stats.misses);
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

/// A 4-line, single-set RankCache.
fn tiny_rank_cache() -> RankCache {
    RankCache::new(CacheConfig::fully_associative(4 * 64, 64)).unwrap()
}

#[test]
fn prefetched_then_hit_line_is_never_a_cold_miss() {
    let mut rc = tiny_rank_cache();
    assert!(rc.prefetch_fill(0));
    assert_eq!(rc.access(0, true), RankCacheOutcome::Hit);
    assert_eq!(rc.stats().compulsory_misses, 0);
}

#[test]
fn prefetched_evicted_then_missed_line_counts_once() {
    let mut rc = tiny_rank_cache();
    assert!(rc.prefetch_fill(0));
    for line in 1..5u64 {
        rc.access(line * 64, true); // the fourth of these evicts line 0
    }
    assert_eq!(rc.access(0, true), RankCacheOutcome::MissFill);
    assert_eq!(rc.stats().compulsory_misses, 5);
    for line in 5..9u64 {
        rc.access(line * 64, true); // evicts line 0 again
    }
    assert_eq!(rc.access(0, true), RankCacheOutcome::MissFill);
    // Lines 1..9 once each, line 0 once despite missing twice.
    assert_eq!(rc.stats().compulsory_misses, 9);
    assert_eq!(rc.stats().misses, 10);
}

#[test]
fn reset_clears_the_cold_miss_count() {
    let mut rc = tiny_rank_cache();
    rc.access(0, true);
    assert_eq!(rc.stats().compulsory_misses, 1);
    rc.reset();
    assert_eq!(rc.stats().compulsory_misses, 0);
    // The line is cold again after the reset.
    rc.access(0, true);
    assert_eq!(rc.stats().compulsory_misses, 1);
}
