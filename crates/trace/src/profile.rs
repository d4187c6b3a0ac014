//! Hot-entry profiling (Section III-D).
//!
//! Before issuing a batch's SLS requests, the host profiles the index
//! vector and marks entries accessed more than `t` times with the
//! `LocalityBit`, letting cold vectors bypass the RankCache. The paper
//! sweeps `t` and keeps the value with the highest resulting hit rate; the
//! step costs under 2% of end-to-end time (modeled in the CPU perf layer).
//!
//! # One stack-distance pass for every threshold
//!
//! [`HotEntryProfiler::sweep`] predicts, for each threshold, the hit rate
//! of a fully-associative LRU cache in which only hot rows allocate. It
//! never replays that cache; one pass over the batch yields every
//! threshold's hit count, because:
//!
//! - **Thresholds nest.** A row accessed `c` times is hot for every
//!   `t < c`. Under threshold `t` a cold access never hits (cold rows never
//!   allocate) and never changes the LRU order, so the cache only sees the
//!   accesses to `t`-hot rows.
//! - **LRU is a stack algorithm** (Mattson et al.). An access to a hot row
//!   hits exactly when the row was accessed before and fewer than
//!   `cache_lines` distinct `t`-hot rows were touched since then — its
//!   stack distance is below the capacity.
//!
//! Per threshold level, a Fenwick tree over access positions marks the
//! last access of every hot row seen so far, so the distinct rows touched
//! since a row's previous access are the marks after that access. The pass
//! queries and moves those marks on every level the row is hot at, in
//! O(n · T · log n) for `n` accesses and `T` levels instead of the
//! O(T · n · cache_lines) of replaying an LRU list per threshold.
//!
//! Every threshold's hit rate has the same denominator `n`, so comparing
//! integer hit counts ranks thresholds exactly as the rates do; keeping the
//! first strictly larger count makes the lowest threshold win ties.
//! Thresholds at or above the largest count have an empty hot set and no
//! hits, so they can never beat a lower one: `T` is clamped to
//! `min(max_threshold, largest count) + 1`.
//!
//! # Levels whose hot rows fit the cache
//!
//! Let `D_t` be the number of rows accessed more than `t` times: the hot
//! set at threshold `t`. When `D_t ≤ cache_lines`, the cache (which holds
//! only hot rows) never fills past its capacity, so no hot row is ever
//! evicted: a hot row's first access misses and every later one hits, and
//! `hits(t) = Σ_{c > t} (c − 1)` over the rows' access counts `c`, with no
//! pass over the accesses. The stack-distance pass runs only for the
//! levels with `D_t > cache_lines`, and those lead, because `D_t` never
//! rises with `t`. The closed form never rises with `t` either, so the
//! first fitting level scores at least as many hits as every later one,
//! and under the lowest-wins tie rule the later ones are not scored.
//!
//! When level 0 fits, in particular when the batch has no more accesses
//! than the cache has lines, threshold 0 wins and every row of the batch
//! is hot: the bits a batch without a profile gets anyway.
//! [`HotEntryProfiler::hints`] returns `None` then, and for a batch that
//! short it runs no counting pass either.

use recnmp_types::hash::{U64Map, U64Set};

/// Result of profiling one batch of indices.
#[derive(Debug, Clone, PartialEq)]
pub struct HotEntryProfile {
    /// Threshold used: entries with `count > threshold` are hot.
    pub threshold: u64,
    /// The hot row indices.
    pub hot: U64Set,
}

impl HotEntryProfile {
    /// Whether a row index should carry the `LocalityBit`.
    pub fn is_hot(&self, index: u64) -> bool {
        self.hot.contains(&index)
    }
}

/// Profiles index batches into `LocalityBit` hints.
///
/// Rows are taken as `u32`, the width a physical trace stores them at, so
/// a batch is profiled straight from the trace's row column with no
/// widening copy; the hot set keeps them as `u64` row indices.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotEntryProfiler;

impl HotEntryProfiler {
    /// Creates a profiler.
    pub fn new() -> Self {
        Self
    }

    /// Marks rows referenced more than `threshold` times in `indices`.
    pub fn profile(&self, indices: &[u32], threshold: u64) -> HotEntryProfile {
        RowCounts::of(indices).profile(threshold)
    }

    /// Sweeps thresholds `0..=max_threshold` and returns the profile that
    /// maximizes the hit rate of an LRU cache with `cache_lines` lines when
    /// only hot entries are cached (the paper's selection procedure).
    ///
    /// All thresholds are scored in one stack-distance pass, and levels
    /// whose hot rows fit the cache in closed form (see the module docs);
    /// the first threshold with the strictly largest hit count wins.
    pub fn sweep(
        &self,
        indices: &[u32],
        cache_lines: usize,
        max_threshold: u64,
    ) -> HotEntryProfile {
        let counts = RowCounts::of(indices);
        counts.profile(counts.best_threshold(cache_lines, max_threshold))
    }

    /// The [`sweep`](Self::sweep) profile when it leaves some row cold.
    ///
    /// Returns `None` when the sweep would mark every row of the batch hot,
    /// which is what a batch without a profile gets anyway: without a
    /// counting pass when `indices` has at most `cache_lines` accesses,
    /// and otherwise whenever the sweep picks threshold 0.
    pub fn hints(
        &self,
        indices: &[u32],
        cache_lines: usize,
        max_threshold: u64,
    ) -> Option<HotEntryProfile> {
        if indices.len() <= cache_lines {
            return None;
        }
        let counts = RowCounts::of(indices);
        match counts.best_threshold(cache_lines, max_threshold) {
            0 => None,
            t => Some(counts.profile(t)),
        }
    }
}

/// One batch's accesses, counted once, with rows numbered densely in
/// first-access order.
struct RowCounts {
    /// Dense row id of every access, in access order.
    ids: Vec<usize>,
    /// Row index of each dense id.
    rows: Vec<u32>,
    /// Access count of each dense id.
    counts: Vec<usize>,
}

impl RowCounts {
    fn of(indices: &[u32]) -> Self {
        let mut dense = U64Map::with_capacity_and_hasher(indices.len(), Default::default());
        let mut rows = Vec::new();
        let mut counts = Vec::new();
        let mut ids = Vec::with_capacity(indices.len());
        for &i in indices {
            let id = *dense.entry(u64::from(i)).or_insert(rows.len());
            if id == rows.len() {
                rows.push(i);
                counts.push(0);
            }
            counts[id] += 1;
            ids.push(id);
        }
        Self { ids, rows, counts }
    }

    fn max_count(&self) -> usize {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// The rows accessed more than `threshold` times.
    fn profile(&self, threshold: u64) -> HotEntryProfile {
        let hot = (self.rows.iter().zip(&self.counts))
            .filter(|&(_, &c)| c as u64 > threshold)
            .map(|(&row, _)| u64::from(row))
            .collect();
        HotEntryProfile { threshold, hot }
    }

    /// The threshold in `0..=max_threshold` whose hot-only LRU cache of
    /// `cache_lines` lines hits most often, the lowest on a tie.
    fn best_threshold(&self, cache_lines: usize, max_threshold: u64) -> u64 {
        // The clamped threshold is at most the largest count, itself at most
        // the batch length, so neither the cast nor the `+ 1` can overflow.
        let levels = max_threshold.min(self.max_count() as u64) as usize + 1;
        // `hot_rows[t]` is D_t, the rows accessed more than `t` times.
        let mut hot_rows = vec![0; levels];
        for &c in &self.counts {
            hot_rows[..levels.min(c)].iter_mut().for_each(|d| *d += 1);
        }
        let overflowing = (hot_rows.iter()).take_while(|&&d| d > cache_lines).count();
        if overflowing == 0 {
            // Every level fits, and the closed form peaks at level 0.
            return 0;
        }
        let mut hits = self.hint_hits(cache_lines, overflowing);
        if overflowing < levels {
            // The first level that fits; no later one can beat it.
            let fitting = (self.counts.iter())
                .filter(|&&c| c > overflowing)
                .map(|&c| c as u64 - 1);
            hits.push(fitting.sum());
        }
        let mut best = 0;
        for (t, &h) in hits.iter().enumerate() {
            if h > hits[best] {
                best = t;
            }
        }
        best as u64
    }

    /// Hits of the hot-only LRU cache under each threshold `0..levels`.
    fn hint_hits(&self, cache_lines: usize, levels: usize) -> Vec<u64> {
        let n = self.ids.len();
        let mut caches: Vec<FilteredLru> = (0..levels).map(|_| FilteredLru::new(n)).collect();
        let mut last: Vec<Option<usize>> = vec![None; self.rows.len()];
        for (j, &id) in self.ids.iter().enumerate() {
            let prev = last[id].replace(j);
            // The row is hot for every threshold below its count.
            let hot_levels = levels.min(self.counts[id]);
            for cache in &mut caches[..hot_levels] {
                cache.access(j, prev, cache_lines);
            }
        }
        caches.iter().map(|c| c.hits).collect()
    }
}

/// The hot-only LRU cache under one threshold, kept as stack distances.
struct FilteredLru {
    /// Fenwick tree over access positions (1-based) marking the last
    /// access of every hot row seen so far.
    marks: Vec<usize>,
    /// Hot rows seen so far, i.e. marks set.
    seen: usize,
    hits: u64,
}

impl FilteredLru {
    fn new(accesses: usize) -> Self {
        Self {
            marks: vec![0; accesses + 1],
            seen: 0,
            hits: 0,
        }
    }

    /// Access at position `j` to a hot row last accessed at `prev`.
    fn access(&mut self, j: usize, prev: Option<usize>, cache_lines: usize) {
        match prev {
            Some(p) => {
                // The distinct rows touched since `p` are the marks after it;
                // there are at most `j - p - 1` of them, which often decides
                // the hit without a query.
                if j - p <= cache_lines || self.seen - self.marked_through(p) < cache_lines {
                    self.hits += 1;
                }
                self.unmark(p);
            }
            None => self.seen += 1,
        }
        self.mark(j);
    }

    /// Marks set at positions `0..=pos`.
    fn marked_through(&self, pos: usize) -> usize {
        let mut i = pos + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.marks[i];
            i &= i - 1;
        }
        sum
    }

    fn mark(&mut self, pos: usize) {
        let mut i = pos + 1;
        while i < self.marks.len() {
            self.marks[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    fn unmark(&mut self, pos: usize) {
        let mut i = pos + 1;
        while i < self.marks.len() {
            self.marks[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
    use proptest::prelude::*;
    use recnmp_types::TableId;
    use std::collections::{HashMap, HashSet};

    /// Simulates a small fully-associative LRU cache in which only hinted
    /// rows allocate; returns the hit rate over all accesses. The reference
    /// the stack-distance pass is checked against.
    fn simulate_hint_hit_rate(indices: &[u32], hot: &U64Set, cache_lines: usize) -> f64 {
        if indices.is_empty() || cache_lines == 0 {
            return 0.0;
        }
        let mut lru: Vec<u32> = Vec::with_capacity(cache_lines);
        let mut hits = 0u64;
        for &i in indices {
            if let Some(pos) = lru.iter().position(|&x| x == i) {
                lru.remove(pos);
                lru.insert(0, i);
                hits += 1;
            } else if hot.contains(&u64::from(i)) {
                lru.insert(0, i);
                if lru.len() > cache_lines {
                    lru.pop();
                }
            }
        }
        hits as f64 / indices.len() as f64
    }

    /// The brute-force selection: count, filter and replay the LRU for
    /// every threshold, keeping the first strictly best rate.
    fn brute_force_sweep(
        indices: &[u32],
        cache_lines: usize,
        max_threshold: u64,
    ) -> HotEntryProfile {
        let mut best: Option<(f64, HotEntryProfile)> = None;
        for t in 0..=max_threshold {
            let hot: U64Set = indices
                .iter()
                .copied()
                .filter(|&i| indices.iter().filter(|&&x| x == i).count() as u64 > t)
                .map(u64::from)
                .collect();
            let profile = HotEntryProfile { threshold: t, hot };
            let rate = simulate_hint_hit_rate(indices, &profile.hot, cache_lines);
            let better = match &best {
                None => true,
                Some((b, _)) => rate > *b,
            };
            if better {
                best = Some((rate, profile));
            }
        }
        best.expect("at least one threshold evaluated").1
    }

    /// One replay-shaped batch: 32 poolings of 80 Zipf-0.9 lookups.
    fn zipf_batch(seed: u64) -> Vec<u32> {
        TraceGenerator::new(
            TableId::new(0),
            EmbeddingTableSpec::dlrm_default(),
            IndexDistribution::Zipf { s: 0.9 },
            seed,
        )
        .batch(32, 80)
        .flat_indices()
        .into_iter()
        .map(|i| u32::try_from(i).expect("a DLRM table row fits a u32"))
        .collect()
    }

    #[test]
    fn threshold_filters_cold_rows() {
        let p = HotEntryProfiler::new();
        let indices = vec![1, 1, 1, 2, 2, 3];
        let prof = p.profile(&indices, 1);
        assert!(prof.is_hot(1));
        assert!(prof.is_hot(2));
        assert!(!prof.is_hot(3));
        assert_eq!(prof.hot.len(), 2);
    }

    #[test]
    fn threshold_zero_marks_everything() {
        let p = HotEntryProfiler::new();
        let prof = p.profile(&[5, 6, 7], 0);
        assert_eq!(prof.hot.len(), 3);
        assert!([5, 6, 7].iter().all(|&r| prof.is_hot(r)));
    }

    #[test]
    fn empty_batch_is_harmless() {
        let p = HotEntryProfiler::new();
        let prof = p.profile(&[], 1);
        assert_eq!(prof.threshold, 1);
        assert!(prof.hot.is_empty());
    }

    #[test]
    fn sweep_prefers_filtering_under_contention() {
        // Two hot rows re-referenced heavily, interleaved with single-use
        // cold rows that would thrash a 2-line cache if allowed to
        // allocate. The best threshold must exclude the cold rows.
        let mut indices = Vec::new();
        for i in 0..50u32 {
            indices.push(1);
            indices.push(1000 + 2 * i);
            indices.push(2);
            indices.push(1001 + 2 * i);
        }
        let p = HotEntryProfiler::new();
        let prof = p.sweep(&indices, 2, 4);
        assert!(prof.threshold >= 1, "picked threshold {}", prof.threshold);
        assert!(prof.is_hot(1) && prof.is_hot(2));
        assert!(!prof.is_hot(1000));
    }

    #[test]
    fn hint_simulation_counts_resident_hits_only() {
        let hot: U64Set = [1].into_iter().collect();
        // 1 allocates, 2 never allocates.
        let rate = simulate_hint_hit_rate(&[1, 2, 1, 2, 1], &hot, 4);
        assert!((rate - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_and_cacheless_sweeps_pick_threshold_zero() {
        let p = HotEntryProfiler::new();
        let empty = p.sweep(&[], 2048, 4);
        assert_eq!(empty.threshold, 0);
        assert!(empty.hot.is_empty());
        let indices = zipf_batch(3);
        let cacheless = p.sweep(&indices, 0, 4);
        assert_eq!(cacheless, p.profile(&indices, 0));
    }

    #[test]
    fn replay_shaped_batch_matches_lru_replay() {
        let p = HotEntryProfiler::new();
        for seed in [7, 8] {
            let indices = zipf_batch(seed);
            assert_eq!(indices.len(), 2560);
            assert_eq!(
                p.sweep(&indices, 2048, 4),
                brute_force_sweep(&indices, 2048, 4)
            );
        }
    }

    #[test]
    fn batches_that_fit_the_cache_get_no_hints() {
        let p = HotEntryProfiler::new();
        // No more accesses than lines: every row is hot, uncounted.
        let same = vec![9; 300];
        assert_eq!(p.hints(&same, 300, 4), None);
        assert_eq!(p.sweep(&same, 300, 4).threshold, 0);
        // More accesses than lines, but every distinct row fits.
        let indices = zipf_batch(7);
        let distinct = indices.iter().collect::<HashSet<_>>().len();
        assert!(
            (1025..=2048).contains(&distinct),
            "{distinct} distinct rows"
        );
        assert_eq!(p.hints(&indices, 2048, 4), None);
        assert_eq!(p.sweep(&indices, 2048, 4).threshold, 0);
        // Thrashing a small cache filters the single-use rows.
        let hints = p.hints(&indices, 64, 4).expect("a threshold above 0");
        assert!(hints.threshold > 0);
        assert_eq!(Some(hints), Some(p.sweep(&indices, 64, 4)));
    }

    #[test]
    fn huge_max_threshold_is_clamped_to_the_largest_count() {
        let indices = zipf_batch(7);
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for &i in &indices {
            *counts.entry(i).or_default() += 1;
        }
        let max_count = counts.values().copied().max().expect("non-empty batch");
        let p = HotEntryProfiler::new();
        assert_eq!(
            p.sweep(&indices, 2048, u64::MAX),
            p.sweep(&indices, 2048, max_count)
        );
        // A single hot row: every level up to its count is live.
        let same = vec![9; 300];
        assert_eq!(
            p.sweep(&same, 1, u64::MAX),
            brute_force_sweep(&same, 1, 300)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sweep_matches_lru_replay(
            raw in prop::collection::vec(0u32..1024, 0..160),
            alphabet in 1u32..24,
            cache_lines in prop_oneof![
                Just(0usize), Just(1), Just(2), Just(3), Just(5), Just(8), Just(1000)
            ],
            max_threshold in 0u64..7,
        ) {
            // A small row alphabet forces reuse at every stack distance.
            let indices: Vec<u32> = raw.iter().map(|i| i % alphabet).collect();
            let fast = HotEntryProfiler::new().sweep(&indices, cache_lines, max_threshold);
            let slow = brute_force_sweep(&indices, cache_lines, max_threshold);
            prop_assert_eq!(fast, slow, "indices {:?}", indices);
        }

        #[test]
        fn hints_are_the_sweep_unless_every_row_is_hot(
            raw in prop::collection::vec(0u32..1024, 0..160),
            alphabet in 1u32..24,
            cache_lines in prop_oneof![
                Just(0usize), Just(1), Just(2), Just(3), Just(5), Just(8), Just(1000)
            ],
            max_threshold in 0u64..7,
        ) {
            let indices: Vec<u32> = raw.iter().map(|i| i % alphabet).collect();
            let p = HotEntryProfiler::new();
            let sweep = p.sweep(&indices, cache_lines, max_threshold);
            let hints = p.hints(&indices, cache_lines, max_threshold);
            if sweep.threshold == 0 {
                prop_assert!(hints.is_none());
                prop_assert!(indices.iter().all(|&i| sweep.is_hot(u64::from(i))));
            } else {
                prop_assert!(indices.len() > cache_lines);
                prop_assert_eq!(hints, Some(sweep));
            }
        }
    }
}
