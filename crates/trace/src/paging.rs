//! Simplified OS page mapping.
//!
//! The paper's methodology (Section IV): "we apply a standard page mapping
//! method to generate the physical addresses from a trace of embedding
//! lookups by assuming the OS randomly selects free physical pages for
//! each logical page frame." Figure 14(a) additionally evaluates *page
//! coloring*, which constrains each table's pages to physical frames that
//! map to a single rank, eliminating rank load imbalance.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::collections::HashSet;

use recnmp_types::rng::DetRng;
use recnmp_types::PhysAddr;

/// Page size used by the mapper (4 KiB, as in the paper's methodology).
pub const PAGE_BYTES: u64 = 4096;

/// A page-coloring predicate: maps a physical frame number to its color.
pub type ColorFn = fn(u64) -> u32;

/// Lazily maps logical pages to randomly selected free physical pages.
///
/// # Examples
///
/// ```
/// use recnmp_trace::PageMapper;
///
/// let mut m = PageMapper::new(1 << 24, 7); // 64 GiB of physical pages
/// let a = m.translate(0x1234);
/// let b = m.translate(0x1234);
/// assert_eq!(a, b); // stable mapping
/// assert_eq!(a.page_offset(), 0x234); // offset preserved
/// ```
#[derive(Debug, Clone)]
pub struct PageMapper {
    total_pages: u64,
    map: HashMap<u64, u64>,
    used: HashSet<u64>,
    rng: DetRng,
    /// Optional page-coloring constraint: physical frames must satisfy
    /// `color_of(frame) == want_color`.
    color: Option<(ColorFn, u32)>,
}

impl PageMapper {
    /// Creates a mapper over `total_pages` physical page frames.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` is zero.
    pub fn new(total_pages: u64, seed: u64) -> Self {
        assert!(total_pages > 0, "need at least one physical page");
        Self {
            total_pages,
            map: HashMap::new(),
            used: HashSet::new(),
            rng: DetRng::seed(seed),
            color: None,
        }
    }

    /// Creates a page-colored mapper: only physical frames whose
    /// `color_of(frame)` equals `want` are allocated. Used to pin an
    /// embedding table's pages to one rank (Figure 14(a)).
    pub fn colored(total_pages: u64, seed: u64, color_of: fn(u64) -> u32, want: u32) -> Self {
        let mut m = Self::new(total_pages, seed);
        m.color = Some((color_of, want));
        m
    }

    /// Number of distinct logical pages mapped so far.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Translates a logical byte address to a physical byte address,
    /// allocating a random free frame on first touch of each page.
    ///
    /// # Panics
    ///
    /// Panics if physical memory (satisfying the color constraint) is
    /// exhausted.
    pub fn translate(&mut self, logical: u64) -> PhysAddr {
        let lpage = logical / PAGE_BYTES;
        let offset = logical % PAGE_BYTES;
        let frame = match self.map.entry(lpage) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                // Rejection-sample a free frame; occupancy in our
                // experiments is far below capacity so this terminates
                // quickly.
                let mut attempts = 0u32;
                let frame = loop {
                    let cand = self.rng.below(self.total_pages);
                    let color_ok = match self.color {
                        Some((f, want)) => f(cand) == want,
                        None => true,
                    };
                    if color_ok && !self.used.contains(&cand) {
                        break cand;
                    }
                    attempts += 1;
                    assert!(
                        attempts < 100_000,
                        "physical memory exhausted (or color class empty)"
                    );
                };
                self.used.insert(frame);
                *e.insert(frame)
            }
        };
        PhysAddr::from_page(frame, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_stable_and_offset_preserving() {
        let mut m = PageMapper::new(1000, 1);
        let a = m.translate(5 * PAGE_BYTES + 100);
        let b = m.translate(5 * PAGE_BYTES + 200);
        assert_eq!(a.page_frame(), b.page_frame());
        assert_eq!(a.page_offset(), 100);
        assert_eq!(b.page_offset(), 200);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut m = PageMapper::new(10_000, 2);
        let frames: HashSet<u64> = (0..1000u64)
            .map(|p| m.translate(p * PAGE_BYTES).page_frame())
            .collect();
        assert_eq!(frames.len(), 1000);
        assert_eq!(m.mapped_pages(), 1000);
    }

    #[test]
    fn frames_are_scattered_not_sequential() {
        let mut m = PageMapper::new(1 << 20, 3);
        let frames: Vec<u64> = (0..100u64)
            .map(|p| m.translate(p * PAGE_BYTES).page_frame())
            .collect();
        let sequential = frames.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(sequential < 5, "suspiciously sequential: {sequential}");
    }

    #[test]
    fn colored_mapper_respects_color() {
        fn color(frame: u64) -> u32 {
            (frame % 4) as u32
        }
        let mut m = PageMapper::colored(1 << 16, 4, color, 3);
        for p in 0..500u64 {
            let f = m.translate(p * PAGE_BYTES).page_frame();
            assert_eq!(color(f), 3);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = PageMapper::new(1 << 16, 9);
        let mut b = PageMapper::new(1 << 16, 9);
        for p in 0..200u64 {
            assert_eq!(a.translate(p * 4096), b.translate(p * 4096));
        }
    }

    #[test]
    #[should_panic(expected = "physical memory exhausted")]
    fn exhaustion_panics() {
        let mut m = PageMapper::new(4, 5);
        for p in 0..5u64 {
            m.translate(p * PAGE_BYTES);
        }
    }
}
