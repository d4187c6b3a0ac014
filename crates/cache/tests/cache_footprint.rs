//! Memory guard for the set-associative cache model.
//!
//! A `SetAssocCache` holds one 16-byte record per line, allocated once
//! when it is built, and keeps no history of the lines it has seen: the
//! serving host cache and the Figure 7 sweeps stream hundreds of
//! thousands of distinct lines through theirs. A counting global
//! allocator checks both halves.
//!
//! Only allocations made on the measuring thread count, so the test
//! harness's other threads cannot decide the verdict.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use recnmp_cache::{CacheConfig, SetAssocCache};

struct CountingAlloc;

thread_local! {
    /// Set on a thread whose allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Live `(bytes, allocations)` this thread made while counted.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn track(bytes: i64, allocations: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = COUNTED.try_with(|counted| {
        if counted.get() {
            LIVE.with(|live| {
                let (b, n) = live.get();
                live.set((b + bytes, n + allocations));
            });
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64), -1);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh allocation for this guard's purposes.
        track(new_size as i64 - layout.size() as i64, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted; returns its result
/// and the `(live bytes, allocations)` it added.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (i64, i64)) {
    COUNTED.with(|c| c.set(true));
    let before = LIVE.with(Cell::get);
    let out = f();
    let after = LIVE.with(Cell::get);
    COUNTED.with(|c| c.set(false));
    (out, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn streaming_distinct_lines_allocates_nothing_after_construction() {
    // The serving host cache's shape: 4-way, 64-byte lines, 1 MiB.
    let config = CacheConfig::new(1 << 20, 64, 4);
    let (mut cache, (bytes, _)) = counted(|| SetAssocCache::new(config).unwrap());
    let bytes_per_line = bytes as f64 / config.num_lines() as f64;
    assert!(
        bytes_per_line <= 16.0,
        "cache holds {bytes_per_line:.1} bytes per line, expected at most 16"
    );

    // Ten times the capacity in distinct lines, then a fill pass over
    // the same lines: every miss evicts, and nothing may grow.
    let n = 10 * config.num_lines() as u64;
    let ((), (bytes, allocations)) = counted(|| {
        for line in 0..n {
            cache.access(line * 64);
        }
        for line in 0..n {
            cache.fill(line * 64);
        }
    });
    assert_eq!(
        (bytes, allocations),
        (0, 0),
        "streaming {n} distinct lines grew the heap"
    );
    assert_eq!(cache.stats().misses, n, "fills count no lookups");
    assert_eq!(cache.occupancy(), config.num_lines());
}
