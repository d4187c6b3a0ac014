//! A counting global allocator: every allocation bumps a process-wide
//! counter and a per-thread counter, so a span can read its own
//! allocations exactly even while pool workers allocate concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation and no destructor: touching it never
    // allocates, so it is safe to use from inside the allocator.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus allocation counting.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    // A statistic that publishes no other data.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by every thread so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread() -> u64 {
    THREAD.try_with(Cell::get).unwrap_or(0)
}
