//! Allocation guard for the scheduler hot path.
//!
//! The restructured engine holds every queue, slab slot, candidate cache
//! and completion record in reusable storage, so once the capacities are
//! warmed up, a steady-state enqueue → issue → complete loop must not
//! allocate at all. A counting global allocator proves it: after a
//! warm-up round, further rounds of the same traffic leave the
//! allocation counter untouched.
//!
//! The engine is single-threaded, so only allocations made on the
//! measuring thread count: the test harness's own threads allocate on
//! their own schedule and must not decide the verdict.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use recnmp_dram::{DramConfig, MemorySystem};
use recnmp_types::PhysAddr;

/// One round of the per-rank traffic pattern: a burst of reads with
/// staggered arrivals, run to idle through the borrow-based completion
/// API (the hot path `RankNmp::process` uses).
fn round(mem: &mut MemorySystem, salt: u64) -> u64 {
    let base = mem.cycle();
    for i in 0..256u64 {
        mem.enqueue_read(
            PhysAddr::new(((i * 131 + salt * 7919) * 128) & ((1 << 30) - 1)),
            base + i / 2,
        );
    }
    mem.run_to_idle().expect("drain");
    let last = mem.completions().last().expect("completions").finish_cycle;
    mem.clear_completions();
    last
}

#[test]
fn steady_state_issue_loop_does_not_allocate() {
    COUNTED.with(|c| c.set(true));
    let mut mem = MemorySystem::new(DramConfig::single_rank()).expect("config");

    // Warm-up: grows the staged queue, slab, per-bank queues and the
    // completion buffer to their steady-state capacities.
    for salt in 0..4 {
        round(&mut mem, salt);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut checksum = 0u64;
    for salt in 4..12 {
        checksum = checksum.wrapping_add(round(&mut mem, salt));
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(checksum > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state issue loop allocated {} time(s)",
        after - before
    );
}
