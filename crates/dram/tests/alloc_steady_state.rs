//! Allocation guard for the scheduler hot path.
//!
//! The engine holds every queue, slab slot and candidate cache in
//! reusable storage, and a run hands each completion to its callback
//! instead of keeping it, so once the capacities are warmed up, a
//! steady-state stage → issue → complete loop must not allocate at all.
//! A counting global allocator proves it: after a warm-up round, further
//! rounds of the same traffic leave the allocation counter untouched.
//!
//! The guard runs on the rank-NMP device (one rank) and on a 4-rank host
//! channel, where the scheduler keeps per-rank state of its own.
//!
//! The engine is single-threaded, so only allocations made on a
//! measuring thread count, and each measuring thread keeps its own
//! count: the test harness's other threads (including the other test)
//! allocate on their own schedule and must not decide the verdict.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Set on a thread whose allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while counted.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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
/// staggered arrivals, streamed with a no-op completion callback (the
/// path the baselines and `RankNmp::process` use). Returns the cycle the
/// run ended at, its last finish.
fn round(mem: &mut MemorySystem, salt: u64) -> u64 {
    let base = mem.cycle();
    let reads = (0..256usize).map(|i| {
        let i = i as u64;
        (
            PhysAddr::new(((i * 131 + salt * 7919) * 128) & ((1 << 30) - 1)),
            base + i / 2,
        )
    });
    mem.run_stream(reads, |_| {}).expect("drain");
    assert!(mem.cycle() > base, "the round completed nothing");
    mem.cycle()
}

/// Warms `cfg`'s engine up, then asserts that further rounds of the same
/// traffic do not allocate.
fn assert_steady_state_does_not_allocate(cfg: DramConfig) {
    COUNTED.with(|c| c.set(true));
    let mut mem = MemorySystem::new(cfg).expect("config");

    // Warm-up: grows the staged queue, slab and per-bank queues to their
    // steady-state capacities.
    for salt in 0..4 {
        round(&mut mem, salt);
    }

    let before = allocations();
    let mut checksum = 0u64;
    for salt in 4..12 {
        checksum = checksum.wrapping_add(round(&mut mem, salt));
    }
    let after = allocations();

    assert!(checksum > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state issue loop allocated {} time(s)",
        after - before
    );
}

#[test]
fn steady_state_issue_loop_does_not_allocate() {
    assert_steady_state_does_not_allocate(DramConfig::single_rank());
}

#[test]
fn multi_rank_steady_state_does_not_allocate() {
    assert_steady_state_does_not_allocate(DramConfig::with_ranks(2, 2));
}
