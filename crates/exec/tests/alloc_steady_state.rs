//! Allocation guard for the execution engine's submit → execute →
//! collect cycle.
//!
//! The pool's steady state must be allocation-free: a reused [`Batch`]
//! keeps its task and result storage across runs, queue capacity is
//! retained by the shared `VecDeque`, and the Linux mutex/condvar pair
//! never allocates after thread startup. A counting global allocator
//! proves it — after warm-up rounds (which grow the batch vectors and
//! the job queue and lazily initialize per-thread parking state),
//! further rounds of the same traffic leave the allocation counter
//! untouched, on both the inline single-worker engine and a 2-worker
//! parallel pool.
//!
//! This file holds exactly one test so no concurrent test thread can
//! pollute the counter (mirroring `crates/dram/tests/alloc_steady_state.rs`,
//! which guards the scheduler hot path the tasks themselves run on).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use recnmp_exec::{Batch, ExecPool};

#[test]
fn steady_state_submit_collect_does_not_allocate() {
    for workers in [1usize, 2] {
        let pool = ExecPool::new(workers).expect("pool");
        let handle = pool.handle();
        let mut batch = Batch::new();
        let mut checksum = 0u64;
        let run_round = |batch: &mut Batch<_, u64>, salt: u64| -> u64 {
            for i in 0..32u64 {
                batch.push(move || {
                    let mut acc = salt.wrapping_mul(31).wrapping_add(i);
                    for k in 0..200u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    Ok(acc)
                });
            }
            handle.run_batch(batch);
            let mut sum = 0u64;
            for r in batch.drain() {
                sum = sum.wrapping_add(r.expect("task result"));
            }
            sum
        };

        // Warm every pool thread explicitly: `workers + 1` tasks that
        // meet on one barrier can only all finish once each worker and
        // the helping submitter has run one of them, so no thread runs
        // its first task (and any lazy per-thread setup) inside the
        // counted window. The inline single-worker engine runs tasks
        // serially on the submitter, which a barrier would deadlock.
        if workers > 1 {
            let meet = std::sync::Barrier::new(workers + 1);
            let tasks: Vec<_> = (0..=workers)
                .map(|_| {
                    let meet = &meet;
                    move || {
                        meet.wait();
                        Ok(())
                    }
                })
                .collect();
            handle.run_vec(tasks).expect("warm-up batch");
        }
        // Then grow the batch's task/result vectors and the shared job
        // queue to steady-state capacity.
        for salt in 0..4 {
            checksum = checksum.wrapping_add(run_round(&mut batch, salt));
        }

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for salt in 4..12 {
            checksum = checksum.wrapping_add(run_round(&mut batch, salt));
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert!(checksum > 0);
        assert_eq!(
            after - before,
            0,
            "steady-state submit/collect with {workers} worker(s) allocated {} time(s)",
            after - before
        );
    }
}
