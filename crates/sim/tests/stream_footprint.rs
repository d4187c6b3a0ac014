//! Memory guard for a held query stream.
//!
//! Serving draws each query as it dispatches, but whatever holds queries
//! (`take_queries`, the host cache's filtered residuals) keeps their
//! columns live. Each query is stored as flat columns built at their
//! exact size: 4 bytes of row (rows are `u32`) and 8 bytes of address
//! per lookup, plus pooling offsets, one record per batch and the trace
//! header. A counting global allocator measures what `take_queries`
//! leaves live on the heap.
//!
//! Only allocations made on the measuring thread count, so the test
//! harness's other threads cannot decide the verdict.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use recnmp_backend::SlsTrace;
use recnmp_sim::serving::{QueryShape, QueryStream};

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
        track(new_size as i64 - layout.size() as i64, 0);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn held_fleet_stream_holds_at_most_sixteen_bytes_per_lookup() {
    // The faulted-fleet benchmark's shape: 24 skewed tables, 4 sampled
    // per query, 4 poolings of 8 lookups each.
    let shape = QueryShape::new(24, 4, 8)
        .with_table_skew(1.2)
        .with_table_sampling(4);
    let mut stream = QueryStream::new(shape, 7);
    COUNTED.with(|c| c.set(true));
    let before = LIVE.with(Cell::get);
    let queries = stream.take_queries(3_000);
    let after = LIVE.with(Cell::get);
    COUNTED.with(|c| c.set(false));

    let lookups: u64 = queries.iter().map(SlsTrace::total_lookups).sum();
    assert_eq!(lookups, 3_000 * shape.lookups_per_query());
    let bytes_per_lookup = (after.0 - before.0) as f64 / lookups as f64;
    let allocations_per_query = (after.1 - before.1) as f64 / queries.len() as f64;
    // 12 bytes of columns per lookup; at this shape the pooling offsets,
    // batch records and trace headers add about 2.5 more.
    assert!(
        bytes_per_lookup <= 16.0,
        "held stream: {bytes_per_lookup:.2} B of live heap per lookup"
    );
    assert!(
        allocations_per_query <= 8.0,
        "held stream: {allocations_per_query:.2} live allocations per query"
    );
}
