//! Memory guard for streamed serving.
//!
//! Serving draws each query from its seeded stream when the core
//! dispatches it and drops it once the query settles, so a run's heap
//! must not grow with the queries' lookups. A counting global allocator
//! tracks the live heap of the measuring thread and checks that: each
//! run is measured at N and at 4N queries, and the extra peak per extra
//! query stays under [`PER_QUERY_BOUND`].
//!
//! What a run still keeps per query is its results and counters, not its
//! work:
//! - the arrival schedule, and each query's completion, latency and
//!   outcome: about 40 B, plus the report's copies of the arrivals and
//!   completions;
//! - the per-packet vectors that `RunReport::absorb_parallel`
//!   concatenates over every shard run (each packet's latency and
//!   slowest-rank fraction, each shard's per-rank instruction counts):
//!   at these shapes about 4 packets and 4 shards a query.
//!
//! That is about 170 B a query (40 B of results, 64 B of packet
//! latencies and fractions, about 64 B of rank counts). Every one of
//! these vectors grows by doubling, so at a given query count it may
//! hold up to twice its length: the bound of 512 B covers 340 B with
//! room to spare. Measured: 204 B per extra query on the faulted fleet
//! and 201 B on the sharded cluster. Holding the whole offered stream
//! instead, as serving did before it streamed, measured 1,874 and
//! 1,877 B per extra query on the same runs (12 B of columns per lookup,
//! 128 lookups a query, plus offsets, batch records and headers), which
//! fails the bound.
//!
//! The runs use a 1-worker pool, so every task runs inline on the
//! measuring thread and counts. Only allocations made on that thread
//! count, so the harness's other threads cannot move the verdict.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use recnmp_exec::{with_pool, ExecPool};
use recnmp_sim::serving::{
    reference_cluster4, run, ArrivalProcess, FaultPlan, FaultSpec, Fleet, FleetDispatch,
    HedgePolicy, PlacementPolicy, QueryShape, ResilienceConfig, RetryPolicy, ServingConfig,
    ServingMode, SloPolicy,
};

struct CountingAlloc;

thread_local! {
    /// Set on a thread whose allocations are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread allocated minus bytes it freed while counted.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` reached.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = COUNTED.try_with(|counted| {
        if counted.get() {
            let live = LIVE.with(|l| {
                l.set(l.get() + bytes);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most extra heap a serving run may hold per extra query (see the
/// module doc for what it covers).
const PER_QUERY_BOUND: f64 = 512.0;

/// Queries of the shorter run; the longer run offers four times as many.
const QUERIES: usize = 150;

/// The faulted-fleet benchmark's query shape: 24 skewed tables, 4
/// sampled per query, 4 poolings of 8 lookups each.
fn fleet_shape() -> QueryShape {
    QueryShape::new(24, 4, 8)
        .with_table_skew(1.2)
        .with_table_sampling(4)
}

/// The most heap `run` held at once beyond what was live before it, on a
/// 1-worker pool.
fn peak_heap<T>(run: impl FnOnce() -> T) -> i64 {
    let pool = ExecPool::new(1).expect("one worker");
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTED.with(|c| c.set(true));
    drop(with_pool(&pool, run));
    COUNTED.with(|c| c.set(false));
    PEAK.with(Cell::get)
}

/// Asserts that `run` at 4N queries peaks at most `PER_QUERY_BOUND`
/// bytes per extra query above its peak at N queries.
fn assert_streamed(what: &str, mut run: impl FnMut(usize)) {
    let small = peak_heap(|| run(QUERIES));
    let large = peak_heap(|| run(4 * QUERIES));
    let per_query = (large - small) as f64 / (3 * QUERIES) as f64;
    assert!(
        per_query <= PER_QUERY_BOUND,
        "{what}: peak heap {small} B at {QUERIES} queries, {large} B at {} \
         ({per_query:.0} B per extra query)",
        4 * QUERIES
    );
}

#[test]
fn faulted_fleet_serving_holds_no_query_stream() {
    let shape = fleet_shape();
    let (nodes, channels, qps) = (3, 4, 120_000.0);
    let faults = FaultSpec {
        crashes: 1,
        window: (200_000, 1_200_000),
        degraded_channels: 1,
        degrade_multiplier: 16,
        timeout_channels: 1,
        timeout_cycles: 100_000,
    };
    let res = ResilienceConfig::new(FaultPlan::seeded(7, &faults, nodes, channels))
        .with_retry(RetryPolicy::serving_default(13_185))
        .with_hedge(HedgePolicy::p95())
        .with_slo(SloPolicy::new(13_185));
    assert_streamed("faulted fleet", |queries| {
        let cfg = ServingConfig {
            process: ArrivalProcess::Poisson,
            qps,
            queries,
            shape,
            mode: ServingMode::Fleet(FleetDispatch::replicated(shape.tables)),
            seed: 7,
        };
        let mut fleet = Fleet::reference(nodes);
        let report = run(&mut fleet.nodes_mut(), &cfg, &res).expect("fleet run");
        assert_eq!(report.outcomes.len(), queries);
    });
}

#[test]
fn sharded_serving_holds_no_query_stream() {
    assert_streamed("sharded cluster", |queries| {
        let cfg = ServingConfig {
            mode: ServingMode::sharded(PlacementPolicy::Hash),
            ..ServingConfig::poisson(60_000.0, queries, fleet_shape(), 7)
        };
        let mut cluster = reference_cluster4();
        let zero = ResilienceConfig::zero();
        let report = run(&mut [cluster.as_mut()], &cfg, &zero).expect("sharded run");
        assert_eq!(report.completions.len(), queries);
    });
}
