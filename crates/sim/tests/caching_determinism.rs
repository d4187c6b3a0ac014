//! Cache-aware serving determinism and accounting invariants:
//!
//! * cached + prefetched serving output is byte-identical across
//!   execution-pool worker counts {1, 2, 8} and across reruns at a
//!   fixed count (the locality layers must not introduce scheduling
//!   nondeterminism);
//! * the host cache's hit/miss accounting conserves lookups — hits plus
//!   misses equals the lookups the query stream offered;
//! * the host cache genuinely absorbs traffic: with the hot row stream,
//!   the cached arm sees fewer channel-level instructions than the bare
//!   baseline with otherwise identical dispatch.

use recnmp_backend::SlsTrace;
use recnmp_exec::{with_pool, ExecPool};
use recnmp_sim::serving::{
    reference_caching_arms, reference_cluster4_optimized, run, ArrivalProcess, QueryShape,
    QueryStream, ResilienceConfig, ServingConfig, ServingMode, ServingRun,
};

fn shape() -> QueryShape {
    QueryShape::reference_skewed().with_row_skew(1.2)
}

fn cfg(mode: ServingMode) -> ServingConfig {
    ServingConfig {
        process: ArrivalProcess::Poisson,
        qps: 2_000_000.0,
        queries: 24,
        shape: shape(),
        mode,
        seed: 0xcac4e,
    }
}

fn run_with_workers(workers: usize, mode: ServingMode) -> ServingRun {
    let pool = ExecPool::new(workers).expect("positive worker count");
    with_pool(&pool, || {
        let mut backend = reference_cluster4_optimized();
        backend.reset_caches();
        let zero = ResilienceConfig::zero();
        run(&mut [backend.as_mut()], &cfg(mode), &zero).expect("cached serving run")
    })
}

#[test]
fn cached_serving_is_byte_identical_across_worker_counts() {
    for (label, mode) in reference_caching_arms() {
        let one = run_with_workers(1, mode);
        for workers in [2, 8] {
            let other = run_with_workers(workers, mode);
            assert_eq!(
                one, other,
                "{label}: workers=1 vs workers={workers} diverged"
            );
        }
        // Rerun at a fixed count: neither the pool nor the caches may
        // leak state between runs (reset_caches must fully rewind).
        assert_eq!(one, run_with_workers(1, mode), "{label}: rerun diverged");
    }
}

#[test]
fn host_cache_accounting_conserves_lookups() {
    let arms = reference_caching_arms();
    let offered: u64 = {
        let c = cfg(arms[0].1);
        QueryStream::new(c.shape, c.seed)
            .take_queries(c.queries)
            .iter()
            .map(SlsTrace::total_lookups)
            .sum()
    };
    for (label, mode) in arms {
        let r = run_with_workers(1, mode);
        let cached = matches!(mode, ServingMode::Sharded(d) if d.host_cache.is_some());
        if cached {
            assert_eq!(
                r.report.host_hits + r.report.host_misses,
                offered,
                "{label}: hits + misses != offered lookups"
            );
            // Only hits shrink channel work; misses all reach the channels.
            assert_eq!(r.report.insts, r.report.host_misses, "{label}");
        } else {
            assert_eq!(r.report.host_hits, 0, "{label}: uncached arm counted hits");
            assert_eq!(
                r.report.insts, offered,
                "{label}: lookups lost or duplicated"
            );
        }
    }
}

#[test]
fn host_cache_absorbs_channel_traffic_on_the_hot_stream() {
    let arms = reference_caching_arms();
    let find = |needle: &str| {
        arms.iter()
            .find(|(label, _)| label == needle)
            .unwrap_or_else(|| panic!("{needle} is a reference arm"))
            .1
    };
    let bare = run_with_workers(1, find("sharded-frequency"));
    let cached = run_with_workers(1, find("cached-frequency@1MiB"));
    assert!(
        cached.report.host_hits > 0,
        "1 MiB cache saw no hits on the hot row stream"
    );
    assert!(
        cached.report.insts < bare.report.insts,
        "cache absorbed nothing: {} vs {} channel insts",
        cached.report.insts,
        bare.report.insts
    );
}
