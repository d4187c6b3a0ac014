//! Execution-engine conformance: worker count is a pure performance
//! knob.
//!
//! The determinism contract of `recnmp-exec` says a simulation result
//! is a function of the configuration and the trace only — never of
//! how many pool workers happened to run it or how the OS scheduled
//! them. These tests pin that contract at the workspace level:
//! cluster `RunReport`s, tiered-cluster reports and full serving sweep
//! curves are byte-identical across worker counts {1, 2, 8} and across
//! reruns, a 256-channel cluster completes on a 2-thread pool (the
//! thread-per-channel ceiling is gone), and a panicking task surfaces
//! as a `SimError` instead of hanging or tearing down the process.

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_exec::ExecPool;
use recnmp_sim::serving::{
    anchored_sweep, ArrivalProcess, DispatchPolicy, QueryShape, ServingMode, SweepCurve, SweepSpec,
};
use recnmp_storage::TieredCluster;
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
use recnmp_types::{PhysAddr, SimError, TableId};

/// Worker counts the contract is exercised at. 1 is the inline serial
/// engine (zero spawned threads), 2 matches the CI machine, 8
/// oversubscribes it — completion order differs wildly between these,
/// results must not.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn workload(tables: u32, batch: usize, pooling: usize, seed: u64) -> SlsTrace {
    let batches: Vec<SlsBatch> = (0..tables)
        .map(|t| {
            TraceGenerator::new(
                TableId::new(t),
                EmbeddingTableSpec::dlrm_default(),
                IndexDistribution::Zipf { s: 0.9 },
                seed + t as u64,
            )
            .batch(batch, pooling)
        })
        .collect();
    SlsTrace::from_batches(&batches, &mut |t, row| {
        PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
    })
}

fn cluster(channels: usize) -> RecNmpCluster {
    let config = RecNmpClusterConfig::builder()
        .channels(channels)
        .dimms(1)
        .ranks_per_dimm(2)
        .refresh(false)
        .build()
        .unwrap();
    RecNmpCluster::new(config).unwrap()
}

/// Runs `f` once per worker count in [`WORKER_COUNTS`], twice per
/// count, and asserts every invocation produces the same value with
/// the same `Debug` bytes as the first.
fn assert_invariant_across_pools<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) {
    let _serial = serialize();
    let mut reference: Option<(T, String)> = None;
    for workers in WORKER_COUNTS {
        let pool = ExecPool::new(workers).unwrap();
        for rerun in 0..2 {
            let value = recnmp_exec::with_pool(&pool, &mut f);
            match &reference {
                None => {
                    let bytes = format!("{value:?}");
                    reference = Some((value, bytes));
                }
                Some((first, bytes)) => {
                    assert_eq!(
                        &value, first,
                        "result diverged at workers={workers} rerun={rerun}"
                    );
                    assert_eq!(
                        format!("{value:?}").as_bytes(),
                        bytes.as_bytes(),
                        "Debug bytes diverged at workers={workers} rerun={rerun}"
                    );
                }
            }
        }
    }
}

#[test]
fn cluster_reports_are_byte_identical_across_worker_counts() {
    let trace = workload(16, 4, 40, 91);
    assert_invariant_across_pools(|| -> RunReport {
        let mut c = cluster(8);
        c.run(&trace)
    });
}

#[test]
fn tiered_reports_are_byte_identical_across_worker_counts() {
    let trace = workload(12, 2, 16, 7);
    assert_invariant_across_pools(|| -> RunReport {
        let mut c = TieredCluster::reference(4, 2).unwrap();
        c.run(&trace)
    });
}

#[test]
fn sweep_curves_are_byte_identical_across_worker_counts() {
    // A sweep over a cluster nests batches: each sweep point is a pool
    // task whose backend fans its own per-channel tasks into the same
    // pool. The curve must still be a pure function of seed and config.
    let spec = SweepSpec {
        process: ArrivalProcess::Poisson,
        shape: QueryShape::new(2, 2, 8),
        utilizations: vec![0.4, 0.8],
        queries: 16,
        probe_queries: 8,
        seed: 0xfeed_f00d,
    };
    let fifo = ServingMode::Queued(DispatchPolicy::FifoSingleQueue);
    let least = ServingMode::Queued(DispatchPolicy::LeastOutstanding);
    assert_invariant_across_pools(|| -> Vec<SweepCurve> {
        let mut make = || -> Box<dyn SlsBackend> { Box::new(cluster(4)) };
        anchored_sweep(&mut make, fifo, &[least], &spec).unwrap()
    });
}

/// Serializes the thread-budget test against the other tests in this
/// binary: their short-lived pools would otherwise churn the pool
/// thread count while we sample it.
static THREAD_COUNT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`THREAD_COUNT_LOCK`], tolerating poisoning: one failed test
/// must not fail every other test behind it.
fn serialize() -> std::sync::MutexGuard<'static, ()> {
    THREAD_COUNT_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Counts this process's execution-pool worker threads (named
/// `recnmp-exec-*`) via `/proc/self/task/*/comm`, so the test harness's
/// own threads never enter the count. Linux is the only supported CI
/// target; elsewhere the check degrades to a no-op.
fn pool_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("recnmp-exec-"))
            .count(),
    )
}

/// Runs one task on every thread of `pool` (its workers plus the helping
/// submitter) at once, so each worker has started — and named itself —
/// before its threads are counted.
fn warm(pool: &ExecPool) {
    let meet = std::sync::Barrier::new(pool.workers() + 1);
    let tasks: Vec<_> = (0..=pool.workers())
        .map(|_| {
            let meet = &meet;
            move || {
                meet.wait();
                Ok(())
            }
        })
        .collect();
    pool.handle().run_vec(tasks).unwrap();
}

#[test]
fn many_channel_cluster_runs_within_the_pool_thread_budget() {
    // 256 channels, 2 workers: before the execution engine this run
    // spawned 256 scoped threads; now channel tasks queue onto the
    // fixed pool and the pool thread count stays flat.
    let trace = workload(256, 1, 8, 3);
    let _serial = serialize();
    let pool = ExecPool::new(2).unwrap();
    assert_eq!(pool.spawned_threads(), 2);
    warm(&pool);
    let before = pool_threads();
    let report = recnmp_exec::with_pool(&pool, || {
        let mut c = cluster(256);
        c.run(&trace)
    });
    let after = pool_threads();
    assert_eq!(report.insts, trace.total_lookups());
    assert_eq!(report.system, "recnmp-cluster[256]");
    assert_eq!(
        before, after,
        "running 256 channels must not spawn threads beyond the pool's"
    );
}

#[test]
fn panicking_task_is_reported_not_hung() {
    let _serial = serialize();
    for workers in [1usize, 8] {
        let pool = ExecPool::new(workers).unwrap();
        let err = recnmp_exec::with_pool(&pool, || {
            let tasks: Vec<Box<dyn FnOnce() -> Result<u64, SimError> + Send>> = (0..6u64)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("poisoned task {i}");
                        }
                        Ok(i)
                    }) as Box<dyn FnOnce() -> Result<u64, SimError> + Send>
                })
                .collect();
            recnmp_exec::current().run_vec(tasks).unwrap_err()
        });
        match err {
            SimError::TaskPanicked { task, message } => {
                assert_eq!(task, 3, "workers={workers}");
                assert!(message.contains("poisoned task 3"), "workers={workers}");
            }
            other => panic!("workers={workers}: expected TaskPanicked, got {other:?}"),
        }
        // The pool survives a poisoned batch: the same handle keeps
        // serving work afterwards.
        let sum: u64 = recnmp_exec::with_pool(&pool, || {
            recnmp_exec::current()
                .run_vec((0..4u64).map(|i| move || Ok(i * i)).collect::<Vec<_>>())
                .unwrap()
                .into_iter()
                .sum()
        });
        assert_eq!(sum, 14);
    }
}
