//! Micro-benchmark for the deterministic execution engine.
//!
//! Two questions decide whether the worker pool is fit to carry every
//! parallel site in the simulator: what does a submit → execute →
//! collect round trip cost relative to just calling the closures
//! (dispatch overhead), and does routing a multi-channel cluster run
//! through the pool cost anything when the pool is inline
//! (`workers = 1`), the configuration every per-channel `sim_cycles`
//! golden is pinned at? Regressions here show up as wall-clock drift
//! in `BENCH_throughput.json` without moving any simulated cycle
//! count.

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::{SlsBackend, SlsTrace};
use recnmp_bench::bench;
use recnmp_exec::{Batch, ExecPool};
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
use recnmp_types::{PhysAddr, TableId};

/// ~1us of integer busywork, roughly one short channel task.
fn busywork(salt: u64) -> u64 {
    let mut acc = salt;
    for k in 0..600u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    acc
}

fn workload(tables: u32) -> SlsTrace {
    let batches: Vec<SlsBatch> = (0..tables)
        .map(|t| {
            TraceGenerator::new(
                TableId::new(t),
                EmbeddingTableSpec::dlrm_default(),
                IndexDistribution::Zipf { s: 0.9 },
                91 + t as u64,
            )
            .batch(2, 16)
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
        .expect("geometry");
    RecNmpCluster::new(config).expect("cluster")
}

fn main() {
    // Round-trip cost of a 64-task batch on the inline engine and on a
    // 2-worker pool, with reused Batch storage (the steady state the
    // allocation guard pins).
    for workers in [1usize, 2] {
        let pool = ExecPool::new(workers).expect("pool");
        let handle = pool.handle();
        let mut batch = Batch::new();
        let mut salt = 0u64;
        bench(&format!("exec_pool/dispatch_64/workers{workers}"), || {
            salt += 1;
            for i in 0..64u64 {
                let s = salt.wrapping_mul(64).wrapping_add(i);
                batch.push(move || Ok(busywork(s)));
            }
            handle.run_batch(&mut batch);
            let mut sum = 0u64;
            for r in batch.drain() {
                sum = sum.wrapping_add(r.expect("task"));
            }
            sum
        });
    }

    // A 16-channel cluster run routed through the engine — the path
    // every golden and every BENCH_throughput row takes.
    for workers in [1usize, 2] {
        let pool = ExecPool::new(workers).expect("pool");
        let trace = workload(16);
        let mut sim = cluster(16);
        bench(&format!("exec_pool/cluster16/workers{workers}"), || {
            recnmp_exec::with_pool(&pool, || sim.run(&trace)).total_cycles
        });
    }
}
