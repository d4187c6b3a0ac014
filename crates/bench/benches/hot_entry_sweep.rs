//! Micro-benchmark for hot-entry profiling.
//!
//! Times `HotEntryProfiler::sweep` on the `replay` shape: one batch of
//! 32 poolings × 80 Zipf-0.9 lookups, a 2,048-line RankCache and
//! thresholds 0..=4 — the per-batch cost every RecNMP-opt packet compile
//! pays before kernel launch.

use std::hint::black_box;

use recnmp_bench::bench;
use recnmp_trace::{EmbeddingTableSpec, HotEntryProfiler, IndexDistribution, TraceGenerator};
use recnmp_types::TableId;

fn main() {
    // Rows as an `SlsTrace` stores and hands them to the profiler.
    let indices: Vec<u32> = TraceGenerator::new(
        TableId::new(0),
        EmbeddingTableSpec::dlrm_default(),
        IndexDistribution::Zipf { s: 0.9 },
        7,
    )
    .batch(32, 80)
    .flat_indices()
    .into_iter()
    .map(|i| u32::try_from(i).expect("a DLRM table row fits a u32"))
    .collect();
    let profiler = HotEntryProfiler::new();
    bench("hot_entry_sweep/zipf09_32x80_2048_lines", || {
        profiler.sweep(black_box(&indices), black_box(2048), black_box(4))
    });
}
