//! Micro-benchmark for hot-entry profiling.
//!
//! Times `HotEntryProfiler::hints`, the per-batch cost every RecNMP-opt
//! packet compile pays before kernel launch, on the `replay` shape: one
//! batch of 32 poolings × 80 Zipf-0.9 lookups (about 2,000 distinct rows)
//! and thresholds 0..=4, at one cache size per path the profiler takes:
//!
//! - 4,096 lines: no more lookups than lines, so no counting pass;
//! - 2,048 lines: every distinct row fits, so the counting pass scores
//!   every level in closed form;
//! - 1,024 lines: level 0 overflows the cache, so the stack-distance pass
//!   runs for it.

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
    for (lines, path) in [
        (4096, "unprofiled"),
        (2048, "closed_form"),
        (1024, "stack_distance"),
    ] {
        bench(
            &format!("hot_entry_sweep/zipf09_32x80_{lines}_lines_{path}"),
            || profiler.hints(black_box(&indices), black_box(lines), black_box(4)),
        );
    }
}
