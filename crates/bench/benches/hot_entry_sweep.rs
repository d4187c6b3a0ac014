//! Criterion micro-benchmark for hot-entry profiling.
//!
//! Times `HotEntryProfiler::sweep` on the `replay` shape: one batch of
//! 32 poolings × 80 Zipf-0.9 lookups, a 2,048-line RankCache and
//! thresholds 0..=4 — the per-batch cost every RecNMP-opt packet compile
//! pays before kernel launch.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recnmp_trace::{EmbeddingTableSpec, HotEntryProfiler, IndexDistribution, TraceGenerator};
use recnmp_types::TableId;

fn bench(c: &mut Criterion) {
    let indices = TraceGenerator::new(
        TableId::new(0),
        EmbeddingTableSpec::dlrm_default(),
        IndexDistribution::Zipf { s: 0.9 },
        7,
    )
    .batch(32, 80)
    .flat_indices();
    let profiler = HotEntryProfiler::new();

    let mut group = c.benchmark_group("hot_entry_sweep");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function("zipf09_32x80_2048_lines", |b| {
        b.iter(|| profiler.sweep(black_box(&indices), black_box(2048), black_box(4)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
