//! Criterion benchmark for the `fig_cache_serving` experiment (host
//! hot-embedding cache + cache-aware placement + inter-query prefetch
//! on the RecNMP-opt cluster).
//!
//! The full experiment sweeps five locality arms over a load axis; this
//! benchmark times one representative serving run of the co-design arm
//! (1 MiB host cache fronting a residual-load frequency placement) so
//! `cargo bench` stays fast. Use `repro fig_cache_serving --full` to
//! regenerate the complete figure.

use criterion::{criterion_group, criterion_main, Criterion};
use recnmp_sim::serving::{
    reference_caching_arms, reference_cluster4_optimized, serve, ArrivalProcess, QueryShape,
    ServingConfig,
};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_cache_serving");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // The experiment's quick-scale shape with its hot row stream, served
    // under the arm the co-design verdict rests on (cached-frequency@1MiB).
    let shape = QueryShape::reference_skewed().with_row_skew(1.2);
    let (_, mode) = reference_caching_arms()
        .into_iter()
        .find(|(label, _)| label == "cached-frequency@1MiB")
        .expect("co-design arm is a reference arm");
    let cfg = ServingConfig {
        process: ArrivalProcess::Poisson,
        qps: 2_000_000.0,
        queries: 24,
        shape,
        mode,
        seed: 7,
    };
    group.bench_function("kernel", |b| {
        b.iter(|| {
            let mut backend = reference_cluster4_optimized();
            let report = serve(backend.as_mut(), &cfg).expect("cached serving run");
            criterion::black_box(report)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
