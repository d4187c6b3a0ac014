//! Micro-benchmark for trace generation.
//!
//! Times `TraceGenerator::next_index` on a DLRM-default table (a million
//! rows) at every row skew the repository uses — the eight production
//! presets T1–T8 (0.6 to 1.05), the serving shapes' 1.2 and 1.3, and the
//! uniform stream — and `QueryStream::next_query` on the query shapes of
//! perfbench's `serve-cached` (row skew 1.2) and `fleet-faults` (row
//! skew 0.9, sampled tables) workloads, which draw every query's rows at
//! dispatch. Prints ns and calibration-kernel steps per draw or per
//! lookup.

use recnmp_bench::bench;
use recnmp_model::RecModelKind;
use recnmp_sim::serving::{QueryShape, QueryStream};
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
use recnmp_types::TableId;

/// Draws per benched call.
const DRAWS: u64 = 10_000;

/// Benches one shape; one call of `f` costs `units` draws or lookups.
fn bench_per(name: &str, unit: &str, units: u64, f: impl FnMut() -> u64) {
    let summary = bench(name, f);
    println!(
        "  {:.1} ns and {:.1} xorshift steps per {unit}",
        summary.median_us * 1e3 / units as f64,
        summary.median_steps / units as f64,
    );
}

fn main() {
    let skews = [0.6, 0.72, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.2, 1.3];
    let dists = (skews
        .into_iter()
        .map(|s| (format!("zipf_{s}"), IndexDistribution::Zipf { s })))
    .chain([("uniform".to_string(), IndexDistribution::Uniform)]);
    for (label, dist) in dists {
        let spec = EmbeddingTableSpec::dlrm_default();
        let mut g = TraceGenerator::new(TableId::new(0), spec, dist, 7);
        bench_per(
            &format!("trace_gen/next_index_{label}"),
            "draw",
            DRAWS,
            || (0..DRAWS).fold(0, |acc, _| acc ^ g.next_index()),
        );
    }

    let serve_cached = QueryShape::for_model(RecModelKind::Rm1Small, 4)
        .with_table_skew(1.5)
        .with_row_skew(1.2);
    let fleet_faults = QueryShape::new(24, 4, 8)
        .with_table_skew(1.2)
        .with_table_sampling(4);
    for (label, shape) in [
        ("serve_cached", serve_cached),
        ("fleet_faults", fleet_faults),
    ] {
        let mut stream = QueryStream::new(shape, 7);
        let lookups = shape.lookups_per_query();
        bench_per(
            &format!("trace_gen/next_query_{label}"),
            "lookup",
            lookups,
            || stream.next_query().total_lookups(),
        );
    }
}
