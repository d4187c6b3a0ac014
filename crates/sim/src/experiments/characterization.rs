//! Section II characterization experiments (Figures 1, 4, 5, 6, 7).

use recnmp_cache::fa::FullyAssocLru;
use recnmp_cache::{CacheConfig, SetAssocCache};
use recnmp_model::footprint::{conv_footprint, fc_footprint, rnn_footprint, sls_footprint};
use recnmp_model::roofline::model_points;
use recnmp_model::{BandwidthModel, CpuPerfModel, RecModelKind, Roofline};
use recnmp_trace::{production_tables, CombTrace, PageMapper};
use recnmp_types::units::MIB;

use super::{ExperimentResult, Scale};
use crate::render::{f2, pct, x2, TextTable};

/// Figure 1(a): compute vs memory footprint of common operators.
pub fn fig01_footprint() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig01_footprint",
        "Figure 1(a): operator compute vs memory footprint, batch sweep",
    );
    let cfg = RecModelKind::Rm1Small.config();
    let mut t = TextTable::new(
        "operator footprints",
        &["operator", "batch", "GFLOPs", "mem footprint", "FLOP/byte"],
    );
    for batch in [1usize, 8, 64, 256] {
        for fp in [
            sls_footprint(&cfg, batch),
            fc_footprint(&cfg, batch),
            rnn_footprint(batch),
            conv_footprint(batch),
        ] {
            t.push_row(vec![
                fp.name.clone(),
                batch.to_string(),
                format!("{:.4}", fp.flops as f64 / 1e9),
                recnmp_types::units::human_bytes(fp.bytes),
                format!("{:.3}", fp.oi()),
            ]);
        }
    }
    result.tables.push(t);
    result.notes.push(
        "SLS: negligible compute against a table-scale footprint; dense operators invert \
         the profile — the Figure 1(a) contrast."
            .into(),
    );
    result
}

/// Figure 1(b): the roofline lift RecNMP provides.
pub fn fig01_roofline_lift() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig01_roofline_lift",
        "Figure 1(b): roofline lift from 8x internal bandwidth",
    );
    let base = Roofline::table1();
    let lifted = base.lifted(8.0);
    let mut t = TextTable::new(
        "attainable performance (GFLOP/s)",
        &[
            "operational intensity",
            "baseline roof",
            "RecNMP roof (8x)",
            "lift",
        ],
    );
    for oi in [0.0625, 0.25, 1.0, 4.0, 16.0, 64.0] {
        let b = base.attainable_gflops(oi);
        let l = lifted.attainable_gflops(oi);
        t.push_row(vec![format!("{oi}"), f2(b), f2(l), x2(l / b)]);
    }
    result.tables.push(t);
    result.notes.push(format!(
        "SLS sits at OI = 0.25 FLOP/B where the lift is the full 8.00x; the rooflines \
         meet at the compute bound ({} GFLOP/s).",
        base.peak_gflops
    ));
    result
}

/// Figure 4: operator-level latency breakdown across models and batches.
pub fn fig04_breakdown() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig04_breakdown",
        "Figure 4: inference latency and operator breakdown",
    );
    let perf = CpuPerfModel::table1();
    let mut t = TextTable::new(
        "operator breakdown (single model instance)",
        &["model", "batch", "latency (us)", "SLS %", "FC %", "other %"],
    );
    for kind in RecModelKind::ALL {
        for batch in [8usize, 64, 128, 256] {
            let bd = perf.breakdown(&kind.config(), batch);
            t.push_row(vec![
                kind.name().into(),
                batch.to_string(),
                f2(bd.total_us()),
                pct(bd.sls_fraction()),
                pct(bd.fc_us() / bd.total_us()),
                pct(bd.other_us / bd.total_us()),
            ]);
        }
    }
    result.tables.push(t);
    result.notes.push(
        "Paper anchors: SLS share 37.2% (RM1-small@8) to 73.5% (RM2-small@8); share \
         grows with batch; RM2-large is ~3.6x RM1-large."
            .into(),
    );
    result
}

/// Figure 5: roofline placement of RM1-large / RM2-large.
pub fn fig05_roofline() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig05_roofline",
        "Figure 5: roofline of RM1-large and RM2-large, batch sweep",
    );
    let perf = CpuPerfModel::table1();
    let roof = Roofline::table1();
    let mut t = TextTable::new(
        "roofline points",
        &[
            "point",
            "batch",
            "FLOP/byte",
            "GFLOP/s",
            "roof",
            "% of roof",
        ],
    );
    for kind in [RecModelKind::Rm1Large, RecModelKind::Rm2Large] {
        for p in model_points(&kind.config(), &[1, 16, 64, 256], &perf) {
            let bound = roof.attainable_gflops(p.oi);
            t.push_row(vec![
                p.name.clone(),
                p.batch.to_string(),
                format!("{:.3}", p.oi),
                f2(p.gflops),
                f2(bound),
                pct(p.gflops / bound),
            ]);
        }
    }
    result.tables.push(t);
    result.notes.push(
        "Paper anchor: models sit in the memory-bound region within 35.1% of the \
         theoretical bound at large batch."
            .into(),
    );
    result
}

/// Figure 6: bandwidth saturation with parallel SLS threads.
pub fn fig06_bw_saturation() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig06_bw_saturation",
        "Figure 6: memory bandwidth vs parallel SLS threads",
    );
    let bw = BandwidthModel::table1();
    let mut t = TextTable::new(
        "achieved bandwidth (GB/s)",
        &[
            "threads",
            "batch 16",
            "batch 64",
            "batch 128",
            "batch 256",
            "lat. mult @256",
        ],
    );
    for threads in [1usize, 2, 4, 8, 16, 24, 30, 36, 40] {
        t.push_row(vec![
            threads.to_string(),
            f2(bw.achieved_gbs(threads, 16)),
            f2(bw.achieved_gbs(threads, 64)),
            f2(bw.achieved_gbs(threads, 128)),
            f2(bw.achieved_gbs(threads, 256)),
            f2(bw.latency_multiplier(threads, 256)),
        ]);
    }
    result.tables.push(t);
    result.notes.push(format!(
        "Bounds: ideal {} GB/s, MLC empirical {} GB/s. Paper anchor: batch 256 x 30 \
         threads exceeds 67.4% of ideal (51.8 GB/s); achieved here: {:.1} GB/s.",
        bw.ideal_gbs,
        bw.empirical_gbs,
        bw.achieved_gbs(30, 256)
    ));
    result
}

/// Figure 7: temporal and spatial locality of embedding traces.
pub fn fig07_locality(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig07_locality",
        "Figure 7: embedding trace locality (temporal and spatial sweeps)",
    );
    let total_lookups = scale.scaled(240_000, 1_600_000);

    // --- (a) temporal: capacity sweep at 64 B lines, 4-way LRU.
    let mut ta = TextTable::new(
        "(a) hit rate vs cache capacity (64 B lines, 4-way LRU)",
        &["trace", "8 MiB", "16 MiB", "32 MiB", "64 MiB"],
    );
    let combs: [(String, usize); 4] = [
        ("Comb-8".into(), 1),
        ("Comb-16".into(), 2),
        ("Comb-32".into(), 4),
        ("Comb-64".into(), 8),
    ];
    // Random worst case first.
    {
        let mut row = vec!["random".to_string()];
        for mib in [8u64, 16, 32, 64] {
            let rate = random_trace_hit_rate(mib * MIB, 64, total_lookups / 4);
            row.push(pct(rate));
        }
        ta.push_row(row);
    }
    for (name, mult) in &combs {
        let gens = production_tables(0x000f_1607);
        let per_table = total_lookups / (8 * mult);
        let mut mapper = PageMapper::new(1 << 24, 77); // 64 GiB of frames
        let phys: Vec<u64> = CombTrace::interleave(&gens, *mult, per_table, 7)
            .map(|l| mapper.translate(l).get())
            .collect();
        let mut row = vec![name.clone()];
        for mib in [8u64, 16, 32, 64] {
            let mut cache = SetAssocCache::new(CacheConfig::new(mib * MIB, 64, 4))
                .expect("valid cache geometry");
            row.push(pct(cache.run_trace(phys.iter().copied())));
        }
        ta.push_row(row);
    }
    result.tables.push(ta);

    // --- (b) spatial: line-size sweep at 16 MiB, Comb-8.
    let mut tb = TextTable::new(
        "(b) hit rate vs line size (16 MiB, Comb-8)",
        &["line", "4-way LRU", "fully associative"],
    );
    let gens = production_tables(0x000f_1607);
    let mut mapper = PageMapper::new(1 << 24, 77);
    let phys: Vec<u64> = CombTrace::interleave(&gens, 1, total_lookups / 8, 7)
        .map(|l| mapper.translate(l).get())
        .collect();
    for line in [64u64, 128, 256, 512] {
        let mut sa =
            SetAssocCache::new(CacheConfig::new(16 * MIB, line, 4)).expect("valid cache geometry");
        let mut fa = FullyAssocLru::new(16 * MIB, line).expect("valid cache geometry");
        tb.push_row(vec![
            format!("{line} B"),
            pct(sa.run_trace(phys.iter().copied())),
            pct(fa.run_trace(phys.iter().copied())),
        ]);
    }
    result.tables.push(tb);
    result.notes.push(
        "Paper anchors: random <5%; production combinations 20-60%, increasing with \
         capacity, decreasing with line size (also fully-associative) — no spatial \
         locality."
            .into(),
    );
    result
}

fn random_trace_hit_rate(capacity: u64, line: u64, lookups: usize) -> f64 {
    use rand::RngCore;
    let mut cache = SetAssocCache::new(CacheConfig::new(capacity, line, 4)).expect("valid");
    let mut rng = recnmp_types::rng::DetRng::seed(0xabcd);
    // 8 tables x 64 MB of random lookups.
    let span = 8 * 64_000_000u64;
    let mut hits = 0u64;
    for _ in 0..lookups {
        let addr = (rng.next_u64() % (span / 64)) * 64;
        if cache.access(addr).is_hit() {
            hits += 1;
        }
    }
    hits as f64 / lookups as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_has_all_operators() {
        let r = fig01_footprint();
        assert_eq!(r.tables[0].rows.len(), 16);
    }

    #[test]
    fn fig01_lift_is_8x_in_memory_region() {
        let r = fig01_roofline_lift();
        assert_eq!(r.tables[0].rows[1][3], "8.00x"); // OI = 0.25
    }

    #[test]
    fn fig04_has_16_rows() {
        let r = fig04_breakdown();
        assert_eq!(r.tables[0].rows.len(), 16);
    }

    #[test]
    fn fig06_reports_saturation() {
        let r = fig06_bw_saturation();
        assert_eq!(r.tables[0].rows.len(), 9);
    }

    #[test]
    fn fig07_temporal_hit_rates_increase_with_capacity() {
        let r = fig07_locality(Scale::Quick);
        // Comb-8 row: hit rate at 64 MiB above hit rate at 8 MiB.
        let comb8 = &r.tables[0].rows[1];
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        assert!(parse(&comb8[4]) > parse(&comb8[1]), "{comb8:?}");
        // Random row stays under 5%.
        let rand = &r.tables[0].rows[0];
        assert!(parse(&rand[4]) < 5.0, "{rand:?}");
    }

    #[test]
    fn fig07_spatial_hit_rates_decrease_with_line_size() {
        let r = fig07_locality(Scale::Quick);
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let rows = &r.tables[1].rows;
        assert!(
            parse(&rows[3][1]) < parse(&rows[0][1]),
            "set-assoc: {rows:?}"
        );
        assert!(
            parse(&rows[3][2]) < parse(&rows[0][2]),
            "fully-assoc: {rows:?}"
        );
    }
}
