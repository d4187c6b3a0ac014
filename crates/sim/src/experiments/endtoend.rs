//! End-to-end experiments (Figures 17 and 18).

use recnmp::RecNmpConfig;
use recnmp_model::{CpuPerfModel, RecModelKind};

use super::{ExperimentResult, Scale};
use crate::colocation::ColocationModel;
use crate::render::{f2, pct, x2, TextTable};
use crate::speedup::SpeedupEngine;
use crate::workload::TraceKind;

/// Figure 17: co-located TopFC latency, baseline vs RecNMP.
pub fn fig17_fc_colocation() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig17_fc_colocation",
        "Figure 17: TopFC latency under model co-location",
    );
    let perf = CpuPerfModel::table1();
    for kind in [RecModelKind::Rm2Small, RecModelKind::Rm2Large] {
        let cfg = kind.config();
        let mut t = TextTable::new(
            format!("{} TopFC (batch 64)", kind.name()),
            &[
                "co-located",
                "pooling",
                "baseline (us)",
                "RecNMP (us)",
                "RecNMP gain",
            ],
        );
        for co in [1usize, 2, 4, 8] {
            for pooling in [20usize, 80] {
                let mut c = cfg.clone();
                c.pooling = pooling;
                let base = perf.breakdown_colocated(&c, 64, co, false).top_fc_us;
                let nmp = perf.breakdown_colocated(&c, 64, co, true).top_fc_us;
                t.push_row(vec![
                    co.to_string(),
                    pooling.to_string(),
                    f2(base),
                    f2(nmp),
                    pct(1.0 - nmp / base),
                ]);
            }
        }
        result.tables.push(t);
    }
    result.notes.push(
        "Paper anchors: offloading SLS relieves 12-30% of co-located TopFC latency for \
         LLC-resident weights (RM2), ~4% for L2-resident FCs."
            .into(),
    );
    result
}

/// SLS memory-latency speedups per rank count, measured by the
/// cycle-level engine with full optimizations (feeds Figure 18).
fn sls_speedups_by_rank(scale: Scale) -> [(u8, u8, f64); 3] {
    let rounds = scale.scaled(2, 6);
    let batch = scale.scaled(32, 32);
    let e = SpeedupEngine::with_workload(TraceKind::Production, 8, rounds, batch, 0x18);
    let mut out = [(1u8, 2u8, 0.0f64), (2, 2, 0.0), (4, 2, 0.0)];
    for slot in &mut out {
        let mut cfg = RecNmpConfig::optimized(slot.0, slot.1);
        cfg.refresh = false;
        let cmp = e.compare(&cfg).expect("valid config");
        slot.2 = cmp.speedup();
    }
    out
}

/// Figure 18: end-to-end speedup and co-location trade-offs.
pub fn fig18_end2end(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig18_end2end",
        "Figure 18: end-to-end model speedup and co-location trade-off",
    );
    let perf = CpuPerfModel::table1();
    let speedups = sls_speedups_by_rank(scale);

    // (a) model x rank count at batch 256.
    let mut ta = TextTable::new(
        "(a) end-to-end speedup (batch 256)",
        &["model", "2-rank", "4-rank", "8-rank"],
    );
    for kind in RecModelKind::ALL {
        let cfg = kind.config();
        let mut row = vec![kind.name().to_string()];
        for (_, _, sls) in speedups {
            row.push(x2(perf.end_to_end_speedup(&cfg, 256, 1, sls)));
        }
        ta.push_row(row);
    }
    result.tables.push(ta);

    // (b) batch sweep at 8 ranks.
    let sls8 = speedups[2].2;
    let mut tb = TextTable::new(
        "(b) end-to-end speedup vs batch size (8-rank)",
        &["model", "batch 8", "batch 64", "batch 128", "batch 256"],
    );
    for kind in RecModelKind::ALL {
        let cfg = kind.config();
        let mut row = vec![kind.name().to_string()];
        for batch in [8usize, 64, 128, 256] {
            row.push(x2(perf.end_to_end_speedup(&cfg, batch, 1, sls8)));
        }
        tb.push_row(row);
    }
    result.tables.push(tb);

    // (c) co-location latency/throughput, host vs RecNMP-opt.
    let colo = ColocationModel::table1();
    for kind in [RecModelKind::Rm1Large, RecModelKind::Rm2Small] {
        let cfg = kind.config();
        let mut tc = TextTable::new(
            format!("(c) co-location trade-off, {} (batch 256)", kind.name()),
            &[
                "co-located",
                "host lat (ms)",
                "host qps",
                "NMP lat (ms)",
                "NMP qps",
                "speedup",
            ],
        );
        let host = colo.curve(&cfg, 256, 8, TraceKind::Production, None);
        let nmp = colo.curve(&cfg, 256, 8, TraceKind::Production, Some(sls8));
        for (h, n) in host.iter().zip(&nmp) {
            tc.push_row(vec![
                h.co_located.to_string(),
                f2(h.latency_us / 1000.0),
                format!("{:.0}", h.throughput_qps),
                f2(n.latency_us / 1000.0),
                format!("{:.0}", n.throughput_qps),
                x2(h.latency_us / n.latency_us),
            ]);
        }
        result.tables.push(tc);
    }
    result.notes.push(format!(
        "Measured SLS speedups feeding this figure: 2-rank {:.2}x, 4-rank {:.2}x, \
         8-rank {:.2}x. Paper anchors: end-to-end up to 4.2x (RM2-large, 8-rank); \
         co-located RM1-large 2.8-3.5x, RM2-small 3.2-4.0x.",
        speedups[0].2, speedups[1].2, speedups[2].2
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_x(s: &str) -> f64 {
        s.trim_end_matches('x').parse().unwrap()
    }

    #[test]
    fn fig17_relief_band() {
        let r = fig17_fc_colocation();
        // RM2-large, co=8, pooling 80 row: relief within the paper band.
        let big = &r.tables[1].rows;
        let last = big.last().unwrap();
        let relief: f64 = last[4].trim_end_matches('%').parse().unwrap();
        assert!((8.0..35.0).contains(&relief), "{relief}");
    }

    #[test]
    fn fig18a_speedups_ordered_by_rank_count() {
        let r = fig18_end2end(Scale::Quick);
        for row in &r.tables[0].rows {
            let two = parse_x(&row[1]);
            let eight = parse_x(&row[3]);
            assert!(eight > two, "{row:?}");
            assert!(eight > 1.0 && eight < 8.0, "{row:?}");
        }
    }

    #[test]
    fn fig18b_speedup_grows_with_batch() {
        let r = fig18_end2end(Scale::Quick);
        for row in &r.tables[1].rows {
            assert!(parse_x(&row[4]) >= parse_x(&row[1]) * 0.95, "{row:?}");
        }
    }

    #[test]
    fn fig18c_nmp_dominates() {
        let r = fig18_end2end(Scale::Quick);
        for table in &r.tables[2..4] {
            for row in &table.rows {
                assert!(parse_x(&row[5]) > 1.0, "{row:?}");
            }
        }
    }
}
