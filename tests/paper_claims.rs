//! Reproduction bands for the paper's headline claims.
//!
//! The absolute numbers cannot match the authors' testbed exactly (our
//! substrate is an independent simulator and the production traces are
//! synthetic substitutes), so each claim is asserted as a band around the
//! published value. The figures these claims come from are pinned
//! under `goldens/` (`golden_check --update` rewrites them).

use recnmp::energy::{energy_saving, host_energy, nmp_energy, NmpEnergyParams};
use recnmp::RecNmpConfig;
use recnmp_dram::EnergyParams;
use recnmp_model::{CpuPerfModel, RecModelKind};
use recnmp_sim::speedup::SpeedupEngine;
use recnmp_sim::workload::TraceKind;

fn quiet(mut cfg: RecNmpConfig) -> RecNmpConfig {
    cfg.refresh = false;
    cfg
}

fn engine() -> SpeedupEngine {
    SpeedupEngine::with_workload(TraceKind::Production, 8, 2, 32, 0xc1a)
}

#[test]
fn claim_sls_memory_latency_speedup() {
    // Paper: RecNMP-base 6.1x, RecNMP-opt 9.8x on 8 ranks.
    let e = engine();
    let base = e
        .compare(&quiet(RecNmpConfig::with_ranks(4, 2)))
        .expect("base run");
    let opt = e
        .compare(&quiet(RecNmpConfig::optimized(4, 2)))
        .expect("opt run");
    assert!(
        (4.0..8.0).contains(&base.speedup()),
        "RecNMP-base speedup {:.2} (paper 6.1x)",
        base.speedup()
    );
    assert!(
        (6.5..11.5).contains(&opt.speedup()),
        "RecNMP-opt speedup {:.2} (paper 9.8x)",
        opt.speedup()
    );
    assert!(opt.speedup() > base.speedup());
}

#[test]
fn claim_end_to_end_throughput_improvement() {
    // Paper: up to 4.2x end-to-end (RM2-large, 8 ranks, large batch).
    let e = engine();
    let opt = e
        .compare(&quiet(RecNmpConfig::optimized(4, 2)))
        .expect("opt run");
    let perf = CpuPerfModel::table1();
    let s = perf.end_to_end_speedup(&RecModelKind::Rm2Large.config(), 256, 1, opt.speedup());
    assert!((3.0..5.5).contains(&s), "end-to-end {s:.2} (paper 4.2x)");
    // And the ordering across models holds (Figure 18(a)).
    let small = perf.end_to_end_speedup(&RecModelKind::Rm1Small.config(), 256, 1, opt.speedup());
    assert!(s > small, "RM2-large {s:.2} <= RM1-small {small:.2}");
}

#[test]
fn claim_memory_energy_saving() {
    // Paper: 45.8% memory energy saving.
    let e = engine();
    let cmp = e
        .compare(&quiet(RecNmpConfig::optimized(4, 2)))
        .expect("opt run");
    let dram = EnergyParams::table1();
    let nmp = NmpEnergyParams::table1();
    let host_e = host_energy(&cmp.baseline.dram, &dram);
    let nmp_e = nmp_energy(&cmp.nmp, &dram, &nmp);
    let saving = energy_saving(&host_e, &nmp_e);
    assert!(
        (0.30..0.70).contains(&saving),
        "energy saving {:.1}% (paper 45.8%)",
        100.0 * saving
    );
}

#[test]
fn claim_fc_colocation_relief() {
    // Paper: up to 30% TopFC latency reduction for co-located RM2 models.
    let perf = CpuPerfModel::table1();
    let cfg = RecModelKind::Rm2Large.config();
    let base = perf.breakdown_colocated(&cfg, 64, 8, false).top_fc_us;
    let relieved = perf.breakdown_colocated(&cfg, 64, 8, true).top_fc_us;
    let relief = 1.0 - relieved / base;
    assert!(
        (0.10..0.35).contains(&relief),
        "relief {:.1}%",
        100.0 * relief
    );
    // Small (L2-resident) FCs see only ~4%.
    let small_cfg = RecModelKind::Rm1Small.config();
    let b = perf.breakdown_colocated(&small_cfg, 64, 8, false).top_fc_us;
    let r = perf.breakdown_colocated(&small_cfg, 64, 8, true).top_fc_us;
    assert!(1.0 - r / b < 0.08, "small-FC relief {:.3}", 1.0 - r / b);
}

#[test]
fn claim_area_power_overhead() {
    // Paper Table II: 0.34/0.54 mm2 and 151.3/184.2 mW per PU; a small
    // fraction of Chameleon's CGRA cost.
    use recnmp::physical::{PuPhysical, CHAMELEON_PU};
    let opt = PuPhysical::estimate(&RecNmpConfig::optimized(1, 2));
    assert!((opt.area_mm2 - 0.54).abs() < 1e-9);
    assert!((opt.power_mw - 184.2).abs() < 1e-9);
    assert!(opt.area_mm2 / CHAMELEON_PU.area_mm2 < 0.08);
}

#[test]
fn claim_comparator_margins() {
    // Paper: RecNMP beats TensorDIMM by 2.4-4.8x and Chameleon by
    // 3.3-6.4x when ranks per DIMM scale (Figure 16). Bands widened for
    // the synthetic traces.
    let e = engine();
    let cfg = quiet(RecNmpConfig::optimized(4, 2));
    let nmp = e.run_nmp(&cfg).expect("nmp").cycles_per_lookup();
    let td = e.run_tensordimm(&cfg).expect("td").cycles_per_lookup();
    let ch = e.run_chameleon(&cfg).expect("ch").cycles_per_lookup();
    let vs_td = td / nmp;
    let vs_ch = ch / nmp;
    assert!((1.5..6.0).contains(&vs_td), "vs TensorDIMM {vs_td:.2}");
    assert!((2.0..8.0).contains(&vs_ch), "vs Chameleon {vs_ch:.2}");
    assert!(vs_ch > vs_td);
}

#[test]
fn claim_production_traces_help_recnmp_only() {
    // Paper: RecNMP extracts ~40% more from production traces than random
    // ones; the cache-less comparators are locality-agnostic.
    let prod = SpeedupEngine::with_workload(TraceKind::Production, 8, 2, 32, 0xaa);
    let rand = SpeedupEngine::with_workload(TraceKind::Random, 8, 2, 32, 0xaa);
    let cfg = quiet(RecNmpConfig::optimized(4, 2));
    let nmp_gain = rand.run_nmp(&cfg).expect("nmp rand").cycles_per_lookup()
        / prod.run_nmp(&cfg).expect("nmp prod").cycles_per_lookup();
    let td_gain = rand
        .run_tensordimm(&cfg)
        .expect("td rand")
        .cycles_per_lookup()
        / prod
            .run_tensordimm(&cfg)
            .expect("td prod")
            .cycles_per_lookup();
    assert!(nmp_gain > 1.10, "RecNMP locality gain {nmp_gain:.2}");
    assert!(
        (0.9..1.15).contains(&td_gain),
        "TensorDIMM should be locality-agnostic: {td_gain:.2}"
    );
}
