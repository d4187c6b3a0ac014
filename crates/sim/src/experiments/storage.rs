//! Capacity experiment: serving behaviour as the embedding footprint
//! outgrows DRAM and spills onto the SSD-class near-data tier.
//!
//! This is the reproduction's own extension past the paper (like
//! `fig19_placement`): RecNMP assumes the model fits in memory, while
//! production footprints grow toward terabytes. The tiered hierarchy
//! (RecSSD-style in-storage SLS under RecFlash-style frequency-tiered
//! placement) answers the question Figure 1's footprint analysis raises
//! — what happens to the serving knee when it no longer fits?

use recnmp_backend::{
    MigrationCost, PromotionPolicy, StorageTier, TierSpec, TieredPlacementPlan, TieredPolicy,
};
use recnmp_types::ByteSize;

use super::serving::{knee_note, push_curve_rows};
use super::{ExperimentResult, Scale};
use crate::render::{f2, TextTable};
use crate::serving::{
    anchored_sweep, reference_tiered, saturation_qps, serve, ArrivalProcess, EpochPromotion,
    QueryShape, QueryStream, ServingConfig, ServingMode, SweepCurve, SweepSpec, TieredDispatch,
};

const SEED: u64 = 0x57a8;

/// Geometry of the capacity sweep's serving system.
const DRAM_CHANNELS: usize = 4;
const SSD_UNITS: usize = 2;

/// Tables of the capacity workload and the footprint of each
/// (`EmbeddingTableSpec::dlrm_default()`: one million 128-byte rows —
/// the spec `QueryStream` generates against).
const TABLES: usize = 16;
const TABLE_BYTES: u64 = 128_000_000;

/// The capacity workload's model footprint: 2.048 GB.
pub const FOOTPRINT_BYTES: u64 = TABLES as u64 * TABLE_BYTES;

/// Footprint-to-DRAM ratios swept, as (numerator, denominator, label):
/// at 0.5x everything fits twice over, at 1x exactly, at 8x no single
/// table fits any channel and both policies degenerate to all-SSD.
pub const RATIOS: [(u64, u64, &str); 5] = [
    (1, 2, "0.5x"),
    (1, 1, "1x"),
    (2, 1, "2x"),
    (4, 1, "4x"),
    (8, 1, "8x"),
];

/// The tier geometry at footprint/DRAM ratio `num/den`: total DRAM
/// capacity is `footprint * den / num`, split evenly across the
/// channels; the SSD units are always large enough for the whole model.
pub fn tiers_at(num: u64, den: u64) -> TierSpec {
    TierSpec {
        dram_channels: DRAM_CHANNELS,
        dram_channel_capacity: ByteSize::bytes(
            FOOTPRINT_BYTES * den / (num * DRAM_CHANNELS as u64),
        ),
        ssd_units: SSD_UNITS,
        ssd_unit_capacity: ByteSize::gib(4),
    }
}

/// The capacity workload: each query samples 4 of the 16 tables with
/// traffic weights `(rank+1)^-1.5`, hot ranks strided across the id
/// space (stride 5, coprime to 16) so id-ordered hash placement does
/// not get the frequency ordering for free. Sampling is what makes the
/// capacity story graceful: a query whose tables all live in DRAM never
/// touches the SSD tier, so spilling the cold tail slows only the
/// queries that actually reference it.
pub fn capacity_shape(scale: Scale) -> QueryShape {
    match scale {
        Scale::Quick => QueryShape::new(TABLES, 2, 4),
        Scale::Full => QueryShape::new(TABLES, 4, 8),
    }
    .with_table_skew(1.5)
    .with_skew_rotation(5)
    .with_table_sampling(4)
}

/// Capacity sweep (our `fig_capacity`): knee QPS and tail latency as the
/// embedding footprint sweeps 0.5x–8x of DRAM capacity on a 4-channel +
/// 2-SSD tiered system, hash vs frequency-tiered placement, plus an
/// epoch-promotion demonstration at the 4x point.
pub(super) fn fig_capacity(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig_capacity",
        "Capacity sweep (tiered storage): serving knee vs footprint/DRAM ratio",
    );
    let shape = capacity_shape(scale);
    let spec = SweepSpec {
        process: ArrivalProcess::Poisson,
        shape,
        utilizations: match scale {
            Scale::Quick => vec![0.4, 0.8, 1.2],
            Scale::Full => vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
        },
        queries: scale.scaled(14, 32),
        probe_queries: scale.scaled(6, 10),
        seed: SEED,
    };
    // The static profile both placement policies see: the sweep's own
    // query stream, so the plan split reported here is exactly the one
    // the curves were served under.
    let usage = QueryStream::new(shape, SEED).table_profile(spec.queries);

    let mut knees = TextTable::new(
        format!(
            "tiered[{DRAM_CHANNELS}+{SSD_UNITS}]: knee vs footprint ratio, {} tables x {} MB",
            TABLES,
            TABLE_BYTES / 1_000_000
        ),
        &[
            "footprint/DRAM",
            "policy",
            "saturation qps",
            "knee qps",
            "p99@top (us)",
            "DRAM tables",
            "DRAM traffic",
        ],
    );
    let mut points = TextTable::new(
        format!(
            "tiered[{DRAM_CHANNELS}+{SSD_UNITS}]: sweep points, {} queries/point",
            spec.queries
        ),
        &[
            "ratio",
            "policy",
            "util",
            "offered qps",
            "achieved qps",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "sustained",
        ],
    );

    for (num, den, label) in RATIOS {
        let tiers = tiers_at(num, den);
        let mut factory = || reference_tiered(tiers);
        // Frequency-tiered anchors: it is the policy with a meaningful
        // knee once the footprint exceeds DRAM.
        let anchor = ServingMode::tiered(TieredPolicy::FrequencyTiered { replicate_hot: 0 }, tiers);
        let arms = TieredPolicy::COMPARED.map(|policy| ServingMode::tiered(policy, tiers));
        let curves = anchored_sweep(&mut factory, anchor, &arms, &spec).expect("tiered sweep");
        for curve in &curves {
            let policy = match curve.arm {
                ServingMode::Tiered(t) => t.policy,
                _ => unreachable!("tiered sweeps return tiered modes"),
            };
            let plan = TieredPlacementPlan::build(tiers, &usage, policy).expect("tiered plan");
            let top = curve.points.last().expect("sweep points");
            knees.push_row(vec![
                label.to_string(),
                curve.arm.name().to_string(),
                format!("{:.0}", curve.saturation_qps),
                curve
                    .knee()
                    .map_or("none".to_string(), |p| format!("{:.0}", p.offered_qps)),
                f2(top.summary.percentiles_us().2),
                format!("{}", plan.tables_in(StorageTier::Dram)),
                format!("{:.0}%", 100.0 * plan.load_share(StorageTier::Dram)),
            ]);
            push_points_with_ratio(&mut points, label, curve);
            result.notes.push(knee_note(label, curve.arm.name(), curve));
        }
    }
    result.tables.push(knees);
    result.tables.push(points);
    result.tables.push(promotion_demo(scale, shape));

    result.notes.push(
        "Each ratio divides the same 2.048 GB model footprint by the DRAM capacity; every \
         query samples 4 of 16 tables with Zipf-1.5 weights whose hot ranks are strided \
         across table ids (stride 5). Frequency-tiered placement keeps the hot head in \
         DRAM, so most queries never touch the SSD units and the knee degrades with a \
         graceful slope; hash placement strands hot tables on SSD, so nearly every query \
         pays the flash read path and the knee collapses toward the all-SSD floor."
            .into(),
    );
    result
}

/// Rows of one ratio's curve, prefixed with the ratio label.
fn push_points_with_ratio(table: &mut TextTable, label: &str, curve: &SweepCurve) {
    let mut scratch = TextTable::new(
        "",
        &table.headers[1..]
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    push_curve_rows(&mut scratch, curve);
    for mut row in scratch.rows {
        row.insert(0, label.to_string());
        table.push_row(row);
    }
}

/// The epoch-promotion demonstration at the 4x point: serving starts
/// from the *hash* split (the operator does not know the traffic
/// profile), and epoch rebalances migrate hot tables up — converging
/// toward the frequency-tiered plan while paying modeled migration
/// stalls on the way.
fn promotion_demo(scale: Scale, shape: QueryShape) -> TextTable {
    let tiers = tiers_at(4, 1);
    let queries = scale.scaled(48, 96);
    // The fixed load sits midway between the two static plans'
    // saturation rates: unsustainable for the uninformed hash split,
    // comfortable for the informed frequency split — exactly the regime
    // where learning the split at runtime pays.
    let sat_of = |policy| {
        let mut probe = || reference_tiered(tiers);
        saturation_qps(
            &mut probe,
            ServingMode::tiered(policy, tiers),
            shape,
            scale.scaled(6, 10),
            SEED,
        )
        .expect("saturation probe")
    };
    let hash_sat = sat_of(TieredPolicy::Hash);
    let freq_sat = sat_of(TieredPolicy::FrequencyTiered { replicate_hot: 0 });
    let offered = 0.5 * (hash_sat + freq_sat);

    let mut promote = TieredDispatch::new(TieredPolicy::Hash, tiers);
    promote.promotion = Some(EpochPromotion {
        epoch_queries: scale.scaled(8, 16),
        policy: PromotionPolicy {
            hysteresis_pct: 20,
            // 1 cycle/KiB (~1.2 GB/s at DDR4-2400): promoting one 128 MB
            // table stalls its units for ~125k cycles (~104 us).
            migration: MigrationCost::new(10_000, 1),
        },
    });
    let modes = [
        ServingMode::tiered(TieredPolicy::Hash, tiers),
        ServingMode::Tiered(promote),
        ServingMode::tiered(TieredPolicy::FrequencyTiered { replicate_hot: 0 }, tiers),
    ];

    let mut table = TextTable::new(
        format!(
            "4x footprint, promotion: {queries} queries at {offered:.0} qps \
             (midway between the hash and frequency-tiered saturation rates)"
        ),
        &[
            "mode",
            "achieved qps",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "max (us)",
        ],
    );
    for mode in modes {
        let cfg = ServingConfig {
            process: ArrivalProcess::Poisson,
            qps: offered,
            queries,
            shape,
            mode,
            seed: SEED,
        };
        let mut backend = reference_tiered(tiers);
        let report = serve(backend.as_mut(), &cfg).expect("promotion serve");
        push_latency_row(
            &mut table,
            mode.name(),
            report.achieved_qps(),
            &report.latencies,
        );
        if matches!(mode, ServingMode::Tiered(t) if t.promotion.is_some()) {
            // The steady-state row: the second half of the run, after
            // the epoch rebalances have pulled the hot head into DRAM
            // and paid their migration stalls.
            let half = report.latencies.len() / 2;
            let window: Vec<recnmp_types::Cycle> = report.completions[half..].to_vec();
            let (first, last) = (
                window.iter().copied().min().unwrap_or(0),
                window.iter().copied().max().unwrap_or(0),
            );
            let achieved = if last > first {
                recnmp_types::units::completions_to_qps(window.len() as u64 - 1, last - first)
            } else {
                0.0
            };
            push_latency_row(
                &mut table,
                "tiered-promote (steady)",
                achieved,
                &report.latencies[half..],
            );
        }
    }
    table
}

/// One row of the promotion table from a latency sample.
fn push_latency_row(
    table: &mut TextTable,
    mode: &str,
    achieved: f64,
    latencies: &[recnmp_types::Cycle],
) {
    let s = crate::serving::LatencySummary::from_latencies(latencies);
    let (p50, p95, p99) = s.percentiles_us();
    table.push_row(vec![
        mode.to_string(),
        format!("{achieved:.0}"),
        f2(p50),
        f2(p95),
        f2(p99),
        f2(recnmp_types::units::cycles_to_us(s.max)),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed acceptance claim: at 4x DRAM footprint the
    /// frequency-tiered plan sustains a higher knee and a lower
    /// top-load p99 than hash, and neither collapses to zero.
    #[test]
    fn frequency_tiered_beats_hash_at_4x() {
        let r = fig_capacity(Scale::Quick);
        let knees = &r.tables[0];
        let row = |ratio: &str, policy: &str| {
            knees
                .rows
                .iter()
                .find(|row| row[0] == ratio && row[1] == policy)
                .unwrap_or_else(|| panic!("missing {ratio}/{policy} row"))
        };
        let knee = |row: &Vec<String>| row[3].parse::<f64>().unwrap_or(0.0);
        let p99 = |row: &Vec<String>| row[4].parse::<f64>().unwrap();
        let (hash, freq) = (row("4x", "tiered-hash"), row("4x", "tiered-frequency"));
        assert!(
            knee(freq) > knee(hash),
            "4x knees: frequency {} vs hash {}",
            freq[3],
            hash[3]
        );
        assert!(
            p99(freq) < p99(hash),
            "4x top-load p99: frequency {} vs hash {}",
            freq[4],
            hash[4]
        );
        assert!(knee(freq) > 0.0 && knee(hash) > 0.0, "neither collapses");
    }

    #[test]
    fn capacity_slope_is_graceful_not_a_cliff() {
        let r = fig_capacity(Scale::Quick);
        let knees = &r.tables[0];
        // Frequency-tiered saturation decays monotonically (within 2%
        // measurement slack) as the footprint ratio grows, and even the
        // all-SSD extreme still serves.
        let sats: Vec<f64> = knees
            .rows
            .iter()
            .filter(|row| row[1] == "tiered-frequency")
            .map(|row| row[2].parse::<f64>().unwrap())
            .collect();
        assert_eq!(sats.len(), RATIOS.len());
        // Capacity loss never helps...
        assert!(sats.windows(2).all(|w| w[1] <= w[0] * 1.02), "{sats:?}");
        // ...and once the model has spilled (>= 2x), each further
        // capacity halving costs a bounded factor — a slope, not a
        // cliff — while the first spill point stays well above the
        // all-SSD floor (the frequency split keeps the hot head in
        // DRAM, so entering the flash tier is paid only by the cold
        // tail's queries, not by every query).
        let spill = &sats[2..];
        assert!(spill.windows(2).all(|w| w[1] * 8.0 >= w[0]), "{sats:?}");
        assert!(spill[0] > 3.0 * *sats.last().unwrap(), "{sats:?}");
        assert!(*sats.last().unwrap() > 0.0, "{sats:?}");
        // DRAM holds fewer tables as capacity shrinks; at 8x no table
        // fits and both policies are all-SSD.
        let dram_tables: Vec<usize> = knees
            .rows
            .iter()
            .filter(|row| row[1] == "tiered-frequency")
            .map(|row| row[5].parse::<usize>().unwrap())
            .collect();
        assert!(
            dram_tables.windows(2).all(|w| w[1] <= w[0]),
            "{dram_tables:?}"
        );
        assert!(dram_tables[0] > 0, "{dram_tables:?}");
        assert_eq!(*dram_tables.last().unwrap(), 0, "{dram_tables:?}");
    }

    #[test]
    fn promotion_closes_most_of_the_hash_gap() {
        let r = fig_capacity(Scale::Quick);
        let demo = &r.tables[2];
        assert_eq!(demo.rows.len(), 4, "3 modes + the steady-state row");
        let col = |mode: &str, idx: usize| {
            demo.rows
                .iter()
                .find(|row| row[0] == mode)
                .map(|row| row[idx].parse::<f64>().unwrap())
                .unwrap_or_else(|| panic!("missing {mode} row"))
        };
        let (achieved, p50, p99) = (
            |m: &str| col(m, 1),
            |m: &str| col(m, 2),
            |m: &str| col(m, 4),
        );
        // The offered load sits between the two static saturation rates,
        // so the uninformed hash split falls behind while the informed
        // frequency split keeps up.
        assert!(p99("tiered-frequency") <= p99("tiered-hash"));
        // Promotion starts from that same hash split but learns the
        // traffic: its completion throughput beats static hash, and once
        // the hot head has migrated (second half of the run) its median
        // latency drops below what hash ever reaches.
        assert!(
            achieved("tiered-promote") > achieved("tiered-hash"),
            "promote {} vs hash {} qps",
            achieved("tiered-promote"),
            achieved("tiered-hash")
        );
        assert!(
            p50("tiered-promote (steady)") < p50("tiered-hash"),
            "steady p50 {} vs hash p50 {}",
            p50("tiered-promote (steady)"),
            p50("tiered-hash")
        );
    }

    #[test]
    fn capacity_experiment_is_deterministic() {
        let a = fig_capacity(Scale::Quick);
        let b = fig_capacity(Scale::Quick);
        assert_eq!(a, b);
    }
}
