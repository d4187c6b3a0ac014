//! The fleet-scaling experiment: knee QPS vs node count, pure sharding
//! vs cross-node hot-table replication.

use super::serving::knee_note;
use super::{ExperimentResult, Scale};
use crate::render::{f2, TextTable};
use crate::serving::fleet::{Fleet, FleetDispatch};
use crate::serving::{anchored_sweep, ArrivalProcess, QueryShape, SweepCurve, SweepSpec};

const SEED: u64 = 0xf1ee7;

/// The fleet workload: skewed (Zipf 1.2) sampled-table queries. Full
/// scale carries enough distinct tables (128 over the 16-node fleet's
/// 64 channels) that single-copy tables can spread across the whole
/// fleet instead of bottlenecking on one channel.
pub fn fleet_shape(scale: Scale) -> QueryShape {
    match scale {
        Scale::Quick => QueryShape::new(12, 2, 6).with_table_sampling(3),
        Scale::Full => QueryShape::new(128, 4, 8).with_table_sampling(4),
    }
    .with_table_skew(1.2)
}

/// How many of the hottest tables the replicated configuration copies
/// onto every node. Full scale replicates a deeper slice of the Zipf
/// head: at 16 nodes a single-copy hot table's one channel would
/// otherwise cap the whole fleet.
pub fn hot_tables(scale: Scale) -> usize {
    scale.scaled(2, 8)
}

/// Fleet scaling (our fleet figure): 1→N reference 4-channel nodes at
/// fixed per-node capacity, serving a skewed sampled-table workload
/// under two node-placement flavors:
///
/// * **fleet-sharded** — every table lives on exactly one node, so the
///   node owning the hottest tables caps the whole fleet;
/// * **fleet-replicated(k)** — the k hottest tables (2 quick, 8 full)
///   are replicated onto every node and the router rotates their
///   traffic, so top-load traffic scales with the fleet.
///
/// Both flavors are swept at the same absolute offered loads (fractions
/// of the replicated configuration's saturation — the informed anchor,
/// as in the tiering sweep), so knee QPS and p99-at-fixed-load compare
/// directly, and the knee-vs-nodes series is the scaling claim: the
/// replicated knee grows near-linearly while pure sharding flattens at
/// the hottest node's capacity.
pub(super) fn fig_fleet(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig_fleet",
        "Fleet scaling: knee QPS vs node count, sharding vs hot-table replication",
    );
    let shape = fleet_shape(scale);
    let node_counts: &[usize] = match scale {
        Scale::Quick => &[1, 2, 4],
        Scale::Full => &[1, 2, 4, 8, 16],
    };
    // Offered work scales with the fleet: a fixed query count would
    // leave a 16-node fleet mostly idle and measure per-query latency
    // instead of capacity, so both the saturation probe and the measured
    // points grow linearly in nodes.
    let queries_per_node = scale.scaled(12, 48);
    let probe_per_node = scale.scaled(8, 16);
    let hot = hot_tables(scale);
    let dispatches = [FleetDispatch::replicated(hot), FleetDispatch::sharded()];

    let mut table = TextTable::new(
        format!(
            "reference 4-channel nodes, skewed sampled-table queries, \
             {queries_per_node}x nodes queries/point"
        ),
        &[
            "nodes",
            "placement",
            "util",
            "offered qps",
            "achieved qps",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "sustained",
        ],
    );
    // (nodes, replicated-knee qps) series for the scaling note, and the
    // largest fleet's curves for the replication-vs-sharding note.
    let mut replicated_knees: Vec<(usize, f64)> = Vec::new();
    let mut top_curves: Vec<SweepCurve<FleetDispatch>> = Vec::new();
    for &nodes in node_counts {
        let spec = SweepSpec {
            process: ArrivalProcess::Poisson,
            shape,
            utilizations: vec![0.5, 0.9, 1.3],
            queries: queries_per_node * nodes,
            probe_queries: probe_per_node * nodes,
            seed: SEED,
        };
        let mut make = move || Fleet::reference(nodes);
        let curves =
            anchored_sweep(&mut make, dispatches[0], &dispatches, &spec).expect("fleet sweep");
        for curve in &curves {
            for p in &curve.points {
                let (p50, p95, p99) = p.summary.percentiles_us();
                table.push_row(vec![
                    nodes.to_string(),
                    curve.arm.label(),
                    f2(p.utilization),
                    format!("{:.0}", p.offered_qps),
                    format!("{:.0}", p.achieved_qps),
                    f2(p50),
                    f2(p95),
                    f2(p99),
                    if p.sustained() { "yes" } else { "no" }.to_string(),
                ]);
            }
            let label = format!("{} [{nodes} node(s)]", curve.system);
            result
                .notes
                .push(knee_note(&label, &curve.arm.label(), curve));
        }
        replicated_knees.push((nodes, curves[0].knee_qps()));
        if nodes == *node_counts.last().unwrap() {
            top_curves = curves;
        }
    }
    result.tables.push(table);

    let (first_n, first_knee) = replicated_knees[0];
    let (last_n, last_knee) = *replicated_knees.last().unwrap();
    result.notes.push(format!(
        "fleet scaling ({}): replicated knee {:.0} qps at {first_n} node(s) -> {:.0} qps \
         at {last_n} node(s), ratio {:.1}x",
        dispatches[0].label(),
        first_knee,
        last_knee,
        if first_knee > 0.0 {
            last_knee / first_knee
        } else {
            0.0
        },
    ));
    result.notes.push(format!(
        "replication vs sharding at {last_n} node(s), fixed loads: knee {:.0} vs {:.0} qps, \
         p99 at the top load {} vs {} cycles — replicating the {hot} hottest tables \
         gives top-load traffic a home on every node, while pure sharding pins it to one",
        top_curves[0].knee_qps(),
        top_curves[1].knee_qps(),
        top_curves[0].top_p99(),
        top_curves[1].top_p99(),
    ));
    result.notes.push(
        "Open-loop Poisson arrivals over a two-level placement (tables -> nodes -> \
         channels). Every query samples its tables by popularity, scatters to the owning \
         nodes, pays the per-node gather on each and one base-plus-per-byte network \
         gather over the pooled result bytes (waived at one node, where the router is \
         co-located). Per-node capacity is fixed: the x axis adds nodes, never channels."
            .into(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The highest sustained offered load of one (nodes, placement)
    /// series in the result table.
    fn knee_of(r: &ExperimentResult, nodes: usize, placement: &str) -> f64 {
        r.tables[0]
            .rows
            .iter()
            .filter(|row| row[0] == nodes.to_string() && row[1] == placement && row[8] == "yes")
            .map(|row| row[3].parse::<f64>().unwrap())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fleet_experiment_scales_the_knee_with_nodes() {
        let r = fig_fleet(Scale::Quick);
        // 3 node counts x 2 placements x 3 load points.
        assert_eq!(r.tables[0].rows.len(), 18);
        let one = knee_of(&r, 1, "fleet-replicated(2)");
        let four = knee_of(&r, 4, "fleet-replicated(2)");
        assert!(one > 0.0, "1-node fleet must sustain its lightest load");
        // Half of linear scaling is the same bar the full-scale
        // acceptance sets (8x at 16 nodes).
        assert!(
            four >= 2.0 * one,
            "4-node knee {four} must be at least twice the 1-node knee {one}"
        );
    }

    #[test]
    fn replication_beats_pure_sharding_at_scale() {
        let r = fig_fleet(Scale::Quick);
        let repl = knee_of(&r, 4, "fleet-replicated(2)");
        let shard = knee_of(&r, 4, "fleet-sharded");
        let p99 = |placement: &str| {
            r.tables[0]
                .rows
                .iter()
                .rev()
                .find(|row| row[0] == "4" && row[1] == placement)
                .map(|row| row[7].parse::<f64>().unwrap())
                .unwrap()
        };
        assert!(
            repl > shard || p99("fleet-replicated(2)") < p99("fleet-sharded"),
            "replication must beat sharding: knees {repl} vs {shard}, \
             p99 {} vs {}",
            p99("fleet-replicated(2)"),
            p99("fleet-sharded")
        );
    }

    #[test]
    fn fleet_experiment_is_deterministic() {
        let a = fig_fleet(Scale::Quick);
        let b = fig_fleet(Scale::Quick);
        assert_eq!(a, b);
    }
}
