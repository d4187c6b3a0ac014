//! Cross-crate acceptance tests for the placement subsystem: on a
//! Zipf-skewed multi-table workload served by a multi-channel cluster,
//! frequency-balanced placement must strictly beat the legacy hash
//! placement — a higher saturation knee, or a lower p99 at the same
//! offered load. This is the end-to-end claim the `fig19_placement`
//! golden pins.

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::{PlacementPlan, PlacementPolicy, SlsBackend, TableUsage};
use recnmp_sim::serving::{
    anchored_sweep, ArrivalProcess, QueryShape, QueryStream, ServingMode, SweepCurve, SweepSpec,
};

/// A fast cluster (refresh off) with `channels` channels of 1 DIMM x 2
/// ranks.
fn cluster(channels: usize) -> Box<dyn SlsBackend> {
    let config = RecNmpClusterConfig::builder()
        .channels(channels)
        .dimms(1)
        .ranks_per_dimm(2)
        .refresh(false)
        .build()
        .unwrap();
    Box::new(RecNmpCluster::new(config).unwrap())
}

/// The skewed workload: 8 tables whose per-table traffic follows
/// `(t+1)^-1.5` — a few tables carry most lookups, as in Figure 7.
fn skewed_shape() -> QueryShape {
    QueryShape::reference_skewed()
}

fn sweep(channels: usize) -> Vec<SweepCurve> {
    let spec = SweepSpec {
        process: ArrivalProcess::Uniform,
        shape: skewed_shape(),
        utilizations: vec![0.5, 0.9, 1.3],
        queries: 24,
        probe_queries: 8,
        seed: 71,
    };
    let arms = [
        PlacementPolicy::Hash,
        PlacementPolicy::FrequencyBalanced { replicate: 1 },
    ]
    .map(ServingMode::sharded);
    anchored_sweep(&mut || cluster(channels), arms[0], &arms, &spec).unwrap()
}

#[test]
fn frequency_balanced_beats_hash_on_skewed_traffic() {
    let curves = sweep(4);
    let (hash, freq) = (&curves[0], &curves[1]);
    // Same absolute load axis by construction.
    for (h, f) in hash.points.iter().zip(&freq.points) {
        assert_eq!(h.offered_qps, f.offered_qps);
    }
    // Balancing never costs capacity: the frequency knee is at least the
    // hash knee on the shared load axis.
    assert!(
        freq.knee_qps() >= hash.knee_qps(),
        "frequency knee regressed: {} vs {}",
        freq.knee_qps(),
        hash.knee_qps()
    );
    // And at the overloaded top point the balanced plan's tail is
    // strictly shorter — the hash bottleneck channel queues without
    // bound first.
    assert!(
        freq.top_p99() < hash.top_p99(),
        "overload p99: freq {} vs hash {}",
        freq.top_p99(),
        hash.top_p99()
    );
}

#[test]
fn placement_advantage_holds_on_two_channels() {
    // The acceptance bar names a >=2-channel cluster; check the
    // minimal geometry too.
    let curves = sweep(2);
    let (hash, freq) = (&curves[0], &curves[1]);
    assert!(
        freq.knee_qps() > hash.knee_qps() || freq.top_p99() < hash.top_p99(),
        "2-channel: knees {} vs {}, top-load p99 {} vs {}",
        freq.knee_qps(),
        hash.knee_qps(),
        freq.top_p99(),
        hash.top_p99()
    );
}

#[test]
fn plan_imbalance_explains_the_serving_win() {
    // The mechanism, checked directly: on the same query stream the
    // frequency-balanced plan spreads hot traffic strictly more evenly
    // than the hash plan.
    let shape = skewed_shape();
    let queries = QueryStream::new(shape, 71).take_queries(24);
    let usage = TableUsage::from_traces(&queries);
    let hash = PlacementPlan::build(4, None, &usage, PlacementPolicy::Hash).unwrap();
    let freq = PlacementPlan::build(
        4,
        None,
        &usage,
        PlacementPolicy::FrequencyBalanced { replicate: 1 },
    )
    .unwrap();
    assert!(
        freq.load_imbalance() < hash.load_imbalance(),
        "freq imbalance {} vs hash {}",
        freq.load_imbalance(),
        hash.load_imbalance()
    );
    // Every table is placed, and the replicated hot table spans several
    // distinct channels.
    for u in &usage {
        assert!(!freq.replicas(u.table).is_empty());
    }
    let hottest = usage.iter().max_by_key(|u| u.accesses).unwrap().table;
    let reps = freq.replicas(hottest);
    assert!(reps.len() > 1);
    let distinct: std::collections::BTreeSet<_> = reps.iter().collect();
    assert_eq!(distinct.len(), reps.len());
}
