//! Throughput–latency curves: sweep offered QPS against a backend or a
//! fleet and locate the saturation knee.
//!
//! One driver serves every system under a [`ServingMode`]: a system is
//! anything that becomes a [`Fleet`] (a bare backend is a one-node
//! fleet), served through [`run`]. Three entry points share it, and the
//! `serve_sweep` bench binary and the experiment harness consume them
//! alike:
//!
//! * [`saturation_qps`] — the probe: every query arrives at cycle 0 and
//!   the completion throughput of the busy period is the saturation rate;
//! * [`qps_sweep_at`] — one curve at explicit offered loads, each point
//!   on a fresh system, all points in parallel on the worker pool;
//! * [`anchored_sweep`] — probe the *anchor* mode, then sweep every mode
//!   at the same absolute loads (fractions of the anchor's saturation),
//!   so knee QPS and p99 at a fixed load compare modes like for like.

use recnmp_backend::{PlacementPolicy, SlsBackend, TierSpec};
use recnmp_types::{ByteSize, ConfigError, Cycle, SimError};

use super::arrivals::{ArrivalProcess, QueryShape, QueryStream};
use super::faults::ResilienceConfig;
use super::fleet::Fleet;
use super::policy::{GatherCost, ServingMode, ShardedDispatch};
use super::scheduler::{run, run_at, LatencySummary, ServingConfig};

/// One measured point of a throughput–latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Offered load (queries per simulated second).
    pub offered_qps: f64,
    /// Offered load as a fraction of the curve's reference saturation
    /// rate.
    pub utilization: f64,
    /// Completion throughput actually achieved.
    pub achieved_qps: f64,
    /// Latency distribution at this load.
    pub summary: LatencySummary,
}

impl SweepPoint {
    /// Whether this load was sustained: completion throughput kept up
    /// with at least 90% of the arrival rate (the slack absorbs arrival
    /// jitter over a finite run).
    pub fn sustained(&self) -> bool {
        self.achieved_qps >= 0.90 * self.offered_qps
    }
}

/// One throughput–latency curve: a system under one [`ServingMode`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCurve {
    /// System label ([`ServingRun::system`](super::ServingRun::system)).
    pub system: String,
    /// The mode the curve was measured under.
    pub arm: ServingMode,
    /// Reference saturation throughput (queries per simulated second)
    /// the utilization fractions are anchored to.
    pub saturation_qps: f64,
    /// Measured points, in ascending offered-QPS order.
    pub points: Vec<SweepPoint>,
}

impl SweepCurve {
    /// The saturation knee: the highest offered load the system still
    /// sustained (achieved ≥ 90% of offered). `None` when even the
    /// lightest point was unsustainable.
    pub fn knee(&self) -> Option<&SweepPoint> {
        self.points.iter().rev().find(|p| p.sustained())
    }

    /// The knee's offered load; 0 when nothing was sustained.
    pub fn knee_qps(&self) -> f64 {
        self.knee().map_or(0.0, |p| p.offered_qps)
    }

    /// The p99 latency at the heaviest swept load; 0 for an empty curve.
    pub fn top_p99(&self) -> Cycle {
        self.points.last().map_or(0, |p| p.summary.p99)
    }
}

/// The common knobs of a sweep, shared by the `serve_sweep` binary and
/// the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Arrival process of every measured point.
    pub process: ArrivalProcess,
    /// SLS work per query.
    pub shape: QueryShape,
    /// Offered loads as fractions of the reference saturation rate.
    pub utilizations: Vec<f64>,
    /// Queries per measured point.
    pub queries: usize,
    /// Queries in the saturation probe.
    pub probe_queries: usize,
    /// Seed for arrivals and query streams.
    pub seed: u64,
}

/// `value` when it is positive and finite, else a [`SimError::Config`]
/// naming `field`.
fn positive(field: &str, value: f64) -> Result<f64, SimError> {
    if value > 0.0 && value.is_finite() {
        Ok(value)
    } else {
        let msg = format!("must be positive and finite, got {value}");
        Err(SimError::Config(ConfigError::new(field, msg)))
    }
}

/// Probes the back-to-back service capacity of a fresh system from
/// `make` under `mode`: all `queries` queries of `shape` arrive at cycle
/// 0 and the completion throughput of the resulting busy period is the
/// saturation rate.
///
/// # Errors
///
/// Returns the serving run's error ([`SimError::Stalled`], or
/// [`SimError::Config`] when placement fails), or
/// [`SimError::Config`] when the probe completes no query.
pub fn saturation_qps<S: Into<Fleet>>(
    make: &mut dyn FnMut() -> S,
    mode: ServingMode,
    shape: QueryShape,
    queries: usize,
    seed: u64,
) -> Result<f64, SimError> {
    // The rate and process only label the run: the arrivals are given.
    let cfg = ServingConfig {
        mode,
        ..ServingConfig::poisson(1.0, queries, shape, seed)
    };
    let (arrivals, stream) = (vec![0; queries], QueryStream::new(shape, seed));
    let zero = ResilienceConfig::zero();
    let probe = run_at(
        &mut make().into().nodes_mut(),
        &cfg,
        &zero,
        arrivals,
        stream,
    )?;
    positive("saturation probe", probe.achieved_qps())
}

/// Measures one curve under `mode` at explicit `offered` loads (queries
/// per second), anchored to a caller-provided `saturation` rate: each
/// point's `utilization` is `offered / saturation`. Points take their
/// arrival process, shape, query count and seed from `spec`; each runs
/// on a fresh system from `make` (created on the calling thread, in
/// point order), all in parallel on the worker pool.
///
/// # Errors
///
/// Returns [`SimError::Config`] when `saturation` or an offered load is
/// not positive and finite, or the first failing point's error.
pub fn qps_sweep_at<S: Into<Fleet>>(
    make: &mut dyn FnMut() -> S,
    mode: ServingMode,
    spec: &SweepSpec,
    saturation: f64,
    offered: &[f64],
) -> Result<SweepCurve, SimError> {
    positive("saturation", saturation)?;
    let mut systems: Vec<(Fleet, f64)> = offered.iter().map(|&qps| (make().into(), qps)).collect();
    let measured = run_each(&mut systems, |(fleet, qps)| {
        let cfg = ServingConfig {
            process: spec.process,
            qps: *qps,
            queries: spec.queries,
            shape: spec.shape,
            mode,
            seed: spec.seed,
        };
        let served = run(&mut fleet.nodes_mut(), &cfg, &ResilienceConfig::zero())?;
        Ok((served.achieved_qps(), served.summary(), served.system))
    })?;
    let system = measured.first().map(|m| m.2.clone()).unwrap_or_default();
    let points = offered
        .iter()
        .zip(measured)
        .map(|(&qps, (achieved_qps, summary, _))| SweepPoint {
            offered_qps: qps,
            utilization: qps / saturation,
            achieved_qps,
            summary,
        })
        .collect();
    Ok(SweepCurve {
        system,
        arm: mode,
        saturation_qps: saturation,
        points,
    })
}

/// Sweeps every mode in `arms` at the same absolute offered loads: the
/// `spec.utilizations` fractions of the **anchor** mode's probed
/// saturation rate. Fixing the load axis makes the comparison direct —
/// a better mode shows up as a higher knee and a lower p99 at the same
/// offered QPS. The anchor need not be one of `arms`. Curves come back
/// in `arms` order.
///
/// # Errors
///
/// Returns [`SimError::Config`] for an empty `arms` list, a utilization
/// that is not positive and finite, or a probe that completes nothing;
/// otherwise the first failing run's error.
pub fn anchored_sweep<S: Into<Fleet>>(
    make: &mut dyn FnMut() -> S,
    anchor: ServingMode,
    arms: &[ServingMode],
    spec: &SweepSpec,
) -> Result<Vec<SweepCurve>, SimError> {
    if arms.is_empty() {
        let msg = "an anchored sweep needs at least one arm";
        return Err(SimError::Config(ConfigError::new("arms", msg)));
    }
    for &u in &spec.utilizations {
        positive("utilization", u)?;
    }
    let saturation = saturation_qps(make, anchor, spec.shape, spec.probe_queries, spec.seed)?;
    let offered: Vec<f64> = spec.utilizations.iter().map(|&u| u * saturation).collect();
    arms.iter()
        .map(|&arm| qps_sweep_at(make, arm, spec, saturation, &offered))
        .collect()
}

/// Runs `job` on each of `systems` as one task on the deterministic
/// worker pool (`recnmp-exec`), nesting the systems' own node and
/// channel tasks into the same pool; results come back in input order,
/// byte-identical to a serial run at any worker count.
pub(super) fn run_each<S: Send, T: Send>(
    systems: &mut [S],
    job: impl Fn(&mut S) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    let job = &job;
    let tasks: Vec<_> = systems.iter_mut().map(|s| move || job(s)).collect();
    recnmp_exec::current().run_vec(tasks)
}

/// The geometry of the reference serving cluster: 4 channels of 1 DIMM
/// × 2 ranks, with or without RankCaches and hot-entry profiling.
fn reference_cluster_config(optimized: bool) -> recnmp::RecNmpClusterConfig {
    recnmp::RecNmpClusterConfig::builder()
        .channels(4)
        .dimms(1)
        .ranks_per_dimm(2)
        .optimized(optimized)
        .build()
        .expect("reference cluster config")
}

/// The 4-channel reference cluster every serving artifact measures — one
/// definition, so the `serve_sweep` binary and the experiment harness
/// can never desynchronize their geometry from the committed goldens.
pub fn reference_cluster4() -> Box<dyn SlsBackend> {
    let config = reference_cluster_config(false);
    Box::new(recnmp::RecNmpCluster::new(config).expect("reference cluster"))
}

/// The RecNMP-opt variant of [`reference_cluster4`]: same geometry, but
/// every channel carries a RankCache and hot-entry profiling — the
/// backend the cache-aware serving sweeps measure, since inter-query
/// prefetch needs memory-side caches to stage into.
pub fn reference_cluster4_optimized() -> Box<dyn SlsBackend> {
    let config = reference_cluster_config(true);
    Box::new(recnmp::RecNmpCluster::new(config).expect("reference optimized cluster"))
}

/// Per-channel DRAM capacity of the reference cluster — the capacity
/// model placement sweeps pack against. Derived from the same config as
/// [`reference_cluster4`], so the bound tracks the geometry.
pub fn reference_channel_capacity() -> ByteSize {
    ByteSize::bytes(
        reference_cluster_config(false)
            .channel
            .geometry()
            .capacity_bytes(),
    )
}

/// The reference tiered system for `spec`'s geometry: one Table-I RecNMP
/// channel per DRAM unit plus default-config SSD units — the factory the
/// tiering sweeps and the capacity experiment share.
pub fn reference_tiered(spec: TierSpec) -> Box<dyn SlsBackend> {
    Box::new(
        recnmp_storage::TieredCluster::reference(spec.dram_channels, spec.ssd_units)
            .expect("reference tiered cluster"),
    )
}

/// The cache-aware serving arms every caching artifact measures, as
/// `(label, mode)` pairs with the **bare frequency-balanced anchor
/// first**: host caches swept over capacity × placement policy, plus
/// inter-query RankCache prefetch on the *cache-less* baseline —
/// prefetch re-warms hot vectors the small memory-side caches evict
/// between queries, which is exactly the traffic a host cache would
/// absorb before it ever reached a channel, so the two locality
/// mechanisms are alternatives, not a stack. Labels carry the capacity
/// (mode names alone cannot distinguish two `cached-frequency`
/// capacities). One definition shared by the `fig_cache_serving`
/// experiment, `serve_sweep --caching` and the acceptance tests, so
/// none can silently measure different arms than the committed golden.
pub fn reference_caching_arms() -> Vec<(String, ServingMode)> {
    use super::policy::{HostCacheSpec, PrefetchSpec};
    let dispatch = |placement| ShardedDispatch {
        placement,
        gather: GatherCost::host_default(),
        channel_capacity: Some(reference_channel_capacity()),
        host_cache: None,
        prefetch: None,
    };
    let frequency = PlacementPolicy::FrequencyBalanced { replicate: 1 };
    // 64 KiB holds 512 of the 128-byte reference vectors — only the very
    // head of the Zipf-1.2 row distribution; 1 MiB (8192 vectors) covers
    // most hot rows of the 4 admitted tables.
    let small = HostCacheSpec::with_capacity(ByteSize::kib(64));
    let large = HostCacheSpec::with_capacity(ByteSize::mib(1));
    let prefetch = PrefetchSpec::new(64);
    vec![
        (
            "sharded-frequency".to_string(),
            ServingMode::Sharded(dispatch(frequency)),
        ),
        (
            "cached-hash@1MiB".to_string(),
            ServingMode::Sharded(dispatch(PlacementPolicy::Hash).with_host_cache(large)),
        ),
        (
            "cached-frequency@64KiB".to_string(),
            ServingMode::Sharded(dispatch(frequency).with_host_cache(small)),
        ),
        (
            "cached-frequency@1MiB".to_string(),
            ServingMode::Sharded(dispatch(frequency).with_host_cache(large)),
        ),
        (
            "sharded-frequency+prefetch".to_string(),
            ServingMode::Sharded(dispatch(frequency).with_prefetch(prefetch)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::policy::{DispatchPolicy, HostCacheSpec};
    use recnmp_baselines::HostBaseline;

    fn host_factory() -> Box<dyn SlsBackend> {
        Box::new(HostBaseline::new(1, 2).unwrap())
    }

    const FIFO: ServingMode = ServingMode::Queued(DispatchPolicy::FifoSingleQueue);

    fn spec(utilizations: &[f64], queries: usize, shape: QueryShape, seed: u64) -> SweepSpec {
        SweepSpec {
            process: ArrivalProcess::Uniform,
            shape,
            utilizations: utilizations.to_vec(),
            queries,
            probe_queries: 6,
            seed,
        }
    }

    fn is_config_error<T>(result: &Result<T, SimError>) -> bool {
        matches!(result, Err(SimError::Config(_)))
    }

    #[test]
    fn saturation_probe_is_positive_and_deterministic() {
        let shape = QueryShape::new(2, 2, 8);
        let a = saturation_qps(&mut host_factory, FIFO, shape, 6, 5).unwrap();
        let b = saturation_qps(&mut host_factory, FIFO, shape, 6, 5).unwrap();
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_tail_grows_with_load_and_knee_exists() {
        let spec = spec(&[0.3, 0.7, 1.5], 10, QueryShape::new(2, 2, 8), 5);
        let curve = anchored_sweep(&mut host_factory, FIFO, &[FIFO], &spec)
            .unwrap()
            .remove(0);
        assert_eq!(curve.points.len(), 3);
        // Latency is monotone-ish in load: the overloaded point's p99
        // strictly exceeds the light point's.
        assert!(curve.points[2].summary.p99 > curve.points[0].summary.p99);
        // Light load is sustained; the knee is at or above it.
        assert!(curve.points[0].sustained());
        assert!(curve.knee().unwrap().utilization >= 0.3);
        assert_eq!(curve.top_p99(), curve.points[2].summary.p99);
    }

    #[test]
    fn queued_arms_share_the_fifo_anchor_and_match_single_sweeps() {
        let spec = spec(&[0.4, 1.2], 8, QueryShape::new(2, 2, 8), 5);
        let arms = [FIFO, ServingMode::Queued(DispatchPolicy::RoundRobin)];
        let curves = anchored_sweep(&mut host_factory, FIFO, &arms, &spec).unwrap();
        assert_eq!(curves.len(), 2);
        assert!(curves.iter().all(|c| c.system == "host"));
        assert_eq!(curves[1].arm, arms[1]);
        assert_eq!(curves[1].saturation_qps, curves[0].saturation_qps);
        let solo = anchored_sweep(&mut host_factory, FIFO, &[FIFO], &spec).unwrap();
        assert_eq!(curves[0], solo[0]);
        // The explicit-load sweep at the anchor's loads is the same curve.
        let offered: Vec<f64> = solo[0].points.iter().map(|p| p.offered_qps).collect();
        let at = qps_sweep_at(
            &mut host_factory,
            FIFO,
            &spec,
            solo[0].saturation_qps,
            &offered,
        )
        .unwrap();
        assert_eq!(at, solo[0]);
    }

    #[test]
    fn caching_arms_anchor_to_the_bare_baseline() {
        let shape = QueryShape::new(4, 2, 6).with_table_skew(1.0);
        let spec = spec(&[0.5, 1.1], 8, shape, 9);
        let frequency = PlacementPolicy::FrequencyBalanced { replicate: 1 };
        let anchor = ServingMode::sharded(frequency);
        let cached =
            ServingMode::cached(frequency, HostCacheSpec::with_capacity(ByteSize::kib(64)));
        let curves = anchored_sweep(&mut host_factory, anchor, &[anchor, cached], &spec).unwrap();
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[1].arm.name(), "cached-frequency");
        assert_eq!(curves[1].saturation_qps, curves[0].saturation_qps);
        for (a, b) in curves[1].points.iter().zip(&curves[0].points) {
            assert_eq!(a.offered_qps, b.offered_qps);
        }
    }

    #[test]
    fn placement_arms_share_one_load_axis() {
        let shape = QueryShape::new(4, 2, 6).with_table_skew(1.0);
        let spec = spec(&[0.5, 1.1], 8, shape, 9);
        let arms = PlacementPolicy::COMPARED.map(ServingMode::sharded);
        let curves = anchored_sweep(&mut host_factory, arms[0], &arms, &spec).unwrap();
        assert_eq!(curves.len(), 3);
        // Every policy was swept at the same absolute offered loads.
        for c in &curves[1..] {
            assert_eq!(c.saturation_qps, curves[0].saturation_qps);
            for (a, b) in c.points.iter().zip(&curves[0].points) {
                assert_eq!(a.offered_qps, b.offered_qps);
            }
        }
    }

    #[test]
    fn bad_sweeps_are_config_errors() {
        let shape = QueryShape::new(2, 2, 8);
        let good = spec(&[0.5], 4, shape, 5);
        let empty = anchored_sweep(&mut host_factory, FIFO, &[], &good);
        assert!(is_config_error(&empty), "no arms");
        for u in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let bad = spec(&[0.5, u], 4, shape, 5);
            let swept = anchored_sweep(&mut host_factory, FIFO, &[FIFO], &bad);
            assert!(is_config_error(&swept), "utilization {u}");
        }
        let idle = SweepSpec {
            probe_queries: 0,
            ..good.clone()
        };
        let swept = anchored_sweep(&mut host_factory, FIFO, &[FIFO], &idle);
        assert!(is_config_error(&swept), "a probe that completes nothing");
        for bad in [0.0, f64::NAN] {
            let at = qps_sweep_at(&mut host_factory, FIFO, &good, 1e5, &[bad]);
            assert!(is_config_error(&at), "offered {bad}");
            let at = qps_sweep_at(&mut host_factory, FIFO, &good, bad, &[1e5]);
            assert!(is_config_error(&at), "saturation {bad}");
        }
    }
}
