//! Throughput–latency curves: sweep offered QPS against a backend or a
//! fleet and locate the saturation knee.
//!
//! One saturation probe and one pool-parallel point-sweep driver serve
//! both sweep families — single backends ([`saturation_qps`],
//! [`qps_sweep_at`]) and fleets
//! ([`fleet_saturation`](super::fleet::fleet_saturation),
//! [`fleet_sweep_at`](super::fleet::fleet_sweep_at)). Shared multi-curve
//! drivers sit on top so the `serve_sweep` bench binary and the
//! experiment harness consume one code path:
//!
//! * [`sweep_matrix`] — every (backend factory × serving mode) pair, each
//!   swept at fractions of its *own* probed saturation rate;
//! * [`placement_sweep`] — one backend under every placement policy,
//!   swept at fractions of the *sharded-hash baseline's* saturation rate,
//!   so knee QPS and p99-at-fixed-load compare policies like for like.

use recnmp_backend::{PlacementPolicy, SlsBackend, SlsTrace, TierSpec, TieredPolicy};
use recnmp_types::{ByteSize, Cycle, SimError};

use super::arrivals::{ArrivalProcess, QueryShape, QueryStream};
use super::policy::{DispatchPolicy, GatherCost, ServingMode, ShardedDispatch, TieredDispatch};
use super::scheduler::{serve, serve_arrivals, LatencySummary, ServingConfig};

/// A factory producing fresh (cold) backends, so every sweep point starts
/// from identical hardware state.
pub type BackendFactory<'a> = dyn FnMut() -> Box<dyn SlsBackend> + 'a;

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

/// One backend×mode throughput–latency curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCurve {
    /// Backend label.
    pub system: String,
    /// Serving mode the curve was measured under.
    pub mode: ServingMode,
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
}

/// Probes the back-to-back service capacity of a fresh backend under
/// `mode`: all `queries` queries arrive at cycle 0 and the completion
/// throughput of the resulting busy period is the saturation rate.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if a cycle-level run stalls, or
/// [`SimError::Config`] when sharded placement fails.
pub fn saturation_qps(
    make_backend: &mut BackendFactory<'_>,
    mode: ServingMode,
    shape: QueryShape,
    queries: usize,
    seed: u64,
) -> Result<f64, SimError> {
    let mut backend = make_backend();
    backend.reset_caches();
    let cfg = ServingConfig {
        process: ArrivalProcess::Uniform,
        qps: 1.0, // unused: the probe pins arrivals to cycle 0
        queries,
        shape,
        mode,
        coalescing: None,
        max_queue_depth: None,
        seed,
    };
    let (arrivals, trace_queries) = saturation_load(shape, queries, seed);
    Ok(serve_arrivals(backend.as_mut(), &cfg, &arrivals, trace_queries)?.achieved_qps())
}

/// The saturation probe's load, shared by backends and fleets: `queries`
/// queries of `shape` all arriving at cycle 0, so the completion
/// throughput of the resulting busy period is the saturation rate.
pub(super) fn saturation_load(
    shape: QueryShape,
    queries: usize,
    seed: u64,
) -> (Vec<Cycle>, Vec<SlsTrace>) {
    let trace_queries = QueryStream::new(shape, seed).take_queries(queries);
    (vec![0; queries], trace_queries)
}

/// The point-sweep driver of backends and fleets: one load point per
/// `offered` rate, each served by `serve` on a fresh system from `make`
/// (created on the calling thread, in point order) and measured as
/// `(achieved_qps, summary)`; the points run in parallel via
/// [`run_each`].
///
/// # Panics
///
/// Panics when an offered rate is not positive.
pub(super) fn sweep_points<S: Send>(
    offered: &[f64],
    saturation: f64,
    mut make: impl FnMut() -> S,
    serve: impl Fn(&mut S, f64) -> Result<(f64, LatencySummary), SimError> + Sync,
) -> Result<Vec<SweepPoint>, SimError> {
    let mut systems: Vec<(S, f64)> = offered
        .iter()
        .map(|&qps| {
            assert!(qps > 0.0, "offered loads must be positive");
            (make(), qps)
        })
        .collect();
    let measured = run_each(&mut systems, |(system, qps)| serve(system, *qps))?;
    Ok(offered
        .iter()
        .zip(measured)
        .map(|(&qps, (achieved_qps, summary))| SweepPoint {
            offered_qps: qps,
            utilization: qps / saturation,
            achieved_qps,
            summary,
        })
        .collect())
}

/// Runs `serve` on each of `systems` as one task on the deterministic
/// worker pool (`recnmp-exec`), nesting the systems' own node and
/// channel tasks into the same pool; results come back in input order,
/// byte-identical to a serial run at any worker count.
pub(super) fn run_each<S: Send, T: Send>(
    systems: &mut [S],
    serve: impl Fn(&mut S) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    let serve = &serve;
    let tasks: Vec<_> = systems.iter_mut().map(|s| move || serve(s)).collect();
    recnmp_exec::current().run_vec(tasks)
}

/// The serving mode a saturation probe should use for a sweep under
/// `mode`: queued sweeps probe with the work-conserving FIFO reference
/// (so all dispatch policies of one backend share an anchor), while
/// sharded and tiered sweeps probe with their own placement (capacity
/// depends on it).
fn probe_mode(mode: ServingMode) -> ServingMode {
    match mode {
        ServingMode::Queued(_) => ServingMode::Queued(DispatchPolicy::FifoSingleQueue),
        placed @ (ServingMode::Sharded(_) | ServingMode::Tiered(_)) => placed,
    }
}

/// Measures one throughput–latency curve at explicit offered loads,
/// anchored to a caller-provided `saturation` rate (each point's
/// `utilization` is `offered / saturation`). Every point starts from a
/// fresh backend with cold caches.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any cycle-level run stalls, or
/// [`SimError::Config`] when sharded placement fails.
#[allow(clippy::too_many_arguments)]
pub fn qps_sweep_at(
    make_backend: &mut BackendFactory<'_>,
    mode: ServingMode,
    process: ArrivalProcess,
    shape: QueryShape,
    saturation: f64,
    offered: &[f64],
    queries: usize,
    seed: u64,
) -> Result<SweepCurve, SimError> {
    let mut system = String::new();
    let points = sweep_points(
        offered,
        saturation,
        || {
            let mut backend = make_backend();
            backend.reset_caches();
            system = backend.name().to_string();
            backend
        },
        |backend, qps| {
            let cfg = ServingConfig {
                process,
                qps,
                queries,
                shape,
                mode,
                coalescing: None,
                max_queue_depth: None,
                seed,
            };
            let report = serve(backend.as_mut(), &cfg)?;
            Ok((report.achieved_qps(), report.summary()))
        },
    )?;
    Ok(SweepCurve {
        system,
        mode,
        saturation_qps: saturation,
        points,
    })
}

/// Measures one backend×mode throughput–latency curve.
///
/// The offered loads are `utilizations` fractions of the probed
/// saturation rate, so curves from systems of very different capacity
/// (a host channel vs a 4-channel NMP cluster) sample comparable
/// operating regions — the knee lands inside the sweep by construction.
///
/// # Errors
///
/// Returns [`SimError::Stalled`] if any cycle-level run stalls, or
/// [`SimError::Config`] when sharded placement fails.
#[allow(clippy::too_many_arguments)]
pub fn qps_sweep(
    make_backend: &mut BackendFactory<'_>,
    mode: ServingMode,
    process: ArrivalProcess,
    shape: QueryShape,
    utilizations: &[f64],
    queries: usize,
    probe_queries: usize,
    seed: u64,
) -> Result<SweepCurve, SimError> {
    let saturation = saturation_qps(make_backend, probe_mode(mode), shape, probe_queries, seed)?;
    let offered: Vec<f64> = utilizations
        .iter()
        .inspect(|&&u| assert!(u > 0.0, "utilization fractions must be positive"))
        .map(|&u| u * saturation)
        .collect();
    qps_sweep_at(
        make_backend,
        mode,
        process,
        shape,
        saturation,
        &offered,
        queries,
        seed,
    )
}

/// The common knobs of a multi-curve sweep, shared by the `serve_sweep`
/// binary and the experiment harness.
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

/// One backend's curve, labeled with the factory's name.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledCurve {
    /// Factory label (`"host"`, `"recnmp-cluster[4]"`, ...).
    pub backend: String,
    /// The measured curve.
    pub curve: SweepCurve,
}

/// Labeled backend factories a sweep iterates over.
pub type NamedFactories<'a> = Vec<(&'a str, Box<BackendFactory<'a>>)>;

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

/// Sweeps every (backend × mode) pair, each at fractions of its own
/// probed saturation rate. Curves come back factory-major
/// (`factories[0]` under every mode, then `factories[1]`, ...).
///
/// # Errors
///
/// Returns the first failing sweep's error.
pub fn sweep_matrix(
    factories: &mut NamedFactories<'_>,
    modes: &[ServingMode],
    spec: &SweepSpec,
) -> Result<Vec<LabeledCurve>, SimError> {
    let mut curves = Vec::with_capacity(factories.len() * modes.len());
    for (label, factory) in factories.iter_mut() {
        for &mode in modes {
            let curve = qps_sweep(
                factory.as_mut(),
                mode,
                spec.process,
                spec.shape,
                &spec.utilizations,
                spec.queries,
                spec.probe_queries,
                spec.seed,
            )?;
            curves.push(LabeledCurve {
                backend: label.to_string(),
                curve,
            });
        }
    }
    Ok(curves)
}

/// Sweeps one backend under every placement `policy`, all at the same
/// absolute offered loads: fractions of the **sharded-hash baseline's**
/// saturation rate. Fixing the load axis makes the comparison direct —
/// a better placement shows up as a higher knee and a lower p99 at the
/// same offered QPS.
///
/// # Errors
///
/// Returns the first failing sweep's error.
pub fn placement_sweep(
    make_backend: &mut BackendFactory<'_>,
    policies: &[PlacementPolicy],
    gather: GatherCost,
    channel_capacity: Option<ByteSize>,
    spec: &SweepSpec,
) -> Result<Vec<SweepCurve>, SimError> {
    let sharded = |placement| {
        ServingMode::Sharded(ShardedDispatch {
            placement,
            gather,
            channel_capacity,
            host_cache: None,
            prefetch: None,
        })
    };
    let modes: Vec<ServingMode> = policies.iter().map(|&p| sharded(p)).collect();
    caching_sweep(make_backend, sharded(PlacementPolicy::Hash), &modes, spec)
}

/// Sweeps one tiered backend under every tiering `policy`, all at the
/// same absolute offered loads: fractions of the **frequency-tiered**
/// plan's saturation rate. Frequency-tiered anchors because it is the
/// policy with a meaningful knee when the footprint exceeds DRAM — hash
/// saturates wherever its SSD-resident hot tables drag it, and pinning
/// the load axis to the informed policy shows exactly how far short the
/// uninformed one falls at each shared operating point.
///
/// # Errors
///
/// Returns the first failing sweep's error.
pub fn tiered_sweep(
    make_backend: &mut BackendFactory<'_>,
    policies: &[TieredPolicy],
    gather: GatherCost,
    tiers: TierSpec,
    spec: &SweepSpec,
) -> Result<Vec<SweepCurve>, SimError> {
    let tiered = |policy| {
        ServingMode::Tiered(TieredDispatch {
            policy,
            gather,
            tiers,
            promotion: None,
        })
    };
    let anchor = tiered(TieredPolicy::FrequencyTiered { replicate_hot: 0 });
    let modes: Vec<ServingMode> = policies.iter().map(|&p| tiered(p)).collect();
    caching_sweep(make_backend, anchor, &modes, spec)
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

/// Sweeps one backend under every serving `mode`, all at the same
/// absolute offered loads: fractions of the **anchor** mode's
/// saturation rate — the driver behind [`placement_sweep`] and
/// [`tiered_sweep`] too. In the caching experiment the anchor is the
/// cache-less sharded-frequency baseline, which makes the co-design
/// verdict direct: a host cache and cache-aware placement earn their
/// keep exactly when their curves knee later or tail lower than the
/// anchor's at the same offered QPS.
///
/// # Errors
///
/// Returns the first failing sweep's error.
pub fn caching_sweep(
    make_backend: &mut BackendFactory<'_>,
    anchor: ServingMode,
    modes: &[ServingMode],
    spec: &SweepSpec,
) -> Result<Vec<SweepCurve>, SimError> {
    let saturation = saturation_qps(
        make_backend,
        anchor,
        spec.shape,
        spec.probe_queries,
        spec.seed,
    )?;
    let offered: Vec<f64> = spec.utilizations.iter().map(|&u| u * saturation).collect();
    modes
        .iter()
        .map(|&mode| {
            qps_sweep_at(
                make_backend,
                mode,
                spec.process,
                spec.shape,
                saturation,
                &offered,
                spec.queries,
                spec.seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_baselines::HostBaseline;

    fn host_factory() -> Box<dyn SlsBackend> {
        Box::new(HostBaseline::new(1, 2).unwrap())
    }

    const FIFO: ServingMode = ServingMode::Queued(DispatchPolicy::FifoSingleQueue);

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
        let shape = QueryShape::new(2, 2, 8);
        let curve = qps_sweep(
            &mut host_factory,
            FIFO,
            ArrivalProcess::Uniform,
            shape,
            &[0.3, 0.7, 1.5],
            10,
            6,
            5,
        )
        .unwrap();
        assert_eq!(curve.points.len(), 3);
        // Latency is monotone-ish in load: the overloaded point's p99
        // strictly exceeds the light point's.
        assert!(curve.points[2].summary.p99 > curve.points[0].summary.p99);
        // Light load is sustained; the knee is at or above it.
        assert!(curve.points[0].sustained());
        assert!(curve.knee().unwrap().utilization >= 0.3);
    }

    #[test]
    fn matrix_is_factory_major_and_matches_single_sweeps() {
        let shape = QueryShape::new(2, 2, 8);
        let spec = SweepSpec {
            process: ArrivalProcess::Uniform,
            shape,
            utilizations: vec![0.4, 1.2],
            queries: 8,
            probe_queries: 6,
            seed: 5,
        };
        let mut factories: NamedFactories<'_> = vec![("host", Box::new(host_factory))];
        let modes = [FIFO, ServingMode::Queued(DispatchPolicy::RoundRobin)];
        let curves = sweep_matrix(&mut factories, &modes, &spec).unwrap();
        assert_eq!(curves.len(), 2);
        assert!(curves.iter().all(|c| c.backend == "host"));
        let solo = qps_sweep(
            &mut host_factory,
            FIFO,
            spec.process,
            shape,
            &spec.utilizations,
            spec.queries,
            spec.probe_queries,
            spec.seed,
        )
        .unwrap();
        assert_eq!(curves[0].curve, solo);
    }

    #[test]
    fn caching_sweep_anchors_to_the_bare_baseline() {
        use super::super::policy::HostCacheSpec;
        let shape = QueryShape::new(4, 2, 6).with_table_skew(1.0);
        let spec = SweepSpec {
            process: ArrivalProcess::Uniform,
            shape,
            utilizations: vec![0.5, 1.1],
            queries: 8,
            probe_queries: 6,
            seed: 9,
        };
        let frequency = PlacementPolicy::FrequencyBalanced { replicate: 1 };
        let anchor = ServingMode::sharded(frequency);
        let cached =
            ServingMode::cached(frequency, HostCacheSpec::with_capacity(ByteSize::kib(64)));
        let curves = caching_sweep(&mut host_factory, anchor, &[anchor, cached], &spec).unwrap();
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[1].mode.name(), "cached-frequency");
        assert_eq!(curves[1].saturation_qps, curves[0].saturation_qps);
        for (a, b) in curves[1].points.iter().zip(&curves[0].points) {
            assert_eq!(a.offered_qps, b.offered_qps);
        }
    }

    #[test]
    fn placement_sweep_shares_one_load_axis() {
        let shape = QueryShape::new(4, 2, 6).with_table_skew(1.0);
        let spec = SweepSpec {
            process: ArrivalProcess::Uniform,
            shape,
            utilizations: vec![0.5, 1.1],
            queries: 8,
            probe_queries: 6,
            seed: 9,
        };
        let curves = placement_sweep(
            &mut host_factory,
            &recnmp_backend::PlacementPolicy::COMPARED,
            GatherCost::host_default(),
            None,
            &spec,
        )
        .unwrap();
        assert_eq!(curves.len(), 3);
        // Every policy was swept at the same absolute offered loads.
        for c in &curves[1..] {
            assert_eq!(c.saturation_qps, curves[0].saturation_qps);
            for (a, b) in c.points.iter().zip(&curves[0].points) {
                assert_eq!(a.offered_qps, b.offered_qps);
            }
        }
    }
}
