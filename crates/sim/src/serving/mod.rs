//! The query-serving subsystem: open-loop load generation, batch
//! scheduling policies, and tail-latency accounting over any
//! [`SlsBackend`](recnmp_backend::SlsBackend).
//!
//! RecNMP's end-to-end claim is about query latency under production
//! load, yet trace replay only yields aggregate cycles. This module turns
//! the cycle-level simulators into a queueing system:
//!
//! * [`arrivals`] — deterministic open-loop generators
//!   ([`ArrivalProcess::Poisson`]/[`ArrivalProcess::Uniform`]) driven by
//!   `recnmp_types::rng`, and the per-query trace stream ([`QueryStream`])
//!   parameterized by offered QPS, batch size, and model kind
//!   ([`QueryShape::for_model`]);
//! * [`policy`] — serving modes ([`ServingMode`]): **queued** dispatch
//!   under a [`DispatchPolicy`] (FIFO single queue, round-robin per
//!   channel, least-outstanding-work), or **sharded** scatter/gather
//!   ([`ShardedDispatch`]) where each query fans out to every channel
//!   owning one of its tables under a placement policy
//!   ([`PlacementPolicy`]) and pays a host [`GatherCost`] merge —
//!   optionally fronted by a host-side hot-embedding cache
//!   ([`HostCacheSpec`], with the placement built from the residual
//!   post-cache load) and inter-query RankCache prefetch
//!   ([`PrefetchSpec`]) — or
//!   **tiered** scatter/gather ([`TieredDispatch`]) over a DRAM+SSD
//!   server space with optional epoch-based promotion
//!   ([`EpochPromotion`]); plus optional batch [`Coalescing`] with a
//!   max-wait deadline;
//! * [`scheduler`] — [`serve`]: dispatches queries onto the backend's
//!   servers and tracks per-query enqueue→completion latency
//!   ([`ServingReport`], [`LatencySummary`] with p50/p95/p99/mean/max).
//!   Queued mode runs each job whole on one server; sharded and tiered
//!   mode serve the backend as a one-node fleet on the core;
//! * `core` — the one scatter/gather core behind sharded, tiered and
//!   fleet serving: each job routes to nodes, then to the
//!   least-backlogged replica channel of each table, and completes at its
//!   slowest shard plus the gather costs. Its optional per-job stages
//!   (host cache, prefetch, promotion epochs, queue-depth guard,
//!   resilience) do nothing when unset, so every stage composes with
//!   every topology;
//! * [`fleet`] — rack-scale serving: a [`Fleet`] of N node backends
//!   behind a router ([`RouterPolicy`]), a two-level
//!   [`FleetPlacementPlan`](recnmp_backend::FleetPlacementPlan) with
//!   cross-node hot-table replication, and an inter-node
//!   [`NetworkCost`] ([`serve_fleet`], [`serve_fleet_resilient`]);
//!   [`faults`] holds the fault plans and resilience policies;
//! * [`sweep`] — throughput–latency curves over a QPS sweep, anchored at
//!   a probed saturation rate by one probe and one pool-parallel
//!   point-sweep driver shared by backends ([`qps_sweep`]) and fleets
//!   ([`fleet_sweep`]), with the knee identified ([`SweepCurve::knee`]).
//!
//! The model: each dispatched job (or shard) occupies one server for
//! exactly the cycles its cycle-level run reports; work queues when its
//! server is busy. Hardware state persists across jobs per server
//! (sustained traffic keeps row buffers and caches warm); idle gaps are
//! not separately simulated. Everything downstream of a seed is
//! deterministic — same seed and config give byte-identical latency
//! vectors.
//!
//! # Examples
//!
//! ```
//! use recnmp_baselines::HostBaseline;
//! use recnmp_sim::serving::{serve, DispatchPolicy, QueryShape, ServingConfig};
//!
//! let mut host = HostBaseline::new(1, 2).unwrap();
//! let cfg = ServingConfig::poisson(10_000.0, 16, QueryShape::new(2, 2, 8), 42);
//! let report = serve(&mut host, &cfg).unwrap();
//! assert_eq!(report.latencies.len(), 16);
//! let s = report.summary();
//! assert!(s.p50 <= s.p99);
//! ```

pub mod arrivals;
mod core;
pub mod faults;
pub mod fleet;
mod host_cache;
pub mod policy;
pub mod scheduler;
pub mod sweep;

pub use arrivals::{ArrivalProcess, QueryShape, QueryStream};
pub use faults::{
    ChannelDegrade, FaultPlan, FaultSpec, HedgePolicy, NodeCrash, NodeHealth, QueryOutcome,
    ResilienceConfig, RetryPolicy, ShardTimeout, SloPolicy,
};
pub use fleet::{
    fleet_saturation, fleet_sweep, fleet_sweep_at, resilience_sweep, serve_fleet,
    serve_fleet_resilient, Fleet, FleetConfig, FleetCurve, FleetDispatch, FleetFactory,
    FleetReport, NetworkCost, ResilienceArm, ResilienceSpec, ResilienceSweep, RouterPolicy,
};
pub use policy::{
    Coalescing, DispatchPolicy, EpochPromotion, GatherCost, HostCacheSpec, PrefetchSpec,
    ServingMode, ShardedDispatch, TieredDispatch,
};
pub use recnmp_backend::{PlacementPolicy, TierSpec, TieredPolicy};
pub use scheduler::{serve, LatencySummary, ServingConfig, ServingReport};
pub use sweep::{
    caching_sweep, placement_sweep, qps_sweep, qps_sweep_at, reference_caching_arms,
    reference_channel_capacity, reference_cluster4, reference_cluster4_optimized, reference_tiered,
    saturation_qps, sweep_matrix, tiered_sweep, BackendFactory, LabeledCurve, NamedFactories,
    SweepCurve, SweepPoint, SweepSpec,
};
