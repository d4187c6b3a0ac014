//! The query-serving subsystem: open-loop load generation, query
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
//!   ([`QueryShape::for_model`]), from which serving draws each query
//!   as it dispatches;
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
//!   ([`EpochPromotion`]), or **fleet** scatter/gather across nodes
//!   ([`FleetDispatch`]);
//! * [`scheduler`] — the serving front: one config ([`ServingConfig`],
//!   whose [`ServingMode`] picks the topology), one entry point
//!   ([`run`]) that dispatches queries onto one backend's servers or a
//!   fleet's nodes, and one report ([`ServingRun`], with per-query
//!   enqueue→completion latency, outcomes and [`LatencySummary`]
//!   p50/p95/p99/mean/max);
//! * `core` — the one scatter/gather core behind every serving mode:
//!   each query dispatches at its arrival, routes to nodes, then to a
//!   replica channel of each table under one shared pick rule set, and
//!   completes at its slowest shard plus the gather costs. Its optional
//!   per-query stages (host cache, prefetch, promotion epochs,
//!   resilience) do nothing when unset, so every stage composes with
//!   every topology;
//! * [`fleet`] — rack-scale serving: a [`Fleet`] of N node backends
//!   behind a router ([`RouterPolicy`]), a two-level
//!   [`FleetPlacementPlan`](recnmp_backend::FleetPlacementPlan) with
//!   cross-node hot-table replication, and an inter-node
//!   [`NetworkCost`] ([`ServingMode::Fleet`] of a [`FleetDispatch`]);
//!   [`faults`] holds the fault plans and resilience policies, which
//!   [`run`] applies in every mode;
//! * [`sweep`] — throughput–latency curves over a QPS sweep: one driver
//!   serves a backend or a [`Fleet`] under any [`ServingMode`] through
//!   one saturation probe ([`saturation_qps`]), one sweep at explicit
//!   loads ([`qps_sweep_at`]) and one sweep anchored at a reference
//!   mode's probed saturation ([`anchored_sweep`]), each giving a
//!   [`SweepCurve`] with its knee ([`SweepCurve::knee`]);
//! * `legacy` — the two entry points that came before [`run`] and their
//!   report and config types, each a field-for-field move of a
//!   [`ServingRun`], kept only while an outside harness calls them.
//!
//! The model: each dispatched query (or shard) occupies one server for
//! exactly the cycles its cycle-level run reports; work queues when its
//! server is busy. Hardware state persists across queries per server
//! (sustained traffic keeps row buffers and caches warm); idle gaps are
//! not separately simulated. Everything downstream of a seed is
//! deterministic — same seed and config give byte-identical latency
//! vectors.
//!
//! # Examples
//!
//! ```
//! use recnmp_baselines::HostBaseline;
//! use recnmp_sim::serving::{run, QueryShape, ResilienceConfig, ServingConfig};
//!
//! let mut host = HostBaseline::new(1, 2).unwrap();
//! let cfg = ServingConfig::poisson(10_000.0, 16, QueryShape::new(2, 2, 8), 42);
//! let served = run(&mut [&mut host], &cfg, &ResilienceConfig::zero()).unwrap();
//! assert_eq!(served.latencies.len(), 16);
//! let s = served.summary();
//! assert!(s.p50 <= s.p99);
//! ```

pub mod arrivals;
mod core;
pub mod faults;
pub mod fleet;
mod host_cache;
mod legacy;
pub mod policy;
pub mod scheduler;
pub mod sweep;

pub use arrivals::{ArrivalProcess, QueryShape, QueryStream};
pub use faults::{
    ChannelDegrade, FaultPlan, FaultSpec, HedgePolicy, NodeCrash, NodeHealth, QueryOutcome,
    ResilienceConfig, RetryPolicy, ShardTimeout, SloPolicy,
};
pub use fleet::{
    resilience_sweep, Fleet, FleetDispatch, NetworkCost, ResilienceArm, ResilienceSpec,
    ResilienceSweep, RouterPolicy,
};
pub use legacy::{serve, serve_fleet_resilient, FleetConfig, FleetReport, ServingReport};
pub use policy::{
    DispatchPolicy, EpochPromotion, GatherCost, HostCacheSpec, PrefetchSpec, ServingMode,
    ShardedDispatch, TieredDispatch,
};
pub use recnmp_backend::{PlacementPolicy, TierSpec, TieredPolicy};
pub use scheduler::{run, LatencySummary, ServingConfig, ServingRun};
pub use sweep::{
    anchored_sweep, qps_sweep_at, reference_caching_arms, reference_channel_capacity,
    reference_cluster4, reference_cluster4_optimized, reference_tiered, saturation_qps, SweepCurve,
    SweepPoint, SweepSpec,
};
