//! The three workloads. Each generates its inputs from the seed at
//! set-up, then serves passes: one input on fresh backends (so the
//! modelled RankCache and host cache start empty), timed around the
//! simulator calls only.

use std::time::Instant;

use recnmp::{RecNmpCluster, RecNmpClusterConfig};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_baselines::HostBaseline;
use recnmp_model::RecModelKind;
use recnmp_sim::serving::{
    reference_caching_arms, serve, serve_fleet_resilient, ArrivalProcess, FaultPlan, FaultSpec,
    Fleet, FleetConfig, FleetDispatch, HedgePolicy, QueryOutcome, QueryShape, QueryStream,
    ResilienceConfig, RetryPolicy, ServingConfig, SloPolicy,
};
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
use recnmp_types::units::qps_to_interarrival_cycles;
use recnmp_types::{PhysAddr, SimError, TableId};

use crate::alloc;
use crate::host;
use crate::probe::{Layers, Probe, ProbeLog};

/// Host cost of the clocked part of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
}

/// Runs `f` on the clock.
fn clock<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu = host::cpu_seconds();
    let allocs = alloc::total();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    // Counted before the CPU reading, which allocates.
    let allocs = alloc::total() - allocs;
    let timing = Timing {
        wall_s,
        cpu_s: host::cpu_seconds() - cpu,
        allocs,
    };
    (out, timing)
}

/// Simulated outputs of one pass: they repeat exactly for an input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    pub packets: u64,
    pub insts: u64,
    pub sim_cycles: u64,
    pub rank_hits: u64,
    pub rank_accesses: u64,
    /// Packet latencies (replay) or completed-query latencies (serving).
    pub latencies: Vec<u64>,
    pub completed: u64,
    pub failovers: u64,
    pub retries: u64,
    pub hedges: u64,
    pub rejected: u64,
    pub shed: u64,
    pub failed: u64,
    pub host_hits: u64,
    pub host_misses: u64,
}

impl Exact {
    fn from_report(r: &RunReport, latencies: Vec<u64>) -> Self {
        Self {
            packets: r.packets as u64,
            insts: r.insts,
            sim_cycles: r.total_cycles,
            rank_hits: r.cache.hits,
            rank_accesses: r.cache.hits + r.cache.misses,
            latencies,
            failovers: r.failovers,
            retries: r.retries,
            hedges: r.hedges,
            rejected: r.queries_rejected,
            shed: r.queries_shed,
            failed: r.queries_failed,
            host_hits: r.host_hits,
            host_misses: r.host_misses,
            ..Self::default()
        }
    }

    /// Adds another input's outputs: counts sum, latencies pool.
    pub fn absorb(&mut self, other: &Exact) {
        self.packets += other.packets;
        self.insts += other.insts;
        self.sim_cycles += other.sim_cycles;
        self.rank_hits += other.rank_hits;
        self.rank_accesses += other.rank_accesses;
        self.latencies.extend_from_slice(&other.latencies);
        self.completed += other.completed;
        self.failovers += other.failovers;
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.failed += other.failed;
        self.host_hits += other.host_hits;
        self.host_misses += other.host_misses;
    }
}

/// One pass over one input.
#[derive(Debug)]
pub struct Pass {
    pub timing: Timing,
    /// Simulated lookups the pass offered.
    pub lookups: u64,
    /// FNV-1a of every simulated output of the pass.
    pub digest: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    pub exact: Exact,
    /// Filled by traced passes only.
    pub layers: Layers,
}

/// Host time spent setting a workload up.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    /// Generating traces and query streams.
    pub gen_s: f64,
    /// Building the first pass's backends.
    pub build_s: f64,
}

pub trait Workload {
    /// Distinct inputs the passes cycle through.
    fn inputs(&self) -> usize;
    /// Serves `input` on fresh backends, traced or not.
    fn pass(&mut self, input: usize, traced: bool) -> Result<Pass, SimError>;
}

pub const NAMES: [&str; 3] = ["replay", "serve-cached", "fleet-faults"];

/// Generates `name`'s inputs from `seed` and builds its first backends.
pub fn setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, SetupCost), SimError> {
    Ok(match name {
        "replay" => {
            let (w, cost) = Replay::setup(seed)?;
            (Box::new(w), cost)
        }
        "serve-cached" => {
            let (w, cost) = ServeCached::setup(seed)?;
            (Box::new(w), cost)
        }
        "fleet-faults" => {
            let (w, cost) = FleetFaults::setup(seed)?;
            (Box::new(w), cost)
        }
        other => unreachable!("workload {other} was validated at argument parsing"),
    })
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of reports through their `Debug` form, which prints every
/// field.
fn digest(reports: &[&dyn std::fmt::Debug]) -> u64 {
    let text: String = reports.iter().map(|r| format!("{r:?}\n")).collect();
    fnv(text.as_bytes())
}

fn probe_failures(logs: &[std::sync::Arc<ProbeLog>]) -> Vec<String> {
    let lost: u64 = logs.iter().map(|l| l.violations()).sum();
    if lost == 0 {
        Vec::new()
    } else {
        vec![format!(
            "{lost} backend call(s) did not serve exactly their lookups"
        )]
    }
}

fn merged_layers(logs: &[std::sync::Arc<ProbeLog>]) -> Layers {
    let mut layers = Layers::default();
    for log in logs {
        layers.absorb(&log.layers());
    }
    layers
}

// ---------------------------------------------------------------------
// replay

const REPLAY_INPUTS: usize = 2;
const REPLAY_TABLES: u32 = 64;
const REPLAY_BATCH: usize = 32;
const REPLAY_POOLING: usize = 80;

/// Replays Zipf-0.9 traces on a 16-channel RecNMP-opt cluster and on the
/// host baseline.
struct Replay {
    traces: Vec<SlsTrace>,
    spare: Option<(RecNmpCluster, HostBaseline)>,
}

impl Replay {
    fn setup(seed: u64) -> Result<(Self, SetupCost), SimError> {
        let start = Instant::now();
        let traces = (0..REPLAY_INPUTS as u64)
            .map(|i| replay_trace(seed.wrapping_add(i)))
            .collect();
        let gen_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let spare = Some(Self::backends()?);
        let build_s = start.elapsed().as_secs_f64();
        Ok((Self { traces, spare }, SetupCost { gen_s, build_s }))
    }

    fn backends() -> Result<(RecNmpCluster, HostBaseline), SimError> {
        let config = RecNmpClusterConfig::builder()
            .channels(16)
            .dimms(2)
            .ranks_per_dimm(2)
            .optimized(true)
            .build()?;
        Ok((RecNmpCluster::new(config)?, HostBaseline::new(2, 2)?))
    }
}

fn replay_trace(seed: u64) -> SlsTrace {
    let batches: Vec<SlsBatch> = (0..REPLAY_TABLES)
        .map(|t| {
            TraceGenerator::new(
                TableId::new(t),
                EmbeddingTableSpec::dlrm_default(),
                IndexDistribution::Zipf { s: 0.9 },
                seed,
            )
            .batch(REPLAY_BATCH, REPLAY_POOLING)
        })
        .collect();
    SlsTrace::from_batches(&batches, &mut |t, row| {
        PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
    })
}

impl Workload for Replay {
    fn inputs(&self) -> usize {
        REPLAY_INPUTS
    }

    fn pass(&mut self, input: usize, traced: bool) -> Result<Pass, SimError> {
        let (cluster, mut host) = match self.spare.take() {
            Some(b) => b,
            None => Self::backends()?,
        };
        let (mut probe, log) = Probe::new(cluster, traced);
        let trace = &self.traces[input];
        let (out, timing) = clock(|| -> Result<_, SimError> {
            let nmp = probe.try_run(trace)?;
            let start = Instant::now();
            let base = host.try_run(trace)?;
            Ok((nmp, base, start.elapsed().as_nanos() as u64))
        });
        let (nmp, base, host_ns) = out?;
        let lookups = trace.total_lookups();
        let mut failures = probe_failures(std::slice::from_ref(&log));
        if base.insts != lookups {
            failures.push(format!(
                "host baseline served {} of {lookups} lookups",
                base.insts
            ));
        }
        let mut layers = log.layers();
        if traced {
            layers.host_ns = host_ns;
        }
        Ok(Pass {
            timing,
            lookups: 2 * lookups,
            digest: digest(&[&nmp, &base]),
            failures,
            exact: Exact::from_report(&nmp, nmp.packet_latencies.clone()),
            layers,
        })
    }
}

// ---------------------------------------------------------------------
// serve-cached

/// The committed knee of the co-designed caching arm
/// (`BENCH_caching.json`, `cached-frequency@1MiB`).
const CACHED_KNEE_QPS: f64 = 1_143_847.5;
/// Offered rates: below the knee and at it.
const CACHED_RATES: [f64; 2] = [0.8 * CACHED_KNEE_QPS, CACHED_KNEE_QPS];
const CACHED_QUERIES: usize = 250;
const CACHED_ARM: &str = "cached-frequency@1MiB";

/// `serve()` in sharded mode with a host cache in front, on a 4-channel
/// RecNMP-opt cluster.
struct ServeCached {
    cfgs: Vec<ServingConfig>,
    offered: u64,
    spare: Option<RecNmpCluster>,
}

impl ServeCached {
    fn setup(seed: u64) -> Result<(Self, SetupCost), SimError> {
        let shape = QueryShape::for_model(RecModelKind::Rm1Small, 4)
            .with_table_skew(1.5)
            .with_row_skew(1.2);
        let (_, mode) = reference_caching_arms()
            .into_iter()
            .find(|(label, _)| label == CACHED_ARM)
            .expect("the reference caching arms include the co-designed arm");
        let cfgs = CACHED_RATES
            .iter()
            .map(|&qps| ServingConfig {
                mode,
                ..ServingConfig::poisson(qps, CACHED_QUERIES, shape, seed)
            })
            .collect();
        // `serve()` draws this same stream from the seed; the benchmark
        // draws it too, to know the offered lookups independently.
        let start = Instant::now();
        let offered = QueryStream::new(shape, seed)
            .take_queries(CACHED_QUERIES)
            .iter()
            .map(SlsTrace::total_lookups)
            .sum();
        let gen_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let spare = Some(Self::backend()?);
        let build_s = start.elapsed().as_secs_f64();
        let w = Self {
            cfgs,
            offered,
            spare,
        };
        Ok((w, SetupCost { gen_s, build_s }))
    }

    fn backend() -> Result<RecNmpCluster, SimError> {
        Ok(RecNmpCluster::new(
            RecNmpClusterConfig::builder()
                .channels(4)
                .dimms(1)
                .ranks_per_dimm(2)
                .optimized(true)
                .build()?,
        )?)
    }
}

impl Workload for ServeCached {
    fn inputs(&self) -> usize {
        self.cfgs.len()
    }

    fn pass(&mut self, input: usize, traced: bool) -> Result<Pass, SimError> {
        let cluster = match self.spare.take() {
            Some(c) => c,
            None => Self::backend()?,
        };
        let (mut probe, log) = Probe::new(cluster, traced);
        let cfg = &self.cfgs[input];
        let (report, timing) = clock(|| serve(&mut probe, cfg));
        let report = report?;
        let r = &report.report;
        let mut failures = probe_failures(std::slice::from_ref(&log));
        if r.host_hits + r.host_misses != self.offered {
            failures.push(format!(
                "host cache saw {} hits + {} misses of {} offered lookups",
                r.host_hits, r.host_misses, self.offered
            ));
        }
        if r.insts != r.host_misses {
            failures.push(format!(
                "channels served {} lookups but the host cache missed {}",
                r.insts, r.host_misses
            ));
        }
        if report.completions.len() != cfg.queries {
            failures.push(format!(
                "{} completions for {} queries",
                report.completions.len(),
                cfg.queries
            ));
        }
        let mut exact = Exact::from_report(r, report.latencies.clone());
        exact.completed = (report.completions.len() - report.rejected.len()) as u64;
        let mut layers = log.layers();
        if traced {
            layers.sched_ns = (timing.wall_s * 1e9) as u64;
            layers.sched_self_ns = layers.sched_ns.saturating_sub(layers.covered_ns());
        }
        Ok(Pass {
            timing,
            lookups: self.offered,
            digest: digest(&[&report]),
            failures,
            exact,
            layers,
        })
    }
}

// ---------------------------------------------------------------------
// fleet-faults

const FLEET_INPUTS: usize = 2;
const FLEET_NODES: usize = 8;
const FLEET_CHANNELS: usize = 4;
const FLEET_QPS_PER_NODE: f64 = 40_000.0;
const FLEET_QUERIES: usize = 3_000;
/// SLO deadline and per-attempt retry budget: three times the
/// fault-free replicated p99 of this shape and per-node load
/// (`BENCH_resilience.json`).
const FLEET_DEADLINE: u64 = 13_185;

/// `serve_fleet_resilient` on plain reference nodes through a seeded
/// crash, a stuck-at-slow channel and a timeout window.
struct FleetFaults {
    runs: Vec<(FleetConfig, ResilienceConfig)>,
    offered: Vec<u64>,
    spare: Option<Vec<RecNmpCluster>>,
}

impl FleetFaults {
    fn setup(seed: u64) -> Result<(Self, SetupCost), SimError> {
        let shape = QueryShape::new(24, 4, 8)
            .with_table_skew(1.2)
            .with_table_sampling(4);
        let qps = FLEET_QPS_PER_NODE * FLEET_NODES as f64;
        let horizon = (FLEET_QUERIES as f64 * qps_to_interarrival_cycles(qps)) as u64;
        let faults = FaultSpec {
            crashes: 1,
            window: (horizon / 4, 3 * horizon / 4),
            degraded_channels: 1,
            degrade_multiplier: 16,
            timeout_channels: 1,
            timeout_cycles: horizon / 20,
        };
        let runs = (0..FLEET_INPUTS as u64)
            .map(|i| {
                let seed = seed.wrapping_add(i);
                let cfg = FleetConfig {
                    process: ArrivalProcess::Poisson,
                    qps,
                    queries: FLEET_QUERIES,
                    shape,
                    dispatch: FleetDispatch::replicated(shape.tables),
                    seed,
                };
                let plan = FaultPlan::seeded(seed, &faults, FLEET_NODES, FLEET_CHANNELS);
                let res = ResilienceConfig::new(plan)
                    .with_retry(RetryPolicy::serving_default(FLEET_DEADLINE))
                    .with_hedge(HedgePolicy::p95())
                    .with_slo(SloPolicy::new(FLEET_DEADLINE));
                (cfg, res)
            })
            .collect::<Vec<_>>();
        let start = Instant::now();
        let offered = runs
            .iter()
            .map(|(cfg, _)| {
                QueryStream::new(cfg.shape, cfg.seed)
                    .take_queries(cfg.queries)
                    .iter()
                    .map(SlsTrace::total_lookups)
                    .sum()
            })
            .collect();
        let gen_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let spare = Some(Self::nodes()?);
        let build_s = start.elapsed().as_secs_f64();
        let w = Self {
            runs,
            offered,
            spare,
        };
        Ok((w, SetupCost { gen_s, build_s }))
    }

    /// Plain reference nodes: 4 channels of 1 DIMM x 2 ranks, no
    /// RankCache, no profiling.
    fn nodes() -> Result<Vec<RecNmpCluster>, SimError> {
        (0..FLEET_NODES)
            .map(|_| {
                let config = RecNmpClusterConfig::builder()
                    .channels(FLEET_CHANNELS)
                    .dimms(1)
                    .ranks_per_dimm(2)
                    .build()?;
                Ok(RecNmpCluster::new(config)?)
            })
            .collect()
    }
}

impl Workload for FleetFaults {
    fn inputs(&self) -> usize {
        self.runs.len()
    }

    fn pass(&mut self, input: usize, traced: bool) -> Result<Pass, SimError> {
        let nodes = match self.spare.take() {
            Some(n) => n,
            None => Self::nodes()?,
        };
        let mut logs = Vec::with_capacity(nodes.len());
        let backends = nodes
            .into_iter()
            .map(|cluster| {
                let (probe, log) = Probe::new(cluster, traced);
                logs.push(log);
                Box::new(probe) as Box<dyn SlsBackend>
            })
            .collect();
        let mut fleet = Fleet::new(backends)?;
        let (cfg, res) = &self.runs[input];
        let (report, timing) = clock(|| serve_fleet_resilient(&mut fleet, cfg, res));
        let report = report?;
        let r = &report.report;
        let mut failures = probe_failures(&logs);
        let completed = report.completed() as u64;
        let outcomes = completed + r.queries_rejected + r.queries_shed + r.queries_failed;
        if report.outcomes.len() != cfg.queries || outcomes != cfg.queries as u64 {
            failures.push(format!(
                "{completed} completed + {} rejected + {} shed + {} failed of {} offered queries",
                r.queries_rejected, r.queries_shed, r.queries_failed, cfg.queries
            ));
        }
        let failed = report
            .outcomes
            .iter()
            .filter(|&&o| o == QueryOutcome::Failed)
            .count();
        if failed != report.failures.len() {
            failures.push(format!(
                "{failed} failed queries but {} recorded failures",
                report.failures.len()
            ));
        }
        let mut exact = Exact::from_report(r, report.completed_latencies());
        exact.completed = completed;
        let mut layers = merged_layers(&logs);
        if traced {
            layers.sched_ns = (timing.wall_s * 1e9) as u64;
            layers.sched_self_ns = layers.sched_ns.saturating_sub(layers.covered_ns());
        }
        Ok(Pass {
            timing,
            lookups: self.offered[input],
            digest: digest(&[&report]),
            failures,
            exact,
            layers,
        })
    }
}
