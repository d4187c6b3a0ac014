//! The timing decorator: an [`SlsBackend`] around a [`RecNmpCluster`]
//! that forwards every trait method and checks lookup conservation on
//! every call. Traced, it runs each call through the cluster's public
//! parts instead — `SlsTrace::shard`, then per channel `compile_trace`
//! and `RecNmpSystem::run_packets`, fanned out through
//! `recnmp_exec::current().run_vec` exactly like the cluster does — and
//! times each part. The reports are identical either way; the benchmark
//! checks that by digest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use recnmp::{compile_trace, ExecutionMode, RecNmpCluster, RecNmpSystem};
use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
use recnmp_types::{Cycle, PhysAddr, SimError};

use crate::alloc;

/// Host time and work measured at the layer boundaries of traced
/// passes, summed over calls. Times are nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `(start, duration)` of every backend call, in nanoseconds since
    /// [`epoch`].
    pub calls: Vec<(u64, u64)>,
    /// `SlsTrace::shard` inside whole-trace cluster runs.
    pub shard_ns: u64,
    /// `compile_trace`, hot-entry profiling included.
    pub compile_ns: u64,
    /// `RecNmpSystem::run_packets`: the DRAM engine.
    pub run_ns: u64,
    pub compile_allocs: u64,
    pub run_allocs: u64,
    /// Lookups the channels were handed.
    pub channel_lookups: u64,
    pub exec_tasks: u64,
    /// Wall time of `run_vec` fan-outs.
    pub exec_batch_ns: u64,
    /// Time tasks spent running.
    pub exec_busy_ns: u64,
    /// Time from submission to each task's start.
    pub exec_wait_ns: u64,
    /// Fan-out wall time multiplied by the pool's worker count.
    pub exec_capacity_ns: u64,
    pub dram_loop_iterations: u64,
    /// `HostBaseline::try_run`.
    pub host_ns: u64,
    /// The serving scheduler call, backend calls included.
    pub sched_ns: u64,
    /// The part of `sched_ns` during which no backend call ran.
    pub sched_self_ns: u64,
}

impl Layers {
    pub fn absorb(&mut self, other: &Layers) {
        self.calls.extend_from_slice(&other.calls);
        self.shard_ns += other.shard_ns;
        self.compile_ns += other.compile_ns;
        self.run_ns += other.run_ns;
        self.compile_allocs += other.compile_allocs;
        self.run_allocs += other.run_allocs;
        self.channel_lookups += other.channel_lookups;
        self.exec_tasks += other.exec_tasks;
        self.exec_batch_ns += other.exec_batch_ns;
        self.exec_busy_ns += other.exec_busy_ns;
        self.exec_wait_ns += other.exec_wait_ns;
        self.exec_capacity_ns += other.exec_capacity_ns;
        self.dram_loop_iterations += other.dram_loop_iterations;
        self.host_ns += other.host_ns;
        self.sched_ns += other.sched_ns;
        self.sched_self_ns += other.sched_self_ns;
    }

    /// Total duration of the backend calls.
    pub fn call_ns(&self) -> u64 {
        self.calls.iter().map(|&(_, d)| d).sum()
    }

    /// Wall time during which at least one backend call ran: calls on
    /// different nodes overlap when the fleet fans out.
    pub fn covered_ns(&self) -> u64 {
        let mut spans: Vec<(u64, u64)> = self.calls.iter().map(|&(s, d)| (s, s + d)).collect();
        spans.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in spans {
            covered += end.saturating_sub(start.max(reach));
            reach = reach.max(end);
        }
        covered
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The instant call start times count from; fixed by the first call.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// What a probe shares with the benchmark after a scheduler took
/// ownership of it.
#[derive(Debug, Default)]
pub struct ProbeLog {
    layers: Mutex<Layers>,
    violations: AtomicU64,
}

impl ProbeLog {
    /// Backend calls whose report did not serve exactly the lookups it
    /// was handed.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// The layers recorded so far.
    pub fn layers(&self) -> Layers {
        self.layers
            .lock()
            .expect("a probe panicked while recording")
            .clone()
    }
}

/// The timing decorator.
pub struct Probe {
    inner: RecNmpCluster,
    traced: bool,
    log: Arc<ProbeLog>,
    /// The channels' cumulative DRAM loop iterations at the last call.
    loop_iterations: u64,
}

impl Probe {
    pub fn new(inner: RecNmpCluster, traced: bool) -> (Self, Arc<ProbeLog>) {
        let log = Arc::new(ProbeLog::default());
        let probe = Self {
            inner,
            traced,
            log: Arc::clone(&log),
            loop_iterations: 0,
        };
        (probe, log)
    }

    fn check(&self, expected: u64, report: &RunReport) {
        if report.insts != expected {
            self.log.violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds one traced call's parts into the shared log.
    fn record(&mut self, started: Instant, mut parts: Layers) {
        let start = started.saturating_duration_since(epoch()).as_nanos() as u64;
        parts.calls.push((start, elapsed_ns(started)));
        let loops: u64 = (0..self.inner.channels())
            .map(|c| self.inner.channel(c).total_dram_loop_iterations())
            .sum();
        parts.dram_loop_iterations = loops - self.loop_iterations;
        self.loop_iterations = loops;
        self.log
            .layers
            .lock()
            .expect("a probe panicked while recording")
            .absorb(&parts);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// One channel's traced run and what its parts cost.
struct ChannelRun {
    report: RunReport,
    wait_ns: u64,
    parts: Layers,
}

/// `RecNmpSystem::try_run`, split into its public parts.
fn run_channel(
    channel: &mut RecNmpSystem,
    trace: &SlsTrace,
    submitted: Instant,
) -> Result<ChannelRun, SimError> {
    let start = Instant::now();
    let allocs = alloc::thread();
    let packets = compile_trace(
        channel.config(),
        channel.geometry(),
        channel.mapping(),
        trace,
    );
    let compiled = Instant::now();
    let compile_allocs = alloc::thread() - allocs;
    let report = match channel.config().execution {
        ExecutionMode::Serial => channel.run_packets(&packets),
        ExecutionMode::Overlapped => channel.run_packets_overlapped(&packets),
    }?;
    let parts = Layers {
        compile_ns: (compiled - start).as_nanos() as u64,
        run_ns: elapsed_ns(compiled),
        compile_allocs,
        run_allocs: alloc::thread() - allocs - compile_allocs,
        channel_lookups: trace.total_lookups(),
        ..Layers::default()
    };
    Ok(ChannelRun {
        report,
        wait_ns: (start - submitted).as_nanos() as u64,
        parts,
    })
}

/// Runs `(channel, shard)` pairs as one batch on the current pool, as
/// the cluster does, and returns the reports in order with the batch's
/// cost.
fn fan_out(
    work: Vec<(&mut RecNmpSystem, &SlsTrace)>,
) -> Result<(Vec<RunReport>, Layers), SimError> {
    let pool = recnmp_exec::current();
    let submitted = Instant::now();
    let tasks: Vec<_> = work
        .into_iter()
        .map(|(channel, shard)| move || run_channel(channel, shard, submitted))
        .collect();
    let tasks_n = tasks.len() as u64;
    let runs = pool.run_vec(tasks)?;
    let batch_ns = elapsed_ns(submitted);
    let mut cost = Layers {
        exec_tasks: tasks_n,
        exec_batch_ns: batch_ns,
        exec_capacity_ns: batch_ns * pool.workers() as u64,
        ..Layers::default()
    };
    let mut reports = Vec::with_capacity(runs.len());
    for run in runs {
        cost.exec_wait_ns += run.wait_ns;
        cost.exec_busy_ns += run.parts.compile_ns + run.parts.run_ns;
        cost.absorb(&run.parts);
        reports.push(run.report);
    }
    Ok((reports, cost))
}

impl SlsBackend for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError> {
        if !self.traced {
            let report = self.inner.try_run(trace)?;
            self.check(trace.total_lookups(), &report);
            return Ok(report);
        }
        let started = Instant::now();
        let name = self.inner.name().to_string();
        let shards = match self.inner.placement() {
            Some(plan) => trace.shard_with_plan(plan),
            None => trace.shard(self.inner.channels(), self.inner.sharding()),
        };
        let shard_ns = elapsed_ns(started);
        let work = self.inner.channels_mut().iter_mut().zip(&shards).collect();
        let (reports, mut parts) = fan_out(work)?;
        parts.shard_ns = shard_ns;
        let mut merged = RunReport::for_system(name);
        for report in reports {
            merged.absorb_parallel(report);
        }
        self.record(started, parts);
        self.check(trace.total_lookups(), &merged);
        Ok(merged)
    }

    fn server_count(&self) -> usize {
        self.inner.server_count()
    }

    fn try_run_on(&mut self, server: usize, trace: &SlsTrace) -> Result<RunReport, SimError> {
        if !self.traced {
            let report = self.inner.try_run_on(server, trace)?;
            self.check(trace.total_lookups(), &report);
            return Ok(report);
        }
        let started = Instant::now();
        let run = run_channel(&mut self.inner.channels_mut()[server], trace, started)?;
        self.record(started, run.parts);
        self.check(trace.total_lookups(), &run.report);
        Ok(run.report)
    }

    fn try_run_shards(&mut self, shards: &[(usize, SlsTrace)]) -> Result<Vec<RunReport>, SimError> {
        let reports = if self.traced {
            let started = Instant::now();
            let mut slots: Vec<Option<&SlsTrace>> = vec![None; self.inner.channels()];
            for (channel, shard) in shards {
                slots[*channel] = Some(shard);
            }
            let work = self
                .inner
                .channels_mut()
                .iter_mut()
                .zip(slots)
                .filter_map(|(channel, slot)| slot.map(|shard| (channel, shard)))
                .collect();
            let (reports, parts) = fan_out(work)?;
            self.record(started, parts);
            reports
        } else {
            self.inner.try_run_shards(shards)?
        };
        for ((_, shard), report) in shards.iter().zip(&reports) {
            self.check(shard.total_lookups(), report);
        }
        Ok(reports)
    }

    fn prefetch_on(
        &mut self,
        server: usize,
        addrs: &[PhysAddr],
        vector_bytes: u32,
        budget_cycles: Cycle,
    ) -> u64 {
        self.inner
            .prefetch_on(server, addrs, vector_bytes, budget_cycles)
    }

    fn reset_caches(&mut self) {
        self.inner.reset_caches();
    }
}
