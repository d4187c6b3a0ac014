//! Host-side benchmark of the RecNMP simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay|serve-cached|fleet-faults> --seed N --seconds S --trace <0|1> [--workers N]
//! ```
//!
//! Sets the workload up several times (median reported as `setup_s`),
//! then serves passes for `--seconds`: each pass runs one of the
//! workload's seeded inputs on fresh backends and checks its outputs.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` follows every
//! untraced pass with a traced pass over the same input and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object; see `perfbench/README.md` for every metric.

mod alloc;
mod host;
mod probe;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use recnmp_exec::ExecPool;
use recnmp_types::SimError;

use probe::Layers;
use workloads::{Exact, Pass, SetupCost};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

const USAGE: &str = "usage: perfbench --workload <replay|serve-cached|fleet-faults> \
                     --seed N --seconds S --trace <0|1> [--workers N]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    // Half the hardware threads: a waiting submitter helps run its own
    // batch, so `workers` pool threads keep up to `workers + 1` busy,
    // and a pool of `nproc` oversubscribes the host.
    let mut workers = (host::nproc() / 2).max(1);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of replay, serve-cached, fleet-faults")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--workers" => {
                workers = value.parse().map_err(|_| bad("a positive integer"))?;
                if workers == 0 {
                    return Err(bad("a positive integer"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workers,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    probe::epoch();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one input's passes produced.
#[derive(Default)]
struct InputLog {
    lookups: u64,
    plain_walls: Vec<f64>,
    plain_cpus: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Digest and exact outputs of the input's first pass.
    first: Option<(u64, Exact)>,
    /// Work counters of the input's first traced pass: backend calls,
    /// pool tasks, DRAM loop iterations, channel lookups.
    first_counts: Option<[u64; 4]>,
}

/// The passes of one run.
#[derive(Default)]
struct Log {
    inputs: Vec<InputLog>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    traced_passes: u64,
    traced_wall_s: f64,
    traced_allocs: u64,
    traced_lookups: u64,
    layers: Layers,
}

fn counts(layers: &Layers) -> [u64; 4] {
    [
        layers.calls.len() as u64,
        layers.exec_tasks,
        layers.dram_loop_iterations,
        layers.channel_lookups,
    ]
}

impl Log {
    fn record(&mut self, input: usize, traced: bool, pass: Result<Pass, SimError>) {
        self.attempted += 1;
        let pass = match pass {
            Ok(pass) => pass,
            Err(e) => {
                self.fail(format!("input {input}: simulation failed: {e}"));
                return;
            }
        };
        let mut failures = pass.failures;
        let log = &mut self.inputs[input];
        log.lookups = pass.lookups;
        match &log.first {
            None => log.first = Some((pass.digest, pass.exact)),
            Some((digest, _)) if *digest != pass.digest => failures.push(format!(
                "input {input}: a {} pass changed the simulated outputs",
                if traced { "traced" } else { "repeated" }
            )),
            Some(_) => {}
        }
        if traced {
            log.traced_walls.push(pass.timing.wall_s);
            let now = counts(&pass.layers);
            match log.first_counts {
                None => log.first_counts = Some(now),
                Some(first) if first != now => failures.push(format!(
                    "input {input}: work counters moved between traced passes: {first:?} vs {now:?}"
                )),
                Some(_) => {}
            }
            self.traced_passes += 1;
            self.traced_wall_s += pass.timing.wall_s;
            self.traced_allocs += pass.timing.allocs;
            self.traced_lookups += pass.lookups;
            self.layers.absorb(&pass.layers);
        } else {
            log.plain_walls.push(pass.timing.wall_s);
            log.plain_cpus.push(pass.timing.cpu_s);
        }
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                self.fail_message(f);
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.fail_message(message);
    }

    fn fail_message(&mut self, message: String) {
        if !self.failures.contains(&message) {
            self.failures.push(message);
        }
    }
}

/// The smallest value: host interference only ever slows a pass down,
/// so a pass's fastest repetition is its least disturbed one.
fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Nearest-rank percentile of `values`.
fn percentile(values: &[u64], q: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn run(args: &Args) -> Result<(), SimError> {
    let calibration = host::calibration_mops();

    let mut setups: Vec<(f64, SetupCost)> = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let pool = ExecPool::new(args.workers)?;
        let (workload, cost) = workloads::setup(&args.workload, args.seed)?;
        setups.push((start.elapsed().as_secs_f64(), cost));
        ready = Some((pool, workload));
    }
    let (pool, mut workload) = ready.expect("at least one set-up");

    let inputs = workload.inputs();
    let mut log = Log {
        inputs: (0..inputs).map(|_| InputLog::default()).collect(),
        ..Log::default()
    };
    recnmp_exec::with_pool(&pool, || {
        let start = Instant::now();
        let mut round = 0;
        while round < inputs || start.elapsed().as_secs_f64() < args.seconds {
            let input = round % inputs;
            log.record(input, false, workload.pass(input, false));
            if args.trace {
                log.record(input, true, workload.pass(input, true));
            }
            round += 1;
        }
    });

    let digest = workloads::fnv(
        &log.inputs
            .iter()
            .flat_map(|i| i.first.as_ref().map_or(0, |(d, _)| *d).to_le_bytes())
            .collect::<Vec<u8>>(),
    );
    let setup_s = median(&setups.iter().map(|(s, _)| *s).collect::<Vec<_>>());
    let metrics = if args.trace {
        per_layer(&log, &setups)
    } else {
        end_to_end(&log, setup_s)
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={} pool_workers={} calibration_mops={calibration:.1} \
         (describes the host; gates nothing)",
        host::nproc(),
        pool.workers()
    );
    println!(
        "model: the modelled RankCache and host cache start empty in every pass \
         (fresh backends); no accuracy figure is reported: the model has no hardware reference"
    );
    println!(
        "passes attempted={} failed={} inputs={inputs} setup_s={setup_s:.6}",
        log.attempted, log.failed
    );
    println!(
        "set-ups s {:?}",
        setups.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
    println!("sim.digest {digest:016x}");
    for (i, input) in log.inputs.iter().enumerate() {
        let mut walls = input.plain_walls.clone();
        walls.sort_by(f64::total_cmp);
        println!(
            "input {i}: lookups={} untraced passes={} wall_s {:?}",
            input.lookups,
            walls.len(),
            walls
        );
    }
    for f in &log.failures {
        println!("check failed: {f}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    if args.trace {
        for (name, value, unit) in layer_seconds(&log) {
            println!("layer {name} {value} {unit} per traced pass");
        }
    }
    let json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        log.failed == 0,
        log.attempted,
        log.failed,
        json.join(", ")
    );
    Ok(())
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(log: &Log, setup_s: f64) -> Vec<Metric> {
    let lookups: u64 = log.inputs.iter().map(|i| i.lookups).sum();
    let wall: f64 = log.inputs.iter().map(|i| best(&i.plain_walls)).sum();
    let cpu: f64 = log.inputs.iter().map(|i| best(&i.plain_cpus)).sum();
    vec![
        ("lookups_per_s", ratio(lookups as f64, wall), "1/s"),
        ("cpu_s_per_mlookup", ratio(cpu, lookups as f64 / 1e6), "s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", host::peak_rss_mib(), "MiB"),
    ]
}

/// Host seconds per traced pass of the layers the JSON reports as
/// shares; zero where a workload bypasses the layer.
fn layer_seconds(log: &Log) -> Vec<Metric> {
    let l = &log.layers;
    let per_pass = |ns: u64| ratio(ns as f64 / 1e9, log.traced_passes as f64);
    vec![
        (
            "bench.pass_s",
            ratio(log.traced_wall_s, log.traced_passes as f64),
            "s",
        ),
        ("backend.shard_s", per_pass(l.shard_ns), "s"),
        ("baselines.host_s", per_pass(l.host_ns), "s"),
        ("serving.self_s", per_pass(l.sched_self_ns), "s"),
        ("exec.batch_s", per_pass(l.exec_batch_ns), "s"),
        ("exec.busy_s", per_pass(l.exec_busy_ns), "s"),
        ("exec.wait_s", per_pass(l.exec_wait_ns), "s"),
    ]
}

fn per_layer(log: &Log, setups: &[(f64, SetupCost)]) -> Vec<Metric> {
    let l = &log.layers;
    let passes = log.traced_passes as f64;
    let wall_ns = log.traced_wall_s * 1e9;
    let per_pass = |ns: u64| ratio(ns as f64 / 1e9, passes);
    let plain: f64 = log.inputs.iter().map(|i| best(&i.plain_walls)).sum();
    let traced: f64 = log.inputs.iter().map(|i| best(&i.traced_walls)).sum();
    let call_us: Vec<u64> = l.calls.iter().map(|&(_, d)| d / 1000).collect();

    // Exact outputs and work counters, once per input.
    let mut exact = Exact::default();
    let mut work = [0u64; 4];
    for input in &log.inputs {
        if let Some((_, e)) = &input.first {
            exact.absorb(e);
        }
        for (w, c) in work.iter_mut().zip(input.first_counts.unwrap_or_default()) {
            *w += c;
        }
    }
    let [calls, tasks, loops, channel_lookups] = work;
    let median_of =
        |f: fn(&SetupCost) -> f64| median(&setups.iter().map(|(_, c)| f(c)).collect::<Vec<_>>());

    vec![
        ("trace.gen_s", median_of(|c| c.gen_s), "s"),
        ("backend.build_s", median_of(|c| c.build_s), "s"),
        ("core.compile_s", per_pass(l.compile_ns), "s"),
        ("core.run_s", per_pass(l.run_ns), "s"),
        (
            "core.compile_share",
            ratio(l.compile_ns as f64, (l.compile_ns + l.run_ns) as f64),
            "frac",
        ),
        ("backend.call_s", per_pass(l.call_ns()), "s"),
        (
            "backend.call_p50_us",
            percentile(&call_us, 0.50) as f64,
            "us",
        ),
        (
            "backend.call_p99_us",
            percentile(&call_us, 0.99) as f64,
            "us",
        ),
        (
            "backend.shard_share",
            ratio(l.shard_ns as f64, wall_ns),
            "frac",
        ),
        (
            "baselines.host_share",
            ratio(l.host_ns as f64, wall_ns),
            "frac",
        ),
        (
            "serving.self_share",
            ratio(l.sched_self_ns as f64, wall_ns),
            "frac",
        ),
        (
            "exec.batch_share",
            ratio(l.exec_batch_ns as f64, wall_ns),
            "frac",
        ),
        (
            "exec.wait_share",
            ratio(
                l.exec_wait_ns as f64,
                (l.exec_wait_ns + l.exec_busy_ns) as f64,
            ),
            "frac",
        ),
        (
            "exec.utilization",
            ratio(l.exec_busy_ns as f64, l.exec_capacity_ns as f64),
            "frac",
        ),
        (
            "alloc.per_lookup",
            ratio(log.traced_allocs as f64, log.traced_lookups as f64),
            "count",
        ),
        (
            "alloc.compile_per_lookup",
            ratio(l.compile_allocs as f64, l.channel_lookups as f64),
            "count",
        ),
        (
            "alloc.run_per_lookup",
            ratio(l.run_allocs as f64, l.channel_lookups as f64),
            "count",
        ),
        (
            "bench.trace_overhead_frac",
            ratio(traced, plain) - 1.0,
            "frac",
        ),
        ("backend.calls", calls as f64, "count"),
        ("exec.tasks", tasks as f64, "count"),
        ("dram.loop_iterations", loops as f64, "count"),
        (
            "dram.loop_iterations_per_lookup",
            ratio(loops as f64, channel_lookups as f64),
            "count",
        ),
        ("core.packets", exact.packets as f64, "count"),
        ("core.insts", exact.insts as f64, "count"),
        ("core.sim_cycles", exact.sim_cycles as f64, "cycles"),
        (
            "cache.rank_hit_rate",
            ratio(exact.rank_hits as f64, exact.rank_accesses as f64),
            "frac",
        ),
        (
            "sim.host_hit_rate",
            ratio(
                exact.host_hits as f64,
                (exact.host_hits + exact.host_misses) as f64,
            ),
            "frac",
        ),
        (
            "sim.p50_cycles",
            percentile(&exact.latencies, 0.50) as f64,
            "cycles",
        ),
        (
            "sim.p99_cycles",
            percentile(&exact.latencies, 0.99) as f64,
            "cycles",
        ),
        ("sim.completed", exact.completed as f64, "count"),
        ("sim.failovers", exact.failovers as f64, "count"),
        ("sim.retries", exact.retries as f64, "count"),
        ("sim.hedges", exact.hedges as f64, "count"),
        ("sim.rejected", exact.rejected as f64, "count"),
        ("sim.shed", exact.shed as f64, "count"),
        ("sim.failed", exact.failed as f64, "count"),
    ]
}
