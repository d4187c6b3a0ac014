//! Simulator-throughput benchmark: simulated lookups per wall-clock
//! second for every execution backend, the pooled-cluster scaling ratio,
//! and the channel-count sweep that proves the thread-per-channel
//! ceiling is gone. Emits `BENCH_throughput.json` so successive PRs have
//! a performance trajectory to defend.
//!
//! ```text
//! cargo run -p recnmp-bench --release --bin sim_throughput -- \
//!     [--smoke] [--workers N] [--out PATH] [--baseline PATH | --baseline-from-git]
//! ```
//!
//! `--smoke` shrinks the workload; `--workers N` pins the pool size so
//! runs measure a known parallelism. `--baseline PATH` (or
//! `--baseline-from-git`, which reads `git show HEAD:./<out>`) parses
//! the committed report with [`recnmp_bench::json`] and exits 1 when the
//! workload mode differs, a backend is missing on either side, any
//! `sim_cycles` differs at all (the simulation is deterministic), or a
//! backend's `lookups_per_second` fell more than 30% (wall clock varies
//! across runners, so this gate is coarse).
//!
//! Measured systems: the host DRAM baseline, TensorDIMM, single-channel
//! RecNMP, and a 4-channel `RecNmpCluster` (per-channel tasks on the
//! `recnmp-exec` worker pool). The cluster is compared against a
//! 1-channel cluster serving the same *per-channel* workload, so the
//! reported speedup isolates the pool-parallelism win; with a
//! single-worker pool the ratio would only measure scheduling overhead,
//! so it is recorded as unmeasured (`null`) instead.
//!
//! The schema /3 `channel_sweep` section runs 4-, 64-, and 256-channel
//! clusters with equal per-channel work on the same fixed-size pool:
//! simulated channels scale two orders of magnitude while OS threads
//! stay pinned at `workers`.

use std::time::Instant;

use recnmp::{RecNmpCluster, RecNmpClusterConfig, RecNmpConfig, RecNmpSystem};
use recnmp_backend::{ShardingPolicy, SlsBackend, SlsTrace};
use recnmp_baselines::{DimmLevelNmp, DramConfig, HostBaseline};
use recnmp_bench::json::Json;
use recnmp_bench::{zipf_trace, BenchArgs};

struct Measurement {
    name: String,
    lookups: u64,
    sim_cycles: u64,
    wall_seconds: f64,
}

impl Measurement {
    fn lookups_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.lookups as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The measurement as a report entry whose first field is `id`
    /// (`name` for a backend, `channels` for a sweep step).
    fn to_json(&self, id: (&str, Json)) -> Json {
        Json::obj([
            id,
            ("lookups", self.lookups.into()),
            ("sim_cycles", self.sim_cycles.into()),
            ("wall_seconds", Json::fixed(self.wall_seconds, 6)),
            (
                "lookups_per_second",
                Json::fixed(self.lookups_per_second(), 1),
            ),
        ])
    }
}

/// A multi-table SLS workload with hashed physical placement (the shared
/// conformance-test address pattern), table `t` drawn from `seed + t`.
fn workload(tables: u32, batch: usize, pooling: usize, seed: u64) -> SlsTrace {
    zipf_trace(tables, batch, pooling, |t| seed + u64::from(t))
}

fn measure(name: &str, backend: &mut dyn SlsBackend, trace: &SlsTrace) -> Measurement {
    let start = Instant::now();
    let report = backend
        .try_run(trace)
        .unwrap_or_else(|e| panic!("{name} stalled: {e}"));
    let wall_seconds = start.elapsed().as_secs_f64();
    assert_eq!(report.insts, trace.total_lookups(), "{name} lost lookups");
    Measurement {
        name: name.to_string(),
        lookups: report.insts,
        sim_cycles: report.total_cycles,
        wall_seconds,
    }
}

/// Compares fresh measurements against the committed report; returns
/// failure messages. Four gates:
///
/// * both runs must use the same workload (`mode`): per-lookup costs
///   differ across workload sizes;
/// * coverage is two-way: every fresh backend must exist in the
///   committed report and every committed backend must still be
///   measured, so a rename, addition or deletion cannot silently fall out
///   of the gate;
/// * `sim_cycles` must match **exactly** — the simulation is
///   deterministic, so any difference is a semantic change that needs a
///   deliberate baseline regeneration (this gate is hardware-independent);
/// * `lookups_per_second` must not regress more than 30% (the coarse
///   wall-clock gate; the slack absorbs runner-to-runner variance).
fn check_baseline(committed: &Json, mode: &str, fresh: &[&Measurement]) -> Vec<String> {
    const MAX_REGRESSION: f64 = 0.30;
    let committed_mode = committed.get("mode").and_then(Json::as_str);
    if committed_mode != Some(mode) {
        return vec![format!(
            "measured in {:?} mode but this run is {mode:?}; per-lookup costs differ \
             across workload sizes, so the comparison would be meaningless",
            committed_mode.unwrap_or_default()
        )];
    }
    let backends = committed.get("backends").and_then(Json::as_array);
    let Some(backends) = backends.filter(|b| !b.is_empty()) else {
        return vec!["no backend measurements found".into()];
    };
    let backends: Vec<(&str, &Json)> = backends
        .iter()
        .map(|b| (b.get("name").and_then(Json::as_str).unwrap_or_default(), b))
        .collect();
    let mut failures = Vec::new();
    for (name, _) in &backends {
        if !fresh.iter().any(|m| m.name == *name) {
            failures.push(format!(
                "{name}: in the committed baseline but no longer measured \
                 (regenerate the baseline deliberately)"
            ));
        }
    }
    for m in fresh {
        let Some((_, committed)) = backends.iter().find(|(name, _)| *name == m.name) else {
            failures.push(format!(
                "{}: not present in the committed baseline (regenerate it)",
                m.name
            ));
            continue;
        };
        let field = |key: &str| committed.get(key).and_then(Json::as_f64);
        let (Some(cycles), Some(lps)) = (field("sim_cycles"), field("lookups_per_second")) else {
            failures.push(format!(
                "{}: committed entry lacks sim_cycles or lookups_per_second",
                m.name
            ));
            continue;
        };
        if m.sim_cycles as f64 != cycles {
            failures.push(format!(
                "{}: simulated {} cycles vs committed {} — simulation \
                 semantics changed; regenerate the baseline deliberately",
                m.name, m.sim_cycles, cycles
            ));
        }
        let now = m.lookups_per_second();
        if now < lps * (1.0 - MAX_REGRESSION) {
            failures.push(format!(
                "{}: {:.0} lookups/s vs committed {:.0} ({:+.1}%)",
                m.name,
                now,
                lps,
                (now / lps - 1.0) * 100.0
            ));
        }
    }
    failures
}

fn cluster(channels: usize) -> RecNmpCluster {
    let config = RecNmpClusterConfig::builder()
        .channels(channels)
        .dimms(4)
        .ranks_per_dimm(2)
        .sharding(ShardingPolicy::RoundRobin)
        .build()
        .expect("valid cluster config");
    RecNmpCluster::new(config).expect("valid cluster")
}

/// Channel counts of the scaling sweep: the old thread-per-channel
/// design capped out near the low end; the pool runs the high end on
/// the same fixed thread budget.
const CHANNEL_SWEEP: [usize; 3] = [4, 64, 256];

fn main() {
    let args = BenchArgs::parse(std::env::args().skip(1), |arg| {
        Err(format!("unknown argument: {arg}"))
    })
    .unwrap_or_else(|e| {
        eprintln!(
            "{e}\nusage: sim_throughput [--smoke] [--workers N] [--out PATH] \
             [--baseline PATH | --baseline-from-git]"
        );
        std::process::exit(2);
    });
    args.pin_workers();
    let (smoke, out) = (
        args.smoke,
        args.out.as_deref().unwrap_or("BENCH_throughput.json"),
    );
    // The committed baseline must be captured before the fresh run
    // overwrites `out`.
    let committed = args.baseline.map(|b| b.read(out));
    let (tables, batch, pooling) = if smoke { (4, 4, 32) } else { (16, 16, 80) };
    let trace = workload(tables, batch, pooling, 7);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = recnmp_exec::current().workers();

    println!(
        "sim_throughput ({}): {} tables x batch {} x pooling {} = {} lookups, \
         {} pool worker(s), {} hardware thread(s)",
        if smoke { "smoke" } else { "full" },
        tables,
        batch,
        pooling,
        trace.total_lookups(),
        workers,
        threads
    );

    let mut results = Vec::new();
    let mut host = HostBaseline::new(4, 2).expect("host config");
    results.push(measure("host", &mut host, &trace));
    let mut td = DimmLevelNmp::tensordimm(DramConfig::with_ranks(4, 2)).expect("tensordimm config");
    results.push(measure("tensordimm", &mut td, &trace));
    let mut nmp = RecNmpSystem::new(RecNmpConfig::with_ranks(4, 2)).expect("recnmp config");
    results.push(measure("recnmp", &mut nmp, &trace));

    // Cluster scaling: equal work *per channel*, so wall-clock ratio
    // isolates the pool-parallelism win (up to 4x with >=4 workers).
    // With a single-worker pool the ratio measures scheduler overhead,
    // not parallelism, so it is reported as unmeasured rather than
    // recorded as a bogus figure.
    let quad_trace = workload(4 * tables, batch, pooling, 7);
    let single = measure("recnmp-cluster[1]", &mut cluster(1), &trace);
    let quad = measure("recnmp-cluster[4]", &mut cluster(4), &quad_trace);
    let speedup = if workers > 1 && single.wall_seconds > 0.0 {
        Some(quad.lookups_per_second() / single.lookups_per_second())
    } else {
        None
    };

    for m in results.iter().chain([&single, &quad]) {
        println!(
            "  {:<20} {:>8} lookups  {:>12} sim cycles  {:>9.3} s  {:>12.0} lookups/s",
            m.name,
            m.lookups,
            m.sim_cycles,
            m.wall_seconds,
            m.lookups_per_second()
        );
    }
    match speedup {
        Some(s) => {
            println!("  cluster[4] vs cluster[1] sim-throughput: {s:.2}x (workers: {workers})");
            if workers >= 4 && threads >= 4 && !smoke && s < 2.0 {
                eprintln!(
                    "WARNING: expected >=2x cluster speedup with {workers} workers, got {s:.2}x"
                );
            }
        }
        None => println!(
            "  cluster[4] vs cluster[1] sim-throughput: not measured \
             (workers: {workers}; a single-worker pool cannot speed itself up)"
        ),
    }

    // Channel-count sweep: one table's worth of work per channel (round
    // robin places exactly one batch on each), so per-channel load is
    // constant while the simulated topology grows 4 -> 256. The pool
    // keeps OS threads pinned at `workers` throughout — the section
    // that used to be impossible under thread-per-channel spawning.
    let mut sweep = Vec::new();
    for &channels in &CHANNEL_SWEEP {
        let sweep_trace = workload(channels as u32, batch, pooling, 7);
        let m = measure(
            &format!("recnmp-cluster[{channels}]"),
            &mut cluster(channels),
            &sweep_trace,
        );
        println!(
            "  channel_sweep[{:>3}] {:>8} lookups  {:>9.3} s  {:>12.0} lookups/s  ({} worker(s))",
            channels,
            m.lookups,
            m.wall_seconds,
            m.lookups_per_second(),
            workers
        );
        sweep.push((channels, m));
    }

    let mode = if smoke { "smoke" } else { "full" };
    let fresh: Vec<&Measurement> = results.iter().chain([&single, &quad]).collect();
    let workload = Json::obj([
        ("tables", tables.into()),
        ("batch", batch.into()),
        ("pooling", pooling.into()),
        ("lookups", trace.total_lookups().into()),
    ]);
    let backends = fresh
        .iter()
        .map(|m| m.to_json(("name", m.name.as_str().into())));
    // `throughput_speedup_vs_single` is null only when the pool has a
    // single worker (the default on single-core machines): the ratio
    // would measure scheduler overhead, not the parallelism win, and a
    // ~1x reading would read as a regression.
    let scaling = Json::obj([
        ("channels", 4u64.into()),
        ("per_channel_lookups", trace.total_lookups().into()),
        ("measured", speedup.is_some().into()),
        (
            "throughput_speedup_vs_single",
            speedup.map(|s| Json::fixed(s, 3)).into(),
        ),
    ]);
    let channel_sweep = sweep
        .iter()
        .map(|(c, m)| m.to_json(("channels", (*c).into())));
    let report = Json::obj([
        ("schema", "recnmp-sim-throughput/3".into()),
        ("mode", mode.into()),
        ("engine", "event-driven".into()),
        ("workers", workers.into()),
        ("threads_available", threads.into()),
        ("workload", workload),
        ("backends", Json::Arr(backends.collect())),
        ("cluster_scaling", scaling),
        ("channel_sweep", Json::Arr(channel_sweep.collect())),
    ]);
    std::fs::write(out, report.write()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if let Some((committed, source)) = committed {
        let committed = Json::parse(&committed).unwrap_or_else(|e| panic!("parsing {source}: {e}"));
        let failures = check_baseline(&committed, mode, &fresh);
        if failures.is_empty() {
            println!("baseline check vs {source}: ok (>30% regression gate)");
        } else {
            eprintln!("baseline check vs {source} failed:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(name: &str, sim_cycles: u64, wall_seconds: f64) -> Measurement {
        Measurement {
            name: name.into(),
            lookups: 1000,
            sim_cycles,
            wall_seconds,
        }
    }

    /// A committed report with `host` at 100k and `recnmp` at 200k
    /// lookups/s.
    fn committed() -> Json {
        Json::parse(
            r#"{"mode": "full", "backends": [
                {"name": "host", "lookups": 1000, "sim_cycles": 500, "wall_seconds": 0.010000, "lookups_per_second": 100000.0},
                {"name": "recnmp", "lookups": 1000, "sim_cycles": 90, "wall_seconds": 0.005000, "lookups_per_second": 200000.0}
            ]}"#,
        )
        .unwrap()
    }

    fn check(fresh: &[Measurement]) -> Vec<String> {
        check_baseline(&committed(), "full", &fresh.iter().collect::<Vec<_>>())
    }

    #[test]
    fn matching_run_passes_within_the_wall_clock_slack() {
        // 25% slower than committed: inside the 30% allowance.
        let fresh = [measured("host", 500, 0.0125), measured("recnmp", 90, 0.005)];
        assert_eq!(check(&fresh), Vec::<String>::new());
    }

    #[test]
    fn missing_and_extra_backends_fail() {
        let fresh = [measured("host", 500, 0.01), measured("chameleon", 70, 0.01)];
        let failures = check(&fresh);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("recnmp: in the committed baseline but no longer"));
        assert!(failures[1].starts_with("chameleon: not present in the committed baseline"));
    }

    #[test]
    fn any_sim_cycles_change_fails() {
        let fresh = [measured("host", 501, 0.01), measured("recnmp", 90, 0.005)];
        let failures = check(&fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("host: simulated 501 cycles vs committed 500"));
    }

    #[test]
    fn throughput_drop_beyond_thirty_percent_fails() {
        // recnmp at 1000 / 0.0075 s = 133k lookups/s, 33% below 200k.
        let fresh = [measured("host", 500, 0.01), measured("recnmp", 90, 0.0075)];
        let failures = check(&fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("recnmp: 133333 lookups/s vs committed 200000"));
    }

    #[test]
    fn mode_mismatch_fails_before_any_comparison() {
        let fresh = [measured("host", 1, 1.0)];
        let failures = check_baseline(&committed(), "smoke", &fresh.iter().collect::<Vec<_>>());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("meaningless"), "{failures:?}");
    }
}
