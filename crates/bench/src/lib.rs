//! Benchmark and reproduction harness for the RecNMP workspace: `repro`
//! regenerates the paper's tables and figures, `golden_check` diffs them
//! against `goldens/`, `serve_sweep` and `sim_throughput` write and check
//! the `BENCH_*.json` reports, and `cargo bench -p recnmp-bench` runs
//! three layer micro-benchmarks through [`bench()`]. Every bin does JSON
//! through [`json`].
//!
//! Each artifact's traffic is defined once, in
//! [`recnmp_sim::experiments`]: `golden_check` and `repro` time those
//! experiments themselves, and `serve_sweep` takes its query shapes from
//! them.

pub mod json;

use std::hint::black_box;
use std::time::{Duration, Instant};

use recnmp_backend::SlsTrace;
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, SlsBatch, TraceGenerator};
use recnmp_types::{PhysAddr, TableId};

/// Prints the process's peak resident set size (`VmHWM` in
/// `/proc/self/status`) to stderr. It is informational only and is never
/// gated, since it depends on the host. Prints nothing where that file
/// does not exist.
pub fn print_peak_rss() {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok());
    if let Some(kib) = kib {
        eprintln!("peak RSS {:.1} MiB (VmHWM)", kib as f64 / 1024.0);
    }
}

/// Xorshift steps in one run of the calibration kernel, about 3 ms.
const CALIBRATION_STEPS: u64 = 1 << 20;

/// One run of a fixed single-thread integer kernel, a copy of
/// perfbench's `calibration_mops` kernel (perfbench sits outside the
/// workspace). Returns its wall time.
fn calibration_run() -> Duration {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    start.elapsed()
}

/// What one [`bench()`] run measured.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median wall time of one call of the benched closure, in µs.
    pub median_us: f64,
    /// Median per-batch cost of one call in calibration-kernel xorshift
    /// steps: the batch's µs per call over the µs of the calibration run
    /// timed right after it. Host load slows both alike, so this moves
    /// less between runs than `median_us`.
    pub median_steps: f64,
}

/// Times `f` for a layer micro-benchmark: 500 ms of warm-up, then 3 s of
/// timed batches, each running `f` until at least 20 ms have passed and
/// followed by one run of the calibration kernel. One batch gives one
/// µs/iter sample and one xorshift-steps/iter sample; prints `{name}:
/// {b} batches, {n} iterations, median {x} us/iter (min {lo}, max {hi}),
/// median {s} xorshift steps/iter`. Informational only, never gated.
pub fn bench<O>(name: &str, mut f: impl FnMut() -> O) -> Summary {
    const BATCH: Duration = Duration::from_millis(20);
    let warm_up = Instant::now();
    while warm_up.elapsed() < Duration::from_millis(500) {
        black_box(f());
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut steps = Vec::new();
    let mut iterations = 0u64;
    while start.elapsed() < Duration::from_secs(3) {
        let batch = Instant::now();
        let mut calls = 0u32;
        while batch.elapsed() < BATCH {
            black_box(f());
            calls += 1;
        }
        iterations += u64::from(calls);
        let us = batch.elapsed().as_secs_f64() * 1e6 / f64::from(calls);
        let calibration_us = calibration_run().as_secs_f64() * 1e6;
        samples.push(us);
        steps.push(us / calibration_us * CALIBRATION_STEPS as f64);
    }
    samples.sort_by(f64::total_cmp);
    steps.sort_by(f64::total_cmp);
    let summary = Summary {
        median_us: samples[samples.len() / 2],
        median_steps: steps[steps.len() / 2],
    };
    println!(
        "{name}: {} batches, {iterations} iterations, median {:.1} us/iter \
         (min {:.1}, max {:.1}), median {:.0} xorshift steps/iter",
        samples.len(),
        summary.median_us,
        samples[0],
        samples[samples.len() - 1],
        summary.median_steps,
    );
    summary
}

/// A Zipf-0.9 SLS trace over `tables` DLRM-default tables, `batch`
/// poolings of `pooling` lookups each, with table `t` drawn from seed
/// `seed(t)` and placed at hashed physical addresses.
pub fn zipf_trace(
    tables: u32,
    batch: usize,
    pooling: usize,
    seed: impl Fn(u32) -> u64,
) -> SlsTrace {
    let batches: Vec<SlsBatch> = (0..tables)
        .map(|t| {
            TraceGenerator::new(
                TableId::new(t),
                EmbeddingTableSpec::dlrm_default(),
                IndexDistribution::Zipf { s: 0.9 },
                seed(t),
            )
            .batch(batch, pooling)
        })
        .collect();
    SlsTrace::from_batches(&batches, &mut |t, row| {
        PhysAddr::new(((t as u64) << 31) ^ (row * 131 * 128))
    })
}

/// The trace of one input of perfbench's `replay` workload: 64 tables x
/// 32 poolings x 80 lookups, every table drawn from `seed` (input `i` of
/// a run at seed `s` uses `s + i`).
pub fn replay_trace(seed: u64) -> SlsTrace {
    zipf_trace(64, 32, 80, |_| seed)
}

/// The options shared by the report-writing bins: `--smoke`,
/// `--workers N`, `--out PATH` and `--baseline PATH | --baseline-from-git`.
#[derive(Debug, Default, PartialEq)]
pub struct BenchArgs {
    pub smoke: bool,
    pub workers: Option<usize>,
    pub out: Option<String>,
    pub baseline: Option<Baseline>,
}

impl BenchArgs {
    /// Parses `args`, handing each argument that is not a shared option
    /// to `other`. Errors are usage errors.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        mut other: impl FnMut(&str) -> Result<(), String>,
    ) -> Result<Self, String> {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value =
                |what: &str| args.next().ok_or_else(|| format!("{arg} requires {what}"));
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--workers" => {
                    let n = value("a count")?;
                    let n = n
                        .parse()
                        .map_err(|_| format!("--workers requires a count, got {n}"))?;
                    parsed.workers = Some(n);
                }
                "--out" => parsed.out = Some(value("a path")?),
                "--baseline" => parsed.baseline = Some(Baseline::File(value("a path")?)),
                "--baseline-from-git" => parsed.baseline = Some(Baseline::Git),
                arg => other(arg)?,
            }
        }
        Ok(parsed)
    }

    /// Pins the execution-engine pool size when `--workers` was given.
    pub fn pin_workers(&self) {
        if let Some(n) = self.workers {
            recnmp_exec::set_global_workers(n).unwrap_or_else(|e| panic!("pinning pool size: {e}"));
        }
    }
}

/// Where `--baseline PATH | --baseline-from-git` reads a committed report.
#[derive(Debug, Clone, PartialEq)]
pub enum Baseline {
    /// A file on disk.
    File(String),
    /// The bin's own output path at git `HEAD`.
    Git,
}

impl Baseline {
    /// The committed text for output path `out`, with a label naming
    /// where it came from.
    pub fn read(&self, out: &str) -> (String, String) {
        match self {
            Baseline::File(path) => (
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}")),
                path.clone(),
            ),
            Baseline::Git => (git_show_head(out), format!("HEAD:./{out}")),
        }
    }
}

/// Reads the committed copy of `path` from `git show HEAD:./path`, so
/// local runs and CI share one baseline source.
pub fn git_show_head(path: &str) -> String {
    let output = std::process::Command::new("git")
        .args(["show", &format!("HEAD:./{path}")])
        .output()
        .unwrap_or_else(|e| panic!("running git show for {path}: {e}"));
    assert!(
        output.status.success(),
        "git show HEAD:./{path} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap_or_else(|e| panic!("HEAD:./{path} is not UTF-8: {e}"))
}
