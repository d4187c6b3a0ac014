//! Query-serving benchmark: throughput–latency curves under open-loop
//! Poisson load, one mode per committed report.
//!
//! ```text
//! cargo run -p recnmp-bench --release --bin serve_sweep -- \
//!     [--placement | --tiering | --fleet | --caching | --resilience] \
//!     [--smoke] [--workers N] [--out PATH] [--baseline PATH | --baseline-from-git]
//! ```
//!
//! At most one mode flag; without one the bin runs the serving sweep.
//! Mode `--NAME` writes `BENCH_NAME.json` (the default, `BENCH_serving.json`):
//!
//! * serving: host, TensorDIMM and the 4-channel RecNMP cluster under
//!   every dispatch policy.
//! * `--placement`: the 4-channel cluster under hash / capacity-greedy /
//!   frequency-balanced placement with skewed per-table traffic.
//! * `--tiering`: 4 DRAM channels + 2 SSD-class units, hash vs frequency
//!   tiering, footprint/DRAM ratio 0.5x–8x.
//! * `--fleet`: 1→N reference nodes, sharding vs hot-table replication.
//!   Verdict: the 1-node fleet's sharded curve equals the bare cluster's.
//! * `--caching`: a host hot-embedding cache over capacity × placement,
//!   plus RankCache prefetch. Verdict: the 1 MiB cache over residual-load
//!   frequency placement knees later or tails lower than the cache-less
//!   frequency baseline.
//! * `--resilience`: the 4-node fleet through node-crash and slow-channel
//!   faults × replicated/sharded × p95 hedging. Verdict: replicated+hedged
//!   keeps >= 90% of its pre-crash goodput while sharded collapses.
//!
//! Each mode's workload is defined once, by its experiment in
//! [`recnmp_sim::experiments`]: the query shape, and for tiering, fleet
//! and resilience the tier geometry, hot-table count and whole fault
//! spec. `--smoke` takes them at [`Scale::Quick`], the default at
//! [`Scale::Full`]. Only each mode's sweep grid (loads, query and node
//! counts, seed) is set here, since the committed reports pin it.
//!
//! A broken verdict exits 1 after the report is written. `--smoke`
//! shrinks the workload; `--workers N` pins the pool size (curves are
//! byte-identical at any count). `--baseline PATH` diffs the fresh report
//! against the committed one with [`recnmp_bench::json::diff_json`] and
//! exits 1 naming every differing field: the simulation is
//! deterministic, so the only slack is the golden gate's 1% for float
//! jitter, and keys, labels and verdict bools compare exactly.
//! `--baseline-from-git` reads the committed file from `git show
//! HEAD:./<out>` instead. Every run that parsed its arguments prints the
//! process's peak RSS (`VmHWM`) to stderr on exit, informational only.

use std::process::ExitCode;

use recnmp_backend::{PlacementPolicy, SlsBackend};
use recnmp_baselines::{DimmLevelNmp, DramConfig, HostBaseline};
use recnmp_bench::json::{diff_json, Json, DEFAULT_TOL};
use recnmp_bench::BenchArgs;
use recnmp_sim::experiments::{self, Scale};
use recnmp_sim::serving::fleet::{resilience_sweep, Fleet, FleetDispatch};
use recnmp_sim::serving::{
    anchored_sweep, qps_sweep_at, reference_caching_arms, reference_channel_capacity,
    reference_cluster4, reference_cluster4_optimized, reference_tiered, ArrivalProcess,
    DispatchPolicy, QueryShape, ServingMode, ShardedDispatch, SweepCurve, SweepPoint, SweepSpec,
    TieredPolicy,
};
use recnmp_types::units::{cycles_to_us, DDR4_2400_CYCLE_SECS};

const SEED: u64 = 0x5e12_2026;

const USAGE: &str = "usage: serve_sweep [--placement | --tiering | --fleet | --caching | \
                     --resilience] [--smoke] [--workers N] [--out PATH] \
                     [--baseline PATH | --baseline-from-git]";

/// One committed report and the sweep that writes it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Serving,
    Placement,
    Tiering,
    Fleet,
    Caching,
    Resilience,
}

impl Mode {
    const ALL: [Mode; 6] = [
        Mode::Serving,
        Mode::Placement,
        Mode::Tiering,
        Mode::Fleet,
        Mode::Caching,
        Mode::Resilience,
    ];

    fn name(self) -> &'static str {
        match self {
            Mode::Serving => "serving",
            Mode::Placement => "placement",
            Mode::Tiering => "tiering",
            Mode::Fleet => "fleet",
            Mode::Caching => "caching",
            Mode::Resilience => "resilience",
        }
    }

    /// The flag selecting the mode; the serving sweep is the default.
    fn flag(self) -> Option<String> {
        (self != Mode::Serving).then(|| format!("--{}", self.name()))
    }

    fn default_out(self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    fn run(self, scale: Scale) -> Report {
        match self {
            Mode::Serving => run_serving(scale),
            Mode::Placement => run_placement(scale),
            Mode::Tiering => run_tiering(scale),
            Mode::Fleet => run_fleet(scale),
            Mode::Caching => run_caching(scale),
            Mode::Resilience => run_resilience(scale),
        }
    }
}

/// A rendered report and the run's own verdict: `Err` explains which
/// always-checked invariant broke.
type Report = (Json, Result<(), String>);

/// Parses the command line into a mode and the shared options; at most
/// one mode flag.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Mode, BenchArgs), String> {
    let mut mode = None;
    let common = BenchArgs::parse(args, |flag| {
        let Some(m) = Mode::ALL
            .into_iter()
            .find(|m| m.flag().as_deref() == Some(flag))
        else {
            return Err(format!("unknown argument: {flag}"));
        };
        match mode.replace(m) {
            Some(first) => Err(format!(
                "{flag} conflicts with {}: pass at most one mode flag",
                first.flag().unwrap_or_default()
            )),
            None => Ok(()),
        }
    })?;
    Ok((mode.unwrap_or(Mode::Serving), common))
}

/// One measured load point.
fn point(p: &SweepPoint) -> Json {
    let (p50, p95, p99) = p.summary.percentiles_us();
    let mean_us = p.summary.mean * DDR4_2400_CYCLE_SECS * 1e6;
    Json::obj([
        ("offered_qps", Json::fixed(p.offered_qps, 1)),
        ("utilization", Json::fixed(p.utilization, 2)),
        ("achieved_qps", Json::fixed(p.achieved_qps, 1)),
        ("p50_us", Json::fixed(p50, 3)),
        ("p95_us", Json::fixed(p95, 3)),
        ("p99_us", Json::fixed(p99, 3)),
        ("mean_us", Json::fixed(mean_us, 3)),
        ("max_us", Json::fixed(cycles_to_us(p.summary.max), 3)),
        ("sustained", p.sustained().into()),
    ])
}

/// One curve: its identifying `labels`, then its saturation anchor, knee
/// (`null` when nothing was sustained) and points.
fn curve<'a, A>(labels: impl IntoIterator<Item = (&'a str, Json)>, c: &SweepCurve<A>) -> Json {
    let knee = c.knee().map(|p| Json::fixed(p.offered_qps, 1));
    Json::obj(labels.into_iter().chain([
        ("saturation_qps", Json::fixed(c.saturation_qps, 1)),
        ("knee_qps", knee.into()),
        ("points", Json::Arr(c.points.iter().map(point).collect())),
    ]))
}

/// The curves of a single-node sweep, labeled by system and policy.
fn labeled_curves(curves: &[(String, SweepCurve)]) -> Json {
    let curves = curves.iter().map(|(system, c)| {
        let labels = [
            ("system", system.as_str().into()),
            ("policy", c.arm.name().into()),
        ];
        curve(labels, c)
    });
    Json::Arr(curves.collect())
}

/// A report: the common header — schema, mode, arrival process, seed and
/// the workload shape with the mode's `extra` knobs between `table_skew`
/// and `lookups_per_query` — then the mode's `body` fields.
fn report<'a>(
    schema: &str,
    scale: Scale,
    (process, seed, s): (ArrivalProcess, u64, QueryShape),
    extra: impl IntoIterator<Item = (&'a str, Json)>,
    body: impl IntoIterator<Item = (&'a str, Json)>,
) -> Json {
    let shape = Json::obj(
        [
            ("tables", s.tables.into()),
            ("batch", s.batch.into()),
            ("pooling", s.pooling.into()),
            ("table_skew", Json::fixed(s.table_skew, 2)),
        ]
        .into_iter()
        .chain(extra)
        .chain([("lookups_per_query", s.lookups_per_query().into())]),
    );
    let header = [
        ("schema", schema.into()),
        (
            "mode",
            match scale {
                Scale::Quick => "smoke",
                Scale::Full => "full",
            }
            .into(),
        ),
        ("arrival_process", process.name().into()),
        ("seed", seed.into()),
        ("shape", shape),
    ];
    Json::obj(header.into_iter().chain(body))
}

/// The single-node sweep reports (serving, placement): queries per point
/// and the labeled curves.
fn sweep_report(
    schema: &str,
    scale: Scale,
    spec: &SweepSpec,
    curves: &[(String, SweepCurve)],
) -> Json {
    let body = [
        ("queries_per_point", spec.queries.into()),
        ("curves", labeled_curves(curves)),
    ];
    let run = (spec.process, spec.seed, spec.shape);
    report(schema, scale, run, [], body)
}

/// The load grid shared by the single-node sweeps.
fn sweep_spec(scale: Scale, shape: QueryShape) -> SweepSpec {
    SweepSpec {
        process: ArrivalProcess::Poisson,
        shape,
        utilizations: match scale {
            Scale::Quick => vec![0.3, 0.6, 0.9, 1.2],
            Scale::Full => vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
        },
        queries: scale.scaled(24, 48),
        probe_queries: scale.scaled(8, 12),
        seed: SEED,
    }
}

/// Prints a report without its per-point detail: each top-level field on
/// a line, then each curve or arm as its scalar fields.
fn summarize(report: &Json) {
    let Json::Obj(fields) = report else { return };
    for (key, value) in fields {
        let Some(items) = value.as_array() else {
            println!("{key}: {}", value.write().trim_end());
            continue;
        };
        for item in items {
            let Json::Obj(item) = item else { continue };
            let scalars: Vec<String> = item
                .iter()
                .filter(|(_, v)| !v.is_container())
                .map(|(k, v)| format!("{k} {}", v.write().trim_end()))
                .collect();
            println!("  {}", scalars.join("  "));
        }
    }
}

fn run_serving(scale: Scale) -> Report {
    let spec = sweep_spec(scale, experiments::serving::tail_latency_shape(scale));
    let host: fn() -> Box<dyn SlsBackend> =
        || Box::new(HostBaseline::new(4, 2).expect("host config"));
    let tensordimm: fn() -> Box<dyn SlsBackend> =
        || Box::new(DimmLevelNmp::tensordimm(DramConfig::with_ranks(4, 2)).expect("tensordimm"));
    let backends = [
        ("host", host),
        ("tensordimm", tensordimm),
        ("recnmp-cluster[4]", reference_cluster4),
    ];
    // Every dispatch policy sweeps at fractions of the backend's FIFO
    // saturation.
    let modes = DispatchPolicy::ALL.map(ServingMode::Queued);
    let mut labeled: Vec<(String, SweepCurve)> = Vec::new();
    for (label, mut factory) in backends {
        let curves = anchored_sweep(&mut factory, modes[0], &modes, &spec)
            .unwrap_or_else(|e| panic!("serving sweep failed: {e}"));
        labeled.extend(curves.into_iter().map(|c| (label.to_string(), c)));
    }
    // Schema /2: the shape object gained `table_skew`.
    let report = sweep_report("recnmp-serving/2", scale, &spec, &labeled);
    (report, Ok(()))
}

fn run_placement(scale: Scale) -> Report {
    let spec = sweep_spec(scale, experiments::serving::placement_shape(scale));
    let arms = PlacementPolicy::COMPARED.map(|placement| {
        ServingMode::Sharded(ShardedDispatch {
            channel_capacity: Some(reference_channel_capacity()),
            ..ShardedDispatch::new(placement)
        })
    });
    let curves = anchored_sweep(&mut reference_cluster4, arms[0], &arms, &spec)
        .unwrap_or_else(|e| panic!("placement sweep failed: {e}"));
    let labeled: Vec<(String, SweepCurve)> = curves
        .into_iter()
        .map(|c| ("recnmp-cluster[4]".to_string(), c))
        .collect();
    let report = sweep_report("recnmp-placement/1", scale, &spec, &labeled);
    (report, Ok(()))
}

fn run_tiering(scale: Scale) -> Report {
    // The capacity workload of `fig_capacity` on its 4 DRAM channels +
    // 2 SSD units, at each of its footprint/DRAM ratios.
    let shape = experiments::storage::capacity_shape(scale);
    let mut spec = sweep_spec(scale, shape);
    if scale == Scale::Quick {
        (spec.queries, spec.probe_queries) = (14, 6);
    }
    let mut labeled: Vec<(String, SweepCurve)> = Vec::new();
    for (num, den, ratio) in experiments::storage::RATIOS {
        let tiers = experiments::storage::tiers_at(num, den);
        let mut factory = || reference_tiered(tiers);
        let anchor = ServingMode::tiered(TieredPolicy::FrequencyTiered { replicate_hot: 0 }, tiers);
        let arms = TieredPolicy::COMPARED.map(|policy| ServingMode::tiered(policy, tiers));
        let curves = anchored_sweep(&mut factory, anchor, &arms, &spec)
            .unwrap_or_else(|e| panic!("tiered sweep at {ratio} failed: {e}"));
        labeled.extend(
            curves
                .into_iter()
                .map(|c| (format!("tiered[4+2]@{ratio}"), c)),
        );
    }
    let extra = [
        ("skew_rotate", shape.skew_rotate.into()),
        ("sample_tables", shape.sample_tables.into()),
    ];
    let body = [
        (
            "footprint_bytes",
            experiments::storage::FOOTPRINT_BYTES.into(),
        ),
        ("queries_per_point", spec.queries.into()),
        ("curves", labeled_curves(&labeled)),
    ];
    let run = (spec.process, spec.seed, shape);
    (report("recnmp-tiering/1", scale, run, extra, body), Ok(()))
}

fn run_fleet(scale: Scale) -> Report {
    // The workload and hot-table count of `fig_fleet`, over this sweep's
    // own node counts and loads.
    let shape = experiments::fleet::fleet_shape(scale);
    let node_counts: &[usize] = match scale {
        Scale::Quick => &[1, 2],
        Scale::Full => &[1, 2, 4, 8, 16],
    };
    let (queries_per_node, probe_per_node) = (scale.scaled(24, 48), scale.scaled(10, 16));
    let utilizations: Vec<f64> = match scale {
        Scale::Quick => vec![0.4, 0.8, 1.2],
        Scale::Full => vec![0.3, 0.5, 0.7, 0.9, 1.1, 1.3],
    };
    let dispatches = [
        FleetDispatch::replicated(experiments::fleet::hot_tables(scale)),
        FleetDispatch::sharded(),
    ];
    let mut curves: Vec<(usize, SweepCurve<FleetDispatch>)> = Vec::new();
    let mut node1_equal = false;
    for &nodes in node_counts {
        let spec = SweepSpec {
            utilizations: utilizations.clone(),
            queries: queries_per_node * nodes,
            probe_queries: probe_per_node * nodes,
            ..sweep_spec(scale, shape)
        };
        let mut make = move || Fleet::reference(nodes);
        let swept = anchored_sweep(&mut make, dispatches[0], &dispatches, &spec)
            .unwrap_or_else(|e| panic!("fleet sweep at {nodes} node(s) failed: {e}"));
        if nodes == 1 {
            // The router-costs-nothing invariant: the 1-node fleet's
            // sharded curve must exactly equal the bare cluster under the
            // same sharded dispatch, anchor and loads.
            let sharded = &swept[1];
            let offered: Vec<f64> = sharded.points.iter().map(|p| p.offered_qps).collect();
            let mode = ServingMode::Sharded(ShardedDispatch {
                placement: dispatches[1].within_policy,
                gather: dispatches[1].gather,
                channel_capacity: dispatches[1].channel_capacity,
                host_cache: None,
                prefetch: None,
            });
            let saturation = sharded.saturation_qps;
            let cluster_curve =
                qps_sweep_at(&mut reference_cluster4, mode, &spec, saturation, &offered)
                    .unwrap_or_else(|e| panic!("bare-cluster equality sweep failed: {e}"));
            node1_equal = sharded.points == cluster_curve.points;
        }
        curves.extend(swept.into_iter().map(|c| (nodes, c)));
    }
    let curves = curves.iter().map(|(nodes, c)| {
        let labels = [
            ("system", c.system.as_str().into()),
            ("nodes", (*nodes).into()),
            ("placement", c.arm.label().as_str().into()),
            ("router", c.arm.router.name().into()),
        ];
        curve(labels, c)
    });
    let body = [
        ("queries_per_node", queries_per_node.into()),
        ("node1_equals_cluster", node1_equal.into()),
        ("curves", Json::Arr(curves.collect())),
    ];
    let extra = [("sample_tables", shape.sample_tables.into())];
    let run = (ArrivalProcess::Poisson, SEED, shape);
    (
        report("recnmp-fleet/1", scale, run, extra, body),
        node1_equal.then_some(()).ok_or_else(|| {
            "node-1 fleet diverged from the bare cluster: the router layer must be free at \
             one node"
                .to_string()
        }),
    )
}

fn run_caching(scale: Scale) -> Report {
    // The co-design verdict compares the largest co-designed arm against
    // the cache-less frequency baseline at the shared loads.
    const ARM: &str = "cached-frequency@1MiB";
    const BASELINE: &str = "sharded-frequency";
    let shape = experiments::serving::cache_serving_shape(scale);
    let spec = sweep_spec(scale, shape);
    let arms = reference_caching_arms();
    let modes: Vec<ServingMode> = arms.iter().map(|(_, m)| *m).collect();
    let curves = anchored_sweep(&mut reference_cluster4_optimized, modes[0], &modes, &spec)
        .unwrap_or_else(|e| panic!("caching sweep failed: {e}"));
    let labeled: Vec<(String, SweepCurve)> = arms
        .into_iter()
        .map(|(label, _)| label)
        .zip(curves)
        .collect();
    let find = |label: &str| {
        &labeled
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("caching arms missing {label}"))
            .1
    };
    let (arm, baseline) = (find(ARM), find(BASELINE));
    // The cache earns its capacity by moving the knee or the tail.
    let wins = arm.knee_qps() > baseline.knee_qps() || arm.top_p99() < baseline.top_p99();
    let co_design = Json::obj([
        ("arm", ARM.into()),
        ("baseline", BASELINE.into()),
        ("arm_knee_qps", Json::fixed(arm.knee_qps(), 1)),
        ("baseline_knee_qps", Json::fixed(baseline.knee_qps(), 1)),
        ("arm_top_p99_cycles", arm.top_p99().into()),
        ("baseline_top_p99_cycles", baseline.top_p99().into()),
        ("wins", wins.into()),
    ]);
    // Curves carry the arm label as well as the policy: two
    // `cached-frequency` capacities share a policy name.
    let curves = labeled.iter().map(|(label, c)| {
        let labels = [
            ("system", "recnmp-opt-cluster[4]".into()),
            ("arm", label.as_str().into()),
            ("policy", c.arm.name().into()),
        ];
        curve(labels, c)
    });
    let body = [
        ("queries_per_point", spec.queries.into()),
        ("co_design", co_design),
        ("curves", Json::Arr(curves.collect())),
    ];
    let extra = [("row_skew", Json::fixed(shape.row_skew, 2))];
    let run = (spec.process, spec.seed, shape);
    (
        report("recnmp-caching/1", scale, run, extra, body),
        wins.then_some(()).ok_or_else(|| {
            format!(
                "cache/placement co-design lost to the bare frequency baseline: {ARM} must \
                 lift the knee or cut the top-load p99 vs {BASELINE}"
            )
        }),
    )
}

fn run_resilience(scale: Scale) -> Report {
    // The fault-injection sweep of `fig_resilience`, spec and all, on
    // the 4-node reference fleet.
    let nodes = 4;
    let spec = experiments::resilience::reference_spec(scale, nodes);
    let shape = spec.shape;
    let mut make = move || Fleet::reference(nodes);
    let sweep = resilience_sweep(&mut make, &spec)
        .unwrap_or_else(|e| panic!("resilience sweep failed: {e}"));
    let arms = sweep.arms.iter().map(|a| {
        let r = &a.report.report;
        Json::obj([
            ("faults", a.faults.into()),
            ("placement", a.placement.into()),
            ("hedge", (if a.hedged { "p95" } else { "off" }).into()),
            ("availability", Json::fixed(a.availability, 3)),
            ("pre_goodput", Json::fixed(a.pre_goodput, 3)),
            ("post_goodput", Json::fixed(a.post_goodput, 3)),
            ("sustained", a.sustained.into()),
            ("failovers", r.failovers.into()),
            ("retries", r.retries.into()),
            ("hedges", r.hedges.into()),
            ("rejected", r.queries_rejected.into()),
            ("shed", r.queries_shed.into()),
            ("failed", r.queries_failed.into()),
        ])
    });
    let (arm, baseline) = (sweep.verdict_arm(), sweep.verdict_baseline());
    let verdict = Json::obj([
        ("arm", "fleet-replicated+p95".into()),
        ("baseline", "fleet-sharded+off".into()),
        ("arm_goodput_ratio", Json::fixed(arm.goodput_ratio(), 3)),
        (
            "baseline_goodput_ratio",
            Json::fixed(baseline.goodput_ratio(), 3),
        ),
        ("sustain_fraction", Json::fixed(sweep.sustain_fraction, 2)),
        ("sustained_through_crash", arm.sustained.into()),
        ("baseline_collapsed", (!baseline.sustained).into()),
    ]);
    let body = [
        ("queries", spec.queries.into()),
        ("qps", Json::fixed(spec.qps, 1)),
        ("crashed_node", sweep.crashed_node.into()),
        ("crash_at_cycle", sweep.crash_at.into()),
        ("deadline_cycles", sweep.deadline.into()),
        ("verdict", verdict),
        ("arms", Json::Arr(arms.collect())),
    ];
    let extra = [("sample_tables", shape.sample_tables.into())];
    let run = (spec.process, spec.seed, shape);
    (
        report("recnmp-resilience/1", scale, run, extra, body),
        sweep.verdict_holds().then_some(()).ok_or_else(|| {
            format!(
                "resilience verdict broken: replicated+p95 must keep >= {:.0}% of its \
                 pre-crash goodput through the node crash while sharded placement collapses",
                100.0 * sweep.sustain_fraction
            )
        }),
    )
}

fn main() -> ExitCode {
    let (mode, args) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let code = serve_sweep(mode, args);
    recnmp_bench::print_peak_rss();
    code
}

/// Runs `mode`, writes its report and checks it against the baseline
/// `args` names, if any.
fn serve_sweep(mode: Mode, args: BenchArgs) -> ExitCode {
    args.pin_workers();
    let out = args.out.unwrap_or_else(|| mode.default_out());
    // Read the committed report before this run overwrites `out`.
    let committed = args.baseline.map(|b| b.read(&out));
    println!(
        "serve_sweep {}: {} pool worker(s)",
        mode.name(),
        recnmp_exec::current().workers()
    );
    let (report, verdict) = mode.run(if args.smoke {
        Scale::Quick
    } else {
        Scale::Full
    });
    summarize(&report);
    std::fs::write(&out, report.write()).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");

    if let Err(broken) = verdict {
        eprintln!("{broken} (see {out})");
        return ExitCode::FAILURE;
    }
    let Some((committed, source)) = committed else {
        return ExitCode::SUCCESS;
    };
    let committed = Json::parse(&committed).unwrap_or_else(|e| panic!("parsing {source}: {e}"));
    let mismatches = diff_json(&committed, &report, DEFAULT_TOL);
    if !mismatches.is_empty() {
        eprintln!("{out} differs from {source}:");
        for m in &mismatches {
            eprintln!("{m}");
        }
        eprintln!("if the change is intended, commit the regenerated {out}");
        return ExitCode::FAILURE;
    }
    println!("baseline check vs {source}: ok (structural diff, tol {DEFAULT_TOL})");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use recnmp_bench::Baseline;

    fn parse(args: &[&str]) -> Result<(Mode, BenchArgs), String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_mode_flag_runs_the_serving_sweep() {
        let (mode, args) = parse(&["--smoke", "--workers", "2"]).unwrap();
        assert_eq!(mode, Mode::Serving);
        assert_eq!(mode.default_out(), "BENCH_serving.json");
        let expected = BenchArgs {
            smoke: true,
            workers: Some(2),
            ..BenchArgs::default()
        };
        assert_eq!(args, expected);
    }

    #[test]
    fn each_flag_selects_its_mode_and_out_path() {
        let flags = [
            ("--placement", "BENCH_placement.json"),
            ("--tiering", "BENCH_tiering.json"),
            ("--fleet", "BENCH_fleet.json"),
            ("--caching", "BENCH_caching.json"),
            ("--resilience", "BENCH_resilience.json"),
        ];
        for (flag, out) in flags {
            let (mode, args) = parse(&[flag, "--baseline-from-git"]).unwrap();
            assert_eq!(mode.flag().as_deref(), Some(flag));
            assert_eq!(mode.default_out(), out);
            assert_eq!(args.baseline, Some(Baseline::Git));
        }
        let (mode, args) =
            parse(&["--out", "x.json", "--baseline", "y.json", "--caching"]).unwrap();
        assert_eq!(mode, Mode::Caching);
        assert_eq!(args.out.as_deref(), Some("x.json"));
        assert_eq!(args.baseline, Some(Baseline::File("y.json".into())));
    }

    #[test]
    fn two_mode_flags_are_a_usage_error() {
        let err = parse(&["--fleet", "--placement"]).unwrap_err();
        assert_eq!(
            err,
            "--placement conflicts with --fleet: pass at most one mode flag"
        );
        assert!(parse(&["--caching", "--smoke", "--caching"]).is_err());
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument: --bogus"
        );
        assert_eq!(parse(&["--out"]).unwrap_err(), "--out requires a path");
        assert!(parse(&["--workers", "many"]).is_err());
    }
}
