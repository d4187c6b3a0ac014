//! Golden-output regression gate for the experiment harness: runs every
//! experiment in quick mode and diffs its JSON against the committed
//! golden under `goldens/`, so a change that shifts an experiment's
//! numbers fails CI instead of silently drifting.
//!
//! ```text
//! cargo run -p recnmp-bench --release --bin golden_check               # check
//! cargo run -p recnmp-bench --release --bin golden_check -- --update  # rewrite goldens
//! cargo run -p recnmp-bench --release --bin golden_check -- fig15_opt # one id
//! ```
//!
//! `--dir PATH` picks the golden directory (default `goldens`) and
//! `--tol X` the relative numeric tolerance (default 0.01, finite and
//! non-negative) of [`recnmp_bench::json::diff_json`]: every number —
//! bare, a cell like `"3.21x"`, or a figure in a note like `"knee at
//! 3208829 qps"` — compares within it, while text, keys and shape must
//! match exactly. A malformed argument exits 2 with the usage line.
//!
//! Each `ok`/`FAIL`/`updated` line carries the wall time of the
//! experiment run itself, and the last line the total, so the run times
//! the real quick-scale workloads. On exit it prints the process's peak
//! RSS to stderr. Neither figure is gated.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use recnmp_bench::json::{diff_json, Json, DEFAULT_TOL};
use recnmp_sim::experiments::{run, Scale, IDS};
use recnmp_sim::ExperimentResult;

const USAGE: &str = "usage: golden_check [--update] [--dir PATH] [--tol X] [ids...]";

/// One experiment result as a JSON value.
fn result_value(r: &ExperimentResult) -> Json {
    let tables = r.tables.iter().map(|t| {
        Json::obj([
            ("title", t.title.as_str().into()),
            ("headers", Json::strings(&t.headers)),
            (
                "rows",
                Json::Arr(t.rows.iter().map(|r| Json::strings(r)).collect()),
            ),
        ])
    });
    Json::obj([
        ("id", r.id.as_str().into()),
        ("title", r.title.as_str().into()),
        ("tables", Json::Arr(tables.collect())),
        ("notes", Json::strings(&r.notes)),
    ])
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    update: bool,
    dir: PathBuf,
    tol: f64,
    /// The experiments to check; every id in [`IDS`] when none is named.
    ids: Vec<String>,
}

/// Parses the command line. Errors are usage errors.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        update: false,
        dir: PathBuf::from("goldens"),
        tol: DEFAULT_TOL,
        ids: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} requires {what}"));
        match arg.as_str() {
            "--update" => parsed.update = true,
            "--dir" => parsed.dir = PathBuf::from(value("a path")?),
            "--tol" => {
                let tol = value("a tolerance")?;
                parsed.tol = tol
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        format!("--tol requires a finite non-negative number, got {tol}")
                    })?;
            }
            id if !id.starts_with("--") => parsed.ids.push(id.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if parsed.ids.is_empty() {
        parsed.ids = IDS.iter().map(|s| s.to_string()).collect();
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let code = golden_check(&args);
    recnmp_bench::print_peak_rss();
    code
}

fn golden_check(args: &Args) -> ExitCode {
    let Args {
        update,
        dir,
        tol,
        ids,
    } = args;
    let mut failures = 0usize;
    let mut total_secs = 0.0;
    for id in ids {
        let start = Instant::now();
        let Some(result) = run(id, Scale::Quick) else {
            eprintln!("unknown experiment `{id}`");
            failures += 1;
            continue;
        };
        let secs = start.elapsed().as_secs_f64();
        total_secs += secs;
        let current = result_value(&result);
        let path = dir.join(format!("{id}.json"));
        if *update {
            std::fs::create_dir_all(dir).expect("creating golden dir");
            std::fs::write(&path, current.write())
                .unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
            println!("updated {} ({secs:.3} s)", path.display());
            continue;
        }
        let golden = match std::fs::read_to_string(&path) {
            Ok(g) => g,
            Err(e) => {
                eprintln!(
                    "FAIL {id} ({secs:.3} s): cannot read {} ({e}); run with --update",
                    path.display()
                );
                failures += 1;
                continue;
            }
        };
        match Json::parse(&golden).map(|g| diff_json(&g, &current, *tol)) {
            Ok(mismatches) if mismatches.is_empty() => println!("ok   {id} ({secs:.3} s)"),
            Ok(mismatches) => {
                eprintln!(
                    "FAIL {id} ({secs:.3} s): output drifted from {}",
                    path.display()
                );
                for m in &mismatches {
                    eprintln!("{m}");
                }
                failures += 1;
            }
            Err(e) => {
                eprintln!("FAIL {id} ({secs:.3} s): malformed JSON: {e}");
                failures += 1;
            }
        }
    }
    println!("experiments took {total_secs:.2} s in all");
    if failures > 0 {
        eprintln!(
            "{failures} experiment(s) drifted; inspect with `repro <id>` and, if the change \
             is intended, refresh with `golden_check --update`"
        );
        return ExitCode::FAILURE;
    }
    if *update {
        println!("rewrote {} golden(s) under {}", ids.len(), dir.display());
    } else {
        println!("all {} golden(s) match (tol {tol})", ids.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_check_every_id_at_the_default_tolerance() {
        let args = parse(&[]).unwrap();
        assert!(!args.update);
        assert_eq!(args.dir, PathBuf::from("goldens"));
        assert_eq!(args.tol, DEFAULT_TOL);
        assert_eq!(args.ids, IDS);
        let args = parse(&["--update", "--dir", "g", "--tol", "0", "fig15_opt"]).unwrap();
        assert!(args.update);
        assert_eq!(args.dir, PathBuf::from("g"));
        assert_eq!(args.tol, 0.0);
        assert_eq!(args.ids, ["fig15_opt"]);
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        assert_eq!(parse(&["--tol"]).unwrap_err(), "--tol requires a tolerance");
        assert_eq!(parse(&["--dir"]).unwrap_err(), "--dir requires a path");
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument: --bogus"
        );
        // A tolerance that is not a number, infinite, NaN or negative
        // would disable or invert the gate.
        for tol in ["abc", "inf", "NaN", "-0.01"] {
            let err = parse(&["--tol", tol]).unwrap_err();
            assert!(err.starts_with("--tol requires"), "{tol}: {err}");
        }
    }
}
