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
//! `--tol X` the relative numeric tolerance (default 0.01) of
//! [`recnmp_bench::json::diff_json`]: every number — bare, a cell like
//! `"3.21x"`, or a figure in a note like `"knee at 3208829 qps"` —
//! compares within it, while text, keys and shape must match exactly.
//! On exit it prints the process's peak RSS to stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use recnmp_bench::json::{diff_json, Json, DEFAULT_TOL};
use recnmp_sim::experiments::{run, Scale, IDS};
use recnmp_sim::ExperimentResult;

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

fn main() -> ExitCode {
    let code = golden_check();
    recnmp_bench::print_peak_rss();
    code
}

fn golden_check() -> ExitCode {
    let mut update = false;
    let mut dir = PathBuf::from("goldens");
    let mut tol = DEFAULT_TOL;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update" => update = true,
            "--dir" => dir = PathBuf::from(args.next().expect("--dir requires a path")),
            "--tol" => {
                tol = args
                    .next()
                    .expect("--tol requires a value")
                    .parse()
                    .expect("--tol requires a number")
            }
            other if !other.starts_with("--") => ids.push(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: golden_check [--update] [--dir PATH] [--tol X] [ids...]");
                return ExitCode::from(2);
            }
        }
    }
    if ids.is_empty() {
        ids = IDS.iter().map(|s| s.to_string()).collect();
    }

    let mut failures = 0usize;
    for id in &ids {
        let Some(result) = run(id, Scale::Quick) else {
            eprintln!("unknown experiment `{id}`");
            failures += 1;
            continue;
        };
        let current = result_value(&result);
        let path = dir.join(format!("{id}.json"));
        if update {
            std::fs::create_dir_all(&dir).expect("creating golden dir");
            std::fs::write(&path, current.write())
                .unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
            println!("updated {}", path.display());
            continue;
        }
        let golden = match std::fs::read_to_string(&path) {
            Ok(g) => g,
            Err(e) => {
                eprintln!(
                    "FAIL {id}: cannot read {} ({e}); run with --update",
                    path.display()
                );
                failures += 1;
                continue;
            }
        };
        match Json::parse(&golden).map(|g| diff_json(&g, &current, tol)) {
            Ok(mismatches) if mismatches.is_empty() => println!("ok   {id}"),
            Ok(mismatches) => {
                eprintln!("FAIL {id}: output drifted from {}", path.display());
                for m in &mismatches {
                    eprintln!("{m}");
                }
                failures += 1;
            }
            Err(e) => {
                eprintln!("FAIL {id}: malformed JSON: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} experiment(s) drifted; inspect with `repro <id>` and, if the change \
             is intended, refresh with `golden_check --update`"
        );
        return ExitCode::FAILURE;
    }
    if update {
        println!("rewrote {} golden(s) under {}", ids.len(), dir.display());
    } else {
        println!("all {} golden(s) match (tol {tol})", ids.len());
    }
    ExitCode::SUCCESS
}
