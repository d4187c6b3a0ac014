//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro list               list experiment ids
//! repro all [--full]      run everything (quick scale by default)
//! repro <id> [--full]     run one experiment
//! ```
//!
//! On exit it prints the process's peak RSS to stderr.

use std::process::ExitCode;

use recnmp_sim::experiments::{run, run_all, Scale, IDS};

fn main() -> ExitCode {
    let code = repro();
    recnmp_bench::print_peak_rss();
    code
}

fn repro() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Quick };
    let command = args.iter().find(|a| !a.starts_with("--")).cloned();

    match command.as_deref() {
        None | Some("help") => {
            eprintln!("usage: repro [list | all | <experiment-id>] [--full]");
            eprintln!("experiments:");
            for id in IDS {
                eprintln!("  {id}");
            }
            ExitCode::SUCCESS
        }
        Some("list") => {
            for id in IDS {
                println!("{id}");
            }
            ExitCode::SUCCESS
        }
        Some("all") => {
            for result in run_all(scale) {
                println!("{result}");
            }
            ExitCode::SUCCESS
        }
        Some(id) => match run(id, scale) {
            Some(result) => {
                println!("{result}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment `{id}`; try `repro list`");
                ExitCode::FAILURE
            }
        },
    }
}
