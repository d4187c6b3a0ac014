//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro list               list experiment ids
//! repro all [--full]      run everything (quick scale by default)
//! repro <id> [--full]     run one experiment
//! ```
//!
//! A malformed argument exits 2 with the usage line. Each experiment's
//! wall time goes to stderr, and on exit the process's peak RSS; neither
//! is gated.

use std::process::ExitCode;
use std::time::Instant;

use recnmp_sim::experiments::{run, Scale, IDS};

const USAGE: &str = "usage: repro [list | all | <experiment-id>] [--full]";

/// Parses the command line into the command (`None` for help) and the
/// scale. Errors are usage errors.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Option<String>, Scale), String> {
    let mut command = None;
    let mut scale = Scale::Quick;
    for arg in args {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            flag if flag.starts_with("--") => return Err(format!("unknown argument: {flag}")),
            _ => {
                if let Some(first) = command.replace(arg) {
                    return Err(format!("pass one command, got {first} and more"));
                }
            }
        }
    }
    Ok((command, scale))
}

fn main() -> ExitCode {
    let (command, scale) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let code = repro(command.as_deref(), scale);
    recnmp_bench::print_peak_rss();
    code
}

/// Runs and prints experiment `id`, with its wall time on stderr; false
/// for an unknown id.
fn run_timed(id: &str, scale: Scale) -> bool {
    let start = Instant::now();
    let Some(result) = run(id, scale) else {
        return false;
    };
    let secs = start.elapsed().as_secs_f64();
    println!("{result}");
    eprintln!("{id}: {secs:.3} s wall");
    true
}

fn repro(command: Option<&str>, scale: Scale) -> ExitCode {
    match command {
        None | Some("help") => {
            eprintln!("{USAGE}");
            eprintln!("experiments:");
            for id in IDS {
                eprintln!("  {id}");
            }
        }
        Some("list") => {
            for id in IDS {
                println!("{id}");
            }
        }
        Some("all") => {
            for id in IDS {
                assert!(run_timed(id, scale), "registered id {id}");
            }
        }
        Some(id) => {
            if !run_timed(id, scale) {
                eprintln!("unknown experiment `{id}`; try `repro list`");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Option<String>, Scale), String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_scale() {
        assert_eq!(parse(&[]).unwrap(), (None, Scale::Quick));
        assert_eq!(
            parse(&["--full", "fig15_opt"]).unwrap(),
            (Some("fig15_opt".into()), Scale::Full)
        );
        assert_eq!(parse(&["all"]).unwrap(), (Some("all".into()), Scale::Quick));
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        // A misspelt `--full` must not silently run quick scale.
        assert_eq!(
            parse(&["--ful", "fig15_opt"]).unwrap_err(),
            "unknown argument: --ful"
        );
        assert_eq!(
            parse(&["fig15_opt", "fig16_comparison"]).unwrap_err(),
            "pass one command, got fig15_opt and more"
        );
    }
}
