//! End-to-end RecNMP system simulation and the experiment harness.
//!
//! This crate glues the substrates together and regenerates every table
//! and figure of the paper's evaluation:
//!
//! * [`workload`] — shared logical→physical layout so the host baseline,
//!   the comparator NMP systems and RecNMP serve *identical* address
//!   traces (one [`SlsTrace`](recnmp_backend::SlsTrace) per comparison);
//! * [`speedup`] — the Figure 14/15/16 engine: run the same SLS trace
//!   through any pair of [`SlsBackend`](recnmp_backend::SlsBackend)s and
//!   report the memory-latency speedup. The engine has no
//!   backend-specific branches, so new comparators (a cluster, a future
//!   system) drop in unchanged;
//! * [`colocation`] — the Figure 17/18 layer: co-located model inference
//!   latency/throughput built on the calibrated CPU model and the
//!   cycle-level SLS results;
//! * [`serving`] — the query-serving subsystem: open-loop Poisson/uniform
//!   load generation, queued dispatch of one query at a time (FIFO /
//!   round-robin / least-outstanding) or **sharded scatter/gather** over a table-placement plan (each query fans out
//!   to the channels owning its tables and completes at its slowest
//!   shard plus a host gather cost), per-query p50/p95/p99 latency, and
//!   throughput–latency sweeps with saturation-knee detection, shared
//!   between the `serve_sweep` binary and the experiment harness;
//! * [`experiments`] — one entry point per table/figure
//!   (`fig01_footprint` … `tab02_overhead`), each returning renderable
//!   tables. Their quick-scale outputs are pinned under `goldens/`
//!   (`golden_check --update` rewrites them, `repro` prints any of them),
//!   and `tests/paper_claims.rs` checks the headline claims against the
//!   paper's numbers;
//! * [`render`] — plain-text table rendering shared by the `repro` binary
//!   and the docs.
//!
//! # Examples
//!
//! Compare two backends on one shared trace:
//!
//! ```
//! use recnmp::{RecNmpConfig, RecNmpSystem};
//! use recnmp_baselines::HostBaseline;
//! use recnmp_sim::{SpeedupEngine, TraceKind};
//!
//! # fn main() -> Result<(), recnmp_types::ConfigError> {
//! let engine = SpeedupEngine::with_workload(TraceKind::Production, 2, 1, 4, 7);
//! let mut config = RecNmpConfig::with_ranks(1, 2);
//! config.refresh = false;
//! let trace = engine.trace_for(&config);
//!
//! // Matched comparison: the host channel has the same DIMMs, ranks and
//! // refresh setting.
//! let mut host = HostBaseline::with_config(config.host_dram_config())?;
//! let mut nmp = RecNmpSystem::new(config)?;
//! let cmp = engine.compare_backends(&mut host, &mut nmp, &trace);
//! assert!(cmp.speedup() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! Regenerate a paper artifact:
//!
//! ```no_run
//! // Regenerate the Figure 15 optimization-breakdown experiment.
//! let result = recnmp_sim::experiments::run("fig15_opt", recnmp_sim::Scale::Quick)
//!     .expect("known experiment id");
//! println!("{result}");
//! ```

pub mod colocation;
pub mod experiments;
pub mod render;
pub mod serving;
pub mod speedup;
pub mod workload;

pub use experiments::{ExperimentResult, Scale};
pub use render::TextTable;
pub use serving::faults;
pub use serving::fleet;
pub use serving::{DispatchPolicy, LatencySummary, ServingConfig, ServingRun};
pub use speedup::{SlsComparison, SpeedupEngine};
pub use workload::{SlsWorkload, TableLayout, TraceKind};
