//! DLRM workload models and the CPU performance model.
//!
//! This crate is the workload side of the RecNMP reproduction:
//!
//! * [`config`] — the four recommendation model configurations the paper
//!   evaluates (RM1-small/large, RM2-small/large, Figure 2(b)), with
//!   concrete FC layer shapes chosen to match the published operator
//!   breakdown and cache-residency behavior,
//! * [`perf`] — the calibrated analytic CPU model standing in for the
//!   paper's 18-core Skylake measurements (operator latency breakdown,
//!   Figure 4; co-location FC contention, Figure 17),
//! * [`bandwidth`] — the memory-bandwidth saturation model (Figure 6),
//! * [`roofline`] — roofline analysis (Figures 1(b) and 5), and
//! * [`footprint`] — operator compute/memory footprints (Figure 1(a)).

pub mod bandwidth;
pub mod config;
pub mod footprint;
pub mod perf;
pub mod roofline;

pub use bandwidth::BandwidthModel;
pub use config::{ModelConfig, RecModelKind};
pub use perf::{CpuPerfModel, CpuSpec, OperatorBreakdown};
pub use roofline::{Roofline, RooflinePoint};
