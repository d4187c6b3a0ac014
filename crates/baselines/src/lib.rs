//! Comparator systems for RecNMP (Figure 16).
//!
//! Three baselines serve the same SLS lookup traces as
//! `recnmp::RecNmpSystem`, all through the unified
//! [`SlsBackend`] execution API:
//!
//! * [`HostBaseline`] — the conventional path: every embedding burst is
//!   read over the memory channel by the CPU, which performs the pooling.
//!   One channel-level FR-FCFS controller (from `recnmp-dram`) models the
//!   shared command/address and data buses exactly.
//! * [`TensorDimm`] — DIMM-level near-memory processing (Kwon et al.,
//!   MICRO 2019): an NMP core per DIMM reduces vectors locally, and large
//!   vectors interleave 64-byte bursts across DIMMs. Commands still come
//!   from the host over the shared C/A bus (three per low-locality
//!   vector), which is what caps it for the paper's 64-byte vectors.
//! * [`Chameleon`] — NDA-style CGRA accelerators in the data buffer
//!   devices (Asghari-Moghaddam et al., MICRO 2016): same DIMM-level
//!   reduction, but its temporally/spatially multiplexed C/A protocol
//!   costs an extra command slot per vector.
//!
//! The comparison methodology follows the paper: all systems see the same
//! physical-address [`SlsTrace`] and return the
//! same [`RunReport`] type; memory-latency
//! speedup is `cycles_per_lookup(baseline) / cycles_per_lookup(system)`.

pub mod dimm_nmp_baseline;
pub mod host;

pub use dimm_nmp_baseline::{Chameleon, DimmLevelNmp, TensorDimm};
pub use host::HostBaseline;
pub use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
