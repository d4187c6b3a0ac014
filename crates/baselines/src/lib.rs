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

/// An iterator with its length known up front: what
/// `MemorySystem::run_stream` needs to count the reads it has not pulled
/// yet, over a flattened or filtered trace that cannot tell its own.
struct Counted<I> {
    iter: I,
    left: usize,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.iter.next()?;
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}

pub use dimm_nmp_baseline::{Chameleon, DimmLevelNmp, TensorDimm};
pub use host::HostBaseline;
pub use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
