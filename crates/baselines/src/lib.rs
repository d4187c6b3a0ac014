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
//! * [`DimmLevelNmp::tensordimm`] — DIMM-level near-memory processing
//!   (Kwon et al., MICRO 2019): an NMP core per DIMM reduces vectors
//!   locally, and large vectors interleave 64-byte bursts across DIMMs.
//!   Commands still come from the host over the shared C/A bus (three per
//!   low-locality vector), which is what caps it for the paper's 64-byte
//!   vectors.
//! * [`DimmLevelNmp::chameleon`] — NDA-style CGRA accelerators in the
//!   data buffer devices (Asghari-Moghaddam et al., MICRO 2016): same
//!   DIMM-level reduction, but its temporally/spatially multiplexed C/A
//!   protocol costs an extra command slot per vector.
//!
//! Each is built from one [`DramConfig`], the host channel of the
//! comparison: the DIMM-level systems run one controller per DIMM of it,
//! with its ranks, refresh and engine settings. The comparison
//! methodology follows the paper: all systems see the same
//! physical-address [`SlsTrace`] and return the same [`RunReport`] type;
//! memory-latency speedup is
//! `cycles_per_lookup(baseline) / cycles_per_lookup(system)`.

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

pub use dimm_nmp_baseline::DimmLevelNmp;
pub use host::HostBaseline;
pub use recnmp_backend::{RunReport, SlsBackend, SlsTrace};
pub use recnmp_dram::DramConfig;

#[cfg(test)]
mod tests {
    use recnmp_backend::SlsTrace;
    use recnmp_trace::EmbeddingTableSpec;
    use recnmp_types::rng::DetRng;
    use recnmp_types::{PhysAddr, TableId};

    /// `n` random 64-byte-aligned addresses below `gib` GiB.
    pub(crate) fn random_addrs(n: usize, seed: u64, gib: u64) -> Vec<PhysAddr> {
        let mut rng = DetRng::seed(seed);
        (0..n)
            .map(|_| PhysAddr::new(rng.below(gib << 30) & !63))
            .collect()
    }

    /// A one-batch, one-pooling trace reading a vector of `bursts`
    /// 64-byte bursts at each of `addrs`, in order.
    pub(crate) fn trace_of(addrs: &[PhysAddr], bursts: u8) -> SlsTrace {
        let spec = EmbeddingTableSpec::new(addrs.len() as u64, 64 * bursts as u64);
        let mut trace = SlsTrace::with_capacity(1, 1, addrs.len());
        trace.push_batch(TableId::new(0), spec);
        trace.push_pooling(0..addrs.len() as u64, |row| addrs[row as usize]);
        trace
    }
}
