//! RecNMP: a near-memory processing architecture for recommendation
//! embedding operators.
//!
//! This crate implements the paper's primary contribution — the RecNMP
//! processing unit that lives in a DIMM's buffer chip and executes the
//! SparseLengths (SLS) operator family against locally fetched DRAM data:
//!
//! * [`inst`] — the **NMP instruction** (Figure 8(d)) as the rank PU
//!   reads it: DRAM coordinates, vector size and the `LocalityBit`
//!   cacheability hint;
//! * [`packet`] — **NMP packets** grouping up to 16 poolings (4-bit
//!   PsumTag) for counter-controlled execution, and their C/A-bus byte
//!   cost;
//! * [`rank_nmp`] — the per-rank module: local command decoding into a
//!   single-rank DDR4 simulator, the memory-side [`RankCache`], and the
//!   pipelined sum datapath with its PSum register file;
//! * [`dimm_nmp`] — rank dispatch and the PSum adder tree;
//! * [`system`] — the full channel ([`RecNmpSystem`]): the NMP-extended
//!   memory-controller front end that streams two NMP-Insts per DRAM cycle
//!   (the 8× C/A bandwidth expansion of Figure 9), serial per-packet
//!   execution where each packet's latency is set by its slowest rank, and
//!   the [`SlsBackend`] implementation every experiment runs through;
//! * [`cluster`] — [`RecNmpCluster`]: N independent channels behind one
//!   dispatch API, the first scaling axis beyond the paper's
//!   single-channel model. [`SlsBackend::try_run`] shards a trace under
//!   the stateless hash-by-table/round-robin [`ShardingPolicy`]; the
//!   serving layer places tables itself and dispatches per channel;
//! * [`sched`] / [`optimizer`] — table-aware packet scheduling and
//!   hot-entry profiling (Section III-D);
//! * [`energy`] / [`physical`] — memory energy accounting and the
//!   area/power roll-up behind Table II.
//!
//! [`RankCache`]: recnmp_cache::RankCache
//!
//! # Examples
//!
//! Offload one SLS batch through the unified [`SlsBackend`] API, each row
//! page-mapped into the channel:
//!
//! ```
//! use recnmp::{RecNmpConfig, RecNmpSystem, SlsBackend, SlsTrace};
//! use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, PageMapper, TraceGenerator};
//! use recnmp_types::TableId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An SLS batch against one table, offloaded to a 2-rank RecNMP channel.
//! let spec = EmbeddingTableSpec::dlrm_default();
//! let mut gen = TraceGenerator::new(
//!     TableId::new(0), spec, IndexDistribution::Zipf { s: 0.9 }, 7,
//! );
//! let batch = gen.batch(8, 80);
//!
//! let mut sys = RecNmpSystem::new(RecNmpConfig::with_ranks(1, 2))?;
//! let mut mapper = PageMapper::new(sys.geometry().capacity_bytes() / 4096, 7);
//! let trace = SlsTrace::from_batches(&[batch], &mut |_, row| {
//!     mapper.translate(row * spec.vector_bytes)
//! });
//! let report = sys.try_run(&trace)?;
//! assert!(report.total_cycles > 0);
//! assert_eq!(report.insts, 8 * 80);
//! # Ok(())
//! # }
//! ```
//!
//! Run an explicit shared trace — the form every cross-system comparison
//! uses — and scale it across a 4-channel cluster:
//!
//! ```
//! use recnmp::cluster::{RecNmpCluster, RecNmpClusterConfig};
//! use recnmp::{RecNmpConfig, RecNmpSystem};
//! use recnmp_backend::{SlsBackend, SlsTrace};
//! use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
//! use recnmp_types::{PhysAddr, TableId};
//!
//! # fn main() -> Result<(), recnmp_types::ConfigError> {
//! let spec = EmbeddingTableSpec::dlrm_default();
//! let batches: Vec<_> = (0..4u32)
//!     .map(|t| {
//!         TraceGenerator::new(TableId::new(t), spec, IndexDistribution::Uniform, 5)
//!             .batch(4, 20)
//!     })
//!     .collect();
//! let trace = SlsTrace::from_batches(&batches, &mut |t, row| {
//!     PhysAddr::new(((t as u64) << 30) ^ (row * 128))
//! });
//!
//! let mut channel = RecNmpSystem::new(RecNmpConfig::with_ranks(1, 2))?;
//! let single = channel.run(&trace);
//!
//! let config = RecNmpClusterConfig::builder()
//!     .channels(4)
//!     .dimms(1)
//!     .ranks_per_dimm(2)
//!     .build()?;
//! let mut cluster = RecNmpCluster::new(config)?;
//! let fanned = cluster.run(&trace);
//!
//! assert_eq!(single.insts, fanned.insts);
//! assert!(fanned.total_cycles < single.total_cycles);
//! # Ok(())
//! # }
//! ```

pub mod cluster;
pub mod config;
pub mod dimm_nmp;
pub mod energy;
pub mod inst;
pub mod optimizer;
pub mod packet;
pub mod physical;
pub mod rank_nmp;
pub mod sched;
pub mod system;

pub use cluster::{ClusterConfigBuilder, RecNmpCluster, RecNmpClusterConfig};
pub use config::{ExecutionMode, RecNmpConfig, SchedulingPolicy};
pub use inst::NmpInst;
pub use optimizer::LocalityAwareOptimizer;
pub use packet::{NmpPacket, PacketBuilder};
// Re-exported so downstream crates name the unified API through `recnmp`.
pub use recnmp_backend::{
    BatchView, PlacementPlan, PlacementPolicy, RunReport, ShardingPolicy, SlsBackend, SlsTrace,
    TableUsage,
};
pub use system::{compile_trace, RecNmpSystem};
