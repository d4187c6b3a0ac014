//! The unified SLS execution API.
//!
//! RecNMP's evaluation methodology (Figure 16) runs *identical* SLS
//! traces through the host baseline, the DIMM-level NMP comparators and
//! RecNMP itself. This crate defines the three pieces every execution
//! system shares so new comparators drop in without touching the
//! experiment harness:
//!
//! * [`SlsTrace`] — one physical SLS workload: batches of poolings with
//!   their translated physical addresses, the single source of truth every
//!   backend serves ([`trace`]). It is stored flat, like the paper's SLS
//!   operator input: one column each of `u32` rows, addresses and (when
//!   any pooling is weighted) weights, plus pooling offsets and per-batch
//!   `(table, spec, pooling range)` records. Rows fit `u32` because a
//!   valid table has at most 2^32 rows; a wider row panics on entry
//!   rather than being truncated. Readers borrow
//!   [`BatchView`]s; shards copy contiguous column ranges, and a host
//!   cache compacts a trace in place;
//! * [`RunReport`] — the unified result of one run: cycles, per-unit
//!   instruction counts, cache and DRAM statistics, byte accounting
//!   ([`report`]). Reports are **per-run snapshots** (delta semantics):
//!   calling [`SlsBackend::run`] twice yields two independent reports,
//!   never a cumulative blend;
//! * [`SlsBackend`] — the execution trait:
//!   `fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError>`,
//!   with an infallible `run` wrapper for harness code.
//!
//! Sharding ([`ShardingPolicy`], [`SlsTrace::shard`]) splits a multi-table
//! trace across independent channels — the building block of the
//! multi-channel `RecNmpCluster` in the `recnmp` crate. Where a batch
//! *lands* is decided by the [`placement`] subsystem: a
//! [`PlacementPlan`] assigns each table to one or more channels under a
//! per-channel capacity model and a [`PlacementPolicy`] (hash baseline,
//! capacity-aware bin-packing, or frequency-balanced with hot-table
//! replication), and sharding consults the plan instead of recomputing a
//! hash per batch.
//!
//! # Examples
//!
//! ```
//! use recnmp_backend::{ShardingPolicy, SlsTrace};
//! use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, TraceGenerator};
//! use recnmp_types::{PhysAddr, TableId};
//!
//! let spec = EmbeddingTableSpec::dlrm_default();
//! let batches: Vec<_> = (0..4u32)
//!     .map(|t| {
//!         TraceGenerator::new(TableId::new(t), spec, IndexDistribution::Uniform, 7)
//!             .batch(2, 10)
//!     })
//!     .collect();
//! let trace = SlsTrace::from_batches(&batches, &mut |t, row| {
//!     PhysAddr::new((t as u64) << 32 | row * 128)
//! });
//! assert_eq!(trace.total_lookups(), 4 * 2 * 10);
//!
//! // Hash-by-table sharding sends each table to one channel.
//! let shards = trace.shard(2, ShardingPolicy::HashByTable);
//! assert_eq!(shards.iter().map(SlsTrace::total_lookups).sum::<u64>(), 80);
//! ```

pub mod placement;
pub mod report;
pub mod trace;

pub use placement::fleet::FleetPlacementPlan;
pub use placement::tiered::{
    MigrationCost, MigrationReport, PromotionPolicy, StorageTier, TierSpec, TieredPlacementPlan,
    TieredPolicy,
};
pub use placement::{apply_absorption, PlacementPlan, PlacementPolicy, TableUsage};
pub use report::RunReport;
pub use trace::{BatchView, ShardingPolicy, SlsTrace};

use recnmp_types::{ConfigError, Cycle, PhysAddr, SimError};

/// An SLS execution system: anything that can serve a physical SLS trace
/// and report what that cost.
///
/// Implementations in this workspace: the host DRAM baseline, TensorDIMM
/// and Chameleon (in `recnmp-baselines`), and `RecNmpSystem` plus the
/// multi-channel `RecNmpCluster` (in `recnmp`). The experiment harness is
/// written against `&mut dyn SlsBackend`, so adding a comparator never
/// touches the sim crate.
///
/// # Contract
///
/// * The backend serves **every** lookup of `trace` (conservation:
///   `report.insts == trace.total_lookups()`).
/// * The returned [`RunReport`] covers **this call only** (delta
///   semantics). Hardware state — DRAM row buffers, cache contents, the
///   current cycle — persists across calls, as it would on real hardware,
///   but counters in the report never leak between runs.
///
/// The `Send` supertrait lets harness layers move backends onto worker
/// threads (the serving sweep simulates its load points in parallel);
/// every backend is plain owned simulation state, so this costs
/// implementors nothing.
pub trait SlsBackend: Send {
    /// A short stable label for the system (`"host"`, `"recnmp"`, ...).
    fn name(&self) -> &str;

    /// Serves `trace` and reports the cost of this run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] when the backend's memory engine
    /// stops making forward progress (a scheduling livelock), instead of
    /// aborting the process. After an error the backend's hardware state
    /// is unspecified — a stalled channel keeps its stuck requests — so
    /// discard the backend rather than running it again.
    fn try_run(&mut self, trace: &SlsTrace) -> Result<RunReport, SimError>;

    /// Infallible convenience wrapper around [`try_run`](Self::try_run)
    /// for harness code that treats a stalled simulation as a fatal bug.
    ///
    /// # Panics
    ///
    /// Panics if the run returns an error.
    fn run(&mut self, trace: &SlsTrace) -> RunReport {
        match self.try_run(trace) {
            Ok(report) => report,
            Err(e) => panic!("{} backend failed: {e}", self.name()),
        }
    }

    /// Independent servers a query scheduler can dispatch to.
    ///
    /// Single-channel systems are one server; a multi-channel cluster
    /// overrides this with its channel count so a serving layer can place
    /// individual queries on individual channels instead of sharding each
    /// query across all of them.
    fn server_count(&self) -> usize {
        1
    }

    /// Serves `trace` entirely on server `server` — the dispatch hook a
    /// query scheduler uses to target one channel of a multi-server
    /// system. The default forwards to [`try_run`](Self::try_run) for
    /// single-server backends.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] (see [`check_server`]) when `server >=
    /// self.server_count()`, and otherwise [`SimError::Stalled`] under the
    /// same conditions as [`try_run`](Self::try_run).
    fn try_run_on(&mut self, server: usize, trace: &SlsTrace) -> Result<RunReport, SimError> {
        check_server(server, self.server_count())?;
        self.try_run(trace)
    }

    /// Serves several shards, each entirely on its own server, and
    /// returns one report per shard in input order — the node handle a
    /// fleet router uses to hand a whole node its per-channel work in
    /// one call.
    ///
    /// Shards must target strictly increasing server indices (each
    /// server appears at most once). The default runs them serially via
    /// [`try_run_on`](Self::try_run_on); multi-channel backends override
    /// this to fan the shards out as parallel tasks on the deterministic
    /// worker pool, so a fleet can nest node-level and channel-level
    /// parallelism without oversubscribing threads. Overrides must
    /// return reports identical to the serial default (the servers are
    /// independent hardware, so this costs nothing).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] (see [`shard_slots`]) when the shard
    /// servers are not strictly increasing or one is out of range, and
    /// otherwise the first failing shard's error (in shard order) under
    /// the same conditions as [`try_run`](Self::try_run).
    fn try_run_shards(&mut self, shards: &[(usize, SlsTrace)]) -> Result<Vec<RunReport>, SimError> {
        shard_slots(shards, self.server_count())?;
        shards
            .iter()
            .map(|(server, shard)| self.try_run_on(*server, shard))
            .collect()
    }

    /// Stages predicted-hot vectors into server `server`'s memory-side
    /// caches during an idle gap — the inter-query prefetch hook
    /// (ProactivePIM-style). `addrs` lists candidate vector base
    /// addresses hottest-first, each covering `vector_bytes` bytes;
    /// `budget_cycles` is the idle headroom the scheduler observed before
    /// the next arrival, which the backend converts into a vector count
    /// at its own fill cost so prefetch traffic always yields to demand
    /// work. Returns how many vectors were **newly** staged
    /// (already-resident candidates cost budget but don't count).
    ///
    /// The default does nothing and returns 0 — backends without
    /// memory-side caches are simply prefetch-blind. Staging must not
    /// perturb demand hit/miss statistics (use the stats-clean fill
    /// path), and must be deterministic in `(server, addrs, budget)`.
    fn prefetch_on(
        &mut self,
        server: usize,
        addrs: &[PhysAddr],
        vector_bytes: u32,
        budget_cycles: Cycle,
    ) -> u64 {
        let _ = (server, addrs, vector_bytes, budget_cycles);
        0
    }

    /// A no-op no library backend overrides: every sweep point builds a
    /// fresh backend instead of returning a warm one to cold. Kept for an
    /// outside harness that forwards it.
    fn reset_caches(&mut self) {}
}

/// Checks that `server` names one of `servers` servers, for
/// [`SlsBackend::try_run_on`].
///
/// # Errors
///
/// Returns [`SimError::Config`] on field `server` when `server` is
/// `servers` or more.
pub fn check_server(server: usize, servers: usize) -> Result<(), SimError> {
    if server < servers {
        Ok(())
    } else {
        Err(server_out_of_range("server", server, servers))
    }
}

/// The error for a server index past the last of `servers` servers.
fn server_out_of_range(field: &str, server: usize, servers: usize) -> SimError {
    SimError::Config(ConfigError::new(
        field,
        format!("server {server} out of range for {servers} server(s)"),
    ))
}

/// Checks a [`SlsBackend::try_run_shards`] request against `servers`
/// servers and lays it out as one slot per server: slot `s` holds the
/// shard for server `s`, or `None` when no shard targets it.
///
/// # Errors
///
/// Returns [`SimError::Config`] on field `shards` when the shard servers
/// are not strictly increasing or one is `servers` or more.
pub fn shard_slots(
    shards: &[(usize, SlsTrace)],
    servers: usize,
) -> Result<Vec<Option<&SlsTrace>>, SimError> {
    if !shards.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(SimError::Config(ConfigError::new(
            "shards",
            "must target strictly increasing servers",
        )));
    }
    let mut slots = vec![None; servers];
    for (s, shard) in shards {
        let Some(slot) = slots.get_mut(*s) else {
            return Err(server_out_of_range("shards", *s, servers));
        };
        *slot = Some(shard);
    }
    Ok(slots)
}
