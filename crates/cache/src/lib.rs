//! Cache simulators for the RecNMP reproduction.
//!
//! Four consumers drive this crate:
//!
//! * the **locality characterization** of Section II-F (Figure 7), which
//!   sweeps capacity (8–64 MiB) and line size (64–512 B) of a 4-way (and
//!   fully-associative) LRU cache over production-like embedding traces,
//! * the **SSD backend's device-DRAM page buffer** (`recnmp-storage`),
//!   the same [`fa::FullyAssocLru`] over page numbers, so the repo has
//!   one fully associative replacement policy,
//! * the **RankCache** of Section III (Figures 12 and 15), the small
//!   memory-side cache inside each rank-NMP module, which adds a software
//!   *cacheability hint* (the `LocalityBit` of the NMP instruction): hinted
//!   requests allocate on miss, unhinted requests bypass the cache
//!   entirely, and
//! * the **cache-aware serving path** (`recnmp_sim::serving`), which puts
//!   a [`SetAssocCache`] in front of dispatch as a host-side
//!   hot-embedding cache (one line per embedding vector, hits absorbed
//!   before any channel sees them) and stages predicted-hot vectors into
//!   per-channel RankCaches between queries via the stats-clean prefetch
//!   path ([`SetAssocCache::fill`] / [`RankCache::prefetch_fill`]).
//!
//! Only the [`RankCache`] counts cold misses
//! ([`CacheStats::compulsory_misses`]), because only its compulsory limit
//! reaches a report (Figure 12). [`SetAssocCache`] and
//! [`fa::FullyAssocLru`] keep no line history: their footprint is fixed
//! at construction, 16 bytes per line for the set-associative model.
//!
//! # Examples
//!
//! ```
//! use recnmp_cache::{CacheConfig, SetAssocCache};
//!
//! # fn main() -> Result<(), recnmp_types::ConfigError> {
//! let mut c = SetAssocCache::new(CacheConfig::new(1024, 64, 4))?;
//! assert!(!c.access(0x40).is_hit()); // cold miss
//! assert!(c.access(0x40).is_hit()); // now cached
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod fa;
pub mod rank_cache;
pub mod set_assoc;
pub mod stats;

pub use config::CacheConfig;
pub use rank_cache::{RankCache, RankCacheOutcome};
pub use set_assoc::{AccessOutcome, SetAssocCache};
pub use stats::CacheStats;
