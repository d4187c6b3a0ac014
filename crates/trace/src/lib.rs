//! Embedding-lookup trace generation and locality tooling.
//!
//! The paper characterizes and evaluates RecNMP with *production embedding
//! traces* (T1–T8, from Eisenman et al.) that are not publicly available.
//! Per the substitution policy in `DESIGN.md`, this crate synthesizes
//! traces that reproduce the two properties the paper's results depend on:
//!
//! * **modest temporal reuse** — hit rates between 20% and 60% on 8–64 MiB
//!   caches, increasing with capacity (Figure 7(a)), concentrated in a
//!   small set of hot entries (the basis of hot-entry profiling), and
//! * **negligible spatial locality** — hit rates *decrease* as the line
//!   size grows (Figure 7(b)), because neighboring rows of a hot row are
//!   cold.
//!
//! The generator model is a Zipf-distributed row popularity with a
//! per-table skew parameter, composed with a multiplicative permutation
//! that scatters hot rows across the table's address space (destroying
//! artificial spatial locality). Eight presets T1–T8 span the skew range so
//! that co-located combinations (Comb-8/16/32/64, Section II-F) land in
//! the paper's hit-rate band.
//!
//! The crate also provides:
//!
//! * [`SlsBatch`] / [`Pooling`] — the workload unit consumed by the SLS
//!   operators and the NMP packet builder,
//! * [`comb::CombTrace`] — co-located multi-table interleaving, streamed
//!   as logical addresses drawn on demand,
//! * [`paging::PageMapper`] — the simplified OS page mapping of the
//!   paper's methodology (random free physical page per logical page) plus
//!   the page-coloring variant used in Figure 14(a), and
//! * [`profile::HotEntryProfiler`] — the hot-entry profiling step that
//!   produces `LocalityBit` hints.

pub mod batch;
pub mod comb;
pub mod gen;
pub mod paging;
pub mod production;
pub mod profile;
pub mod spec;
mod zipf;

pub use batch::{Pooling, SlsBatch};
pub use comb::CombTrace;
pub use gen::{IndexDistribution, TraceGenerator};
pub use paging::PageMapper;
pub use production::{production_table, production_tables, ProductionTable};
pub use profile::HotEntryProfiler;
pub use spec::EmbeddingTableSpec;
