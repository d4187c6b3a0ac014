//! Cycle-level DDR4 DRAM simulator.
//!
//! This crate is the memory substrate of the RecNMP reproduction. The paper
//! evaluates its design with Ramulator (Kim et al., CAL 2015) configured
//! with Micron 8 Gb ×8 DDR4-2400 timing; no established DRAM-simulator crate
//! exists, so this crate re-implements the necessary subset from scratch:
//!
//! * the DDR4 device hierarchy — channel / DIMM / rank / bank group / bank —
//!   with per-bank row-buffer state ([`bank`]),
//! * the full timing-constraint set from Table I of the paper (tRC, tRCD,
//!   tCL, tRP, tBL, tCCD_S/L, tRRD_S/L, tFAW, plus the standard tRAS, tRTP,
//!   tWR, tWTR, tCWL, tREFI, tRFC needed for a working protocol) ([`timing`]),
//! * a command-level model of the shared command and data buses,
//! * an FR-FCFS memory controller with open-page policy and a 32-entry read
//!   queue (Table I) ([`controller`]),
//! * physical-address → DRAM-coordinate mapping, both a simple
//!   row–bank–rank–column interleave and the Skylake-style XOR mapping the
//!   paper cites ([`address`]),
//! * counters for bandwidth, row-buffer outcomes and per-request latency
//!   ([`stats`]), and DRAM energy accounting with the paper's constants
//!   ([`energy`]),
//! * a [`monitor::ProtocolMonitor`] that independently checks every issued
//!   command against the timing rules — used heavily by the test suite.
//!
//! The top-level entry point is [`MemorySystem`], one instance per memory
//! channel. RecNMP's rank-NMP modules each own a single-rank `MemorySystem`;
//! the host baseline uses one multi-rank instance so rank/bank interleaving
//! and command-bus contention are emergent rather than assumed.
//!
//! # Simulator performance
//!
//! The scheduler hot path is allocation-free and index-structured:
//! admitted requests live in a slab with recycled slots, reached through
//! per-(rank,bank) queues and seq-ordered arrival lists (admitting and
//! retiring a request are O(1)), with decoded coordinates computed once
//! at enqueue.
//! Each bank caches its earliest candidates per command class (one
//! 64-byte line, recomputed only when a change to that bank puts it on
//! its direction's dirty list), so an FR-FCFS decision is one traversal
//! of the banks that have work — requests needing the same command on
//! the same bank share one legality verdict. Admission keeps the caches
//! current in O(1): an admitted request is the newest of its bank, so it
//! can only fill a class the bank lacks (the ACT of a closed bank, the
//! column command or PRE of an open one), and a clean bank takes it into
//! its cache and class bit in place; only a bank already on the dirty
//! list waits for the next scan's recompute.
//!
//! Which traversal a channel runs follows from its rank count, fixed at
//! construction. A one-rank channel — every rank-NMP device, which is
//! most of the engine time in a RecNMP run — checks its rank's column
//! and ACT gates once per class with candidates and then visits only the
//! column, ACT and PRE bits of that rank, so it pays for the candidates
//! present and nothing per rank. A multi-rank channel (the host baseline,
//! a TensorDIMM or Chameleon DIMM) computes the gates of every rank of a
//! 64-bank word branch-free first and then makes one pass per command
//! class over the word's bitmasks of the banks behind open gates, which
//! rules out a blocked rank's whole class without visiting it. Both
//! traversals sort the candidates they visit into legal and not yet
//! legal without a branch per candidate, make the same decision and
//! report the same jump bound; the decision oracle in `system.rs`'s
//! tests checks both.
//!
//! A run is **event-driven** by default ([`SimEngine`]): when no command
//! can issue, the clock jumps straight to the next cycle at which
//! anything could change — and the jump target falls out of the same
//! traversal that failed to issue, so there is no separate event rescan.
//! The result is cycle-identical to the per-cycle reference engine —
//! same completions (and completion order), same statistics, same final
//! cycle — while doing O(commands) instead of O(cycles) work; the
//! `event_equivalence` suite and the `sched_props` proptests enforce
//! this, and [`MemorySystem::loop_iterations`] exposes the work saved.
//!
//! # Intake and completion contract
//!
//! A channel runs one way, [`MemorySystem::run_stream`]. It runs the
//! requests enqueued so far, then takes its reads from an
//! [`ExactSizeIterator`] of `(addr, arrival)` pairs, pulling them into
//! the staged queue only as admission drains it (never more than one
//! tick's admission capacity ahead). Reads not yet pulled still count as
//! staged for [`MemorySystem::pending`], for the stall detector and for
//! [`recnmp_types::SimError::Stalled`], so a run is cycle-identical
//! however its reads are split between [`MemorySystem::enqueue`] and the
//! stream, yet it holds O(queue) requests.
//!
//! Each completion goes to the run's callback as a [`CompletedRequest`],
//! in data-transfer order, and the run ends at the last one's finish
//! cycle. The host baseline, the DIMM-level comparators and the rank-NMP
//! devices pass a no-op and read the run's cost off
//! [`MemorySystem::cycle`] and [`MemorySystem::stats`]; tests collect
//! the completions to compare them request by request. A
//! counting-allocator test proves the steady-state loop allocates
//! nothing.
//!
//! # Examples
//!
//! ```
//! use recnmp_dram::{DramConfig, MemorySystem};
//! use recnmp_types::PhysAddr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = MemorySystem::new(DramConfig::table1_baseline())?;
//! let mut done = Vec::new();
//! mem.run_stream([(PhysAddr::new(0x40), 0)], |c| done.push(*c))?;
//! assert_eq!(done.len(), 1);
//! // A cold read costs at least tRCD + tCL + tBL cycles.
//! assert!(done[0].finish_cycle >= 36);
//! assert_eq!(mem.cycle(), done[0].finish_cycle);
//! # Ok(())
//! # }
//! ```

pub mod address;
pub mod bank;
pub mod command;
pub mod controller;
pub mod energy;
pub mod monitor;
pub mod request;
pub mod stats;
pub mod system;
pub mod timing;

pub use address::{AddressMapping, DramAddr};
pub use command::{DdrCommand, DdrCommandKind};
pub use controller::{DramConfig, SimEngine};
pub use energy::{DramEnergy, EnergyParams};
pub use request::{CompletedRequest, Request, RequestKind};
pub use stats::DramStats;
pub use system::MemorySystem;
pub use timing::DdrTiming;
