//! The cycle-level memory-channel engine.

use std::collections::VecDeque;

use recnmp_types::{Cycle, PhysAddr, SimError};

use crate::address::{DramAddr, Geometry};
use crate::bank::{Bank, BankState, RankTimer};
use crate::command::{DdrCommand, DdrCommandKind};
use crate::controller::{DramConfig, SimEngine};
use crate::monitor::ProtocolMonitor;
use crate::request::{CompletedRequest, RowOutcome};
use crate::stats::DramStats;
use crate::timing::DdrTiming;

/// The `seq` of a free slab slot: its request has retired.
const RETIRED: u64 = u64::MAX;

/// An in-service request tracked by the controller.
#[derive(Debug, Clone)]
struct Queued {
    addr: DramAddr,
    arrival: Cycle,
    /// Enqueue number; [`RETIRED`] once the slot is free.
    seq: u64,
    acts: u8,
    pres: u8,
    /// Global flat bank index (`rank * banks_per_rank + flat_bank`),
    /// decoded once at enqueue so the issue loop never re-derives it.
    gbank: u32,
}

impl Queued {
    fn outcome(&self) -> RowOutcome {
        match (self.pres, self.acts) {
            (0, 0) => RowOutcome::Hit,
            (0, _) => RowOutcome::Miss,
            _ => RowOutcome::Conflict,
        }
    }
}

/// One entry of a per-(rank,bank) FR-FCFS queue: the slab slot plus the
/// two fields the scheduling passes actually compare (`row` for hit
/// classification, `seq` for age ordering), kept inline so candidate
/// selection never dereferences the slab.
#[derive(Debug, Clone, Copy)]
struct BankEntry {
    slot: u32,
    row: u32,
    seq: u64,
}

/// The command a pass-2 candidate needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextCmd {
    Column,
    Pre,
    Act,
}

/// What one candidate traversal produced.
#[derive(Debug, Clone, Copy)]
struct ScanResult {
    /// Pass-1 winner: oldest legal row-hit column command.
    col_winner: Option<u32>,
    /// Pass-2 winner: oldest legal next command.
    other_winner: Option<(u32, NextCmd)>,
    /// Earliest future readiness over every not-yet-legal candidate.
    min_ready: Option<Cycle>,
    /// How many candidates were legal this cycle. When the issued winner
    /// was the only one, `min_ready` (plus the issued bank's fresh
    /// candidates) bounds every surviving candidate and the engine can
    /// jump; with more, the next cycle usually issues again and is
    /// ticked normally.
    legal: u32,
}

/// The running state of a candidate scan: the best candidate of each
/// pass so far, the earliest readiness seen and the legal count.
struct Pick {
    now: Cycle,
    /// Whether pass 1 runs: a legal column candidate competes there,
    /// not in pass 2.
    fr: bool,
    best_col_seq: u64,
    best_col: u32,
    best_other_seq: u64,
    best_other: (u32, NextCmd),
    min_ready: Cycle,
    legal: u32,
}

impl Pick {
    fn new(now: Cycle, fr: bool) -> Self {
        Self {
            now,
            fr,
            best_col_seq: u64::MAX,
            best_col: 0,
            best_other_seq: u64::MAX,
            best_other: (0, NextCmd::Pre),
            min_ready: Cycle::MAX,
            legal: 0,
        }
    }

    /// Counts `at` towards the earliest readiness.
    #[inline]
    fn wait(&mut self, at: Cycle) {
        self.min_ready = self.min_ready.min(at);
    }

    /// Sorts the candidates of `bits`, bank `b`'s legal from `ready(b)`,
    /// without a branch per candidate: counts each one not yet legal
    /// towards the earliest readiness and returns the legal ones.
    #[inline]
    fn legal(&mut self, bits: u64, ready: impl Fn(usize) -> Cycle) -> u64 {
        let mut legal = 0;
        for_each_bit(bits, |b| {
            let at = ready(b);
            let ok = at <= self.now;
            self.min_ready = self.min_ready.min(kept_or_max(at, !ok));
            legal |= u64::from(ok) << b;
        });
        legal
    }

    /// Takes `c`'s column candidate, legal now.
    #[inline]
    fn take_col(&mut self, c: &CandCache) {
        self.legal += 1;
        let seq = c.col_seq;
        if self.fr {
            if seq < self.best_col_seq {
                self.best_col_seq = seq;
                self.best_col = c.col_slot;
            }
        } else if seq < self.best_other_seq {
            self.best_other_seq = seq;
            self.best_other = (c.col_slot, NextCmd::Column);
        }
    }

    /// Takes `c`'s ACT or PRE candidate (`cmd`), legal now.
    #[inline]
    fn take_alt(&mut self, c: &CandCache, cmd: NextCmd) {
        self.legal += 1;
        let seq = c.alt_seq;
        if seq < self.best_other_seq {
            self.best_other_seq = seq;
            self.best_other = (c.alt_slot, cmd);
        }
    }

    fn result(&self) -> ScanResult {
        ScanResult {
            col_winner: (self.best_col_seq != u64::MAX).then_some(self.best_col),
            other_winner: (self.best_other_seq != u64::MAX).then_some(self.best_other),
            min_ready: (self.min_ready != Cycle::MAX).then_some(self.min_ready),
            legal: self.legal,
        }
    }
}

/// Calls `f` with the index of every set bit of `bits`, lowest first.
#[inline]
fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// The smaller of two optional cycles.
fn min_cycle(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// What one controller cycle did.
///
/// A tick that issued nothing hands back the earliest future cycle at
/// which any *queued-request command* could become legal, computed for
/// free from the same candidate traversal that just failed to find a
/// legal command (nothing mutated, so the readiness cycles it gathered
/// are still exact). The event-driven engine combines it with the cheap
/// non-bank events (staged arrival, refresh) to pick its jump target —
/// no second traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TickOutcome {
    /// A command slot was consumed. The payload, when present, is a *safe
    /// lower bound* on the next bank-candidate event: the pre-issue scan
    /// minimum (an issue only ever pushes timing constraints later, so
    /// surviving candidates cannot become ready earlier than it) combined
    /// with the issued bank's freshly recomputed candidates. A
    /// lower-bound jump can cost at most a no-op tick; it can never skip
    /// a decision cycle. `None` means no safe bound is available (e.g. a
    /// refresh issued) — tick the next cycle normally.
    Issued(Option<Cycle>),
    /// Nothing issued; the earliest future bank-candidate readiness, if
    /// any request is queued.
    Idle(Option<Cycle>),
}

/// Cached scheduling candidates of one bank, packed into a
/// single 64-byte cache line — the scan touches exactly one unique line
/// per candidate it evaluates.
///
/// A bank has at most two candidate classes at a time: when its row
/// buffer is open, the earliest row-hit entry (column command) and the
/// earliest row-mismatch entry (PRE); when closed, only the earliest
/// entry (ACT). The cache stores them as `col` and `alt`, with
/// `alt_is_act` recording which command the `alt` slot needs. A
/// `u64::MAX` sequence number marks an absent candidate.
///
/// Valid until the owning bank's timing state, row state or queue
/// contents change, which puts the bank on the dirty list — except an
/// admission to a clean bank, which updates the cache in place
/// ([`ReadQueue::push`]). Rank-level timers and the shared data bus
/// change on almost every issue, so those parts are deliberately **not**
/// cached: they are read live (as per-rank gates) and combined at query
/// time. Mere passage of time never invalidates the cache — legality is
/// a comparison of the cached cycle against `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
struct CandCache {
    /// Sequence of the earliest row-hit entry (`u64::MAX` = none).
    col_seq: u64,
    /// Sequence of the earliest PRE/ACT entry (`u64::MAX` = none).
    alt_seq: u64,
    /// Bank-local earliest-legal cycle of the column command.
    col_ready: Cycle,
    /// Bank-local earliest-legal cycle of the PRE/ACT command.
    alt_ready: Cycle,
    /// Slab slots of the two candidates.
    col_slot: u32,
    alt_slot: u32,
    /// Whether `alt` is an ACT (closed bank) rather than a PRE.
    alt_is_act: bool,
    /// The bank's bank group, for the rank timer's bank-group parts. Set
    /// at construction and never changed.
    bg: u8,
}

impl CandCache {
    /// The cache of a bank in bank group `bg` with no candidates.
    fn empty(bg: u8) -> Self {
        Self {
            col_seq: u64::MAX,
            alt_seq: u64::MAX,
            col_ready: 0,
            alt_ready: 0,
            col_slot: 0,
            alt_slot: 0,
            alt_is_act: false,
            bg,
        }
    }

    /// Recomputes the candidates of one bank from its queue and state;
    /// `bg` is the bank's bank group.
    fn compute(queue: &[BankEntry], bank: &Bank, bg: u8) -> Self {
        let mut c = Self::empty(bg);
        match bank.state {
            BankState::Closed => {
                if let Some(e) = queue.first() {
                    c.alt_seq = e.seq;
                    c.alt_slot = e.slot;
                    c.alt_ready = bank.act_ready();
                    c.alt_is_act = true;
                }
            }
            BankState::Open(row) => {
                for e in queue {
                    if e.row == row {
                        if c.col_seq == u64::MAX {
                            c.col_seq = e.seq;
                            c.col_slot = e.slot;
                        }
                    } else if c.alt_seq == u64::MAX {
                        c.alt_seq = e.seq;
                        c.alt_slot = e.slot;
                    }
                    if c.col_seq != u64::MAX && c.alt_seq != u64::MAX {
                        break;
                    }
                }
                if c.col_seq != u64::MAX {
                    c.col_ready = bank.rd_ready();
                }
                if c.alt_seq != u64::MAX {
                    c.alt_ready = bank.pre_ready();
                }
            }
        }
        c
    }

    /// The column candidate's readiness below its rank's gate: the cached
    /// bank part and the rank timer's bank-group part. Its earliest-legal
    /// cycle is this or the rank's column gate (see
    /// [`MemorySystem::col_gate`]), whichever is later; behind an open
    /// gate it is this alone. The one spelling of the formula, shared by
    /// the scan and the post-issue hint.
    #[inline]
    fn col_at(&self, timer: &RankTimer) -> Cycle {
        self.col_ready.max(timer.col_group_ready(self.bg))
    }

    /// An ACT candidate's readiness below its rank's ACT gate
    /// ([`RankTimer::act_rank_ready`]): the cached bank part and the rank
    /// timer's bank-group part.
    #[inline]
    fn act_at(&self, timer: &RankTimer) -> Cycle {
        self.alt_ready.max(timer.act_group_ready(self.bg))
    }
}

/// Which banks of one 64-bank word of the channel hold a candidate of
/// each command class (bit `i` = global flat bank `64 * word + i`).
#[derive(Debug, Clone, Copy, Default)]
struct ClassMasks {
    col: u64,
    act: u64,
    pre: u64,
}

/// The end of an arrival-order list.
const NIL: u32 = u32::MAX;

/// A slab slot's neighbours in the arrival order, older (`prev`) and
/// newer (`next`); [`NIL`] at the ends.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// The controller's read queue: its admitted requests, its per-bank
/// queues, its candidate caches and the index the scan walks over them.
#[derive(Debug)]
struct ReadQueue {
    /// The oldest and the newest admitted request: the ends of the
    /// arrival (`seq`) order, the FR-FCFS consideration order, a list
    /// threaded through [`MemorySystem::links`] so that admitting and
    /// retiring are O(1).
    head: u32,
    tail: u32,
    /// Admitted requests: the queue depth.
    live: usize,
    /// Per-(rank,bank) FR-FCFS queues in `seq` order, one per global flat
    /// bank. Small (queue caps bound them), capacity reused.
    queues: Vec<Vec<BankEntry>>,
    /// Per-bank candidate caches, one 64-byte line each.
    cand: Vec<CandCache>,
    /// Channel-wide class bitmasks over `cand`, one bit per global flat
    /// bank (bit `g % 64` of word `g / 64`). A rank's banks never
    /// straddle a word.
    masks: Vec<ClassMasks>,
    /// Banks whose cache is stale, each listed once (`is_dirty` dedupes),
    /// so the list never outgrows its bank-count capacity and pushing
    /// never allocates.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
}

impl ReadQueue {
    /// An empty queue over banks whose bank groups are `bank_bg`
    /// (indexed by global flat bank).
    fn new(bank_bg: &[u8]) -> Self {
        let total_banks = bank_bg.len();
        Self {
            head: NIL,
            tail: NIL,
            live: 0,
            queues: vec![Vec::new(); total_banks],
            cand: bank_bg.iter().map(|&bg| CandCache::empty(bg)).collect(),
            masks: vec![ClassMasks::default(); total_banks.div_ceil(64)],
            dirty: Vec::with_capacity(total_banks),
            is_dirty: vec![false; total_banks],
        }
    }

    /// Marks `gbank`'s candidates stale.
    fn mark(&mut self, gbank: usize) {
        if !self.is_dirty[gbank] {
            self.is_dirty[gbank] = true;
            self.dirty.push(gbank as u32);
        }
    }

    /// Recomputes the candidates (and class bits) of every dirty bank.
    fn refresh(&mut self, banks: &[Bank]) {
        for g in self.dirty.drain(..) {
            let g = g as usize;
            let c = CandCache::compute(&self.queues[g], &banks[g], self.cand[g].bg);
            let (m, bit) = (&mut self.masks[g / 64], 1u64 << (g % 64));
            let has_alt = c.alt_seq != u64::MAX;
            set_bit(&mut m.col, bit, c.col_seq != u64::MAX);
            set_bit(&mut m.act, bit, has_alt && c.alt_is_act);
            set_bit(&mut m.pre, bit, has_alt && !c.alt_is_act);
            self.cand[g] = c;
            self.is_dirty[g] = false;
        }
    }

    /// Appends `e`, the newest request, to `gbank`'s queue. Being the
    /// newest, it can only fill a class the bank lacks: the ACT of a
    /// closed bank, or the column command or PRE of an open one. A clean
    /// cache takes it in place, with its class bit; a dirty one is
    /// recomputed by the next scan as before.
    fn push(&mut self, gbank: usize, e: BankEntry, bank: &Bank) {
        self.queues[gbank].push(e);
        if self.is_dirty[gbank] {
            return;
        }
        let c = &mut self.cand[gbank];
        let (m, bit) = (&mut self.masks[gbank / 64], 1u64 << (gbank % 64));
        if bank.state == BankState::Open(e.row) {
            if c.col_seq == u64::MAX {
                c.col_seq = e.seq;
                c.col_slot = e.slot;
                c.col_ready = bank.rd_ready();
                m.col |= bit;
            }
        } else if c.alt_seq == u64::MAX {
            let is_act = bank.state == BankState::Closed;
            c.alt_seq = e.seq;
            c.alt_slot = e.slot;
            c.alt_is_act = is_act;
            if is_act {
                c.alt_ready = bank.act_ready();
                m.act |= bit;
            } else {
                c.alt_ready = bank.pre_ready();
                m.pre |= bit;
            }
        }
    }

    /// Admits `slot` behind every older request.
    fn admit(&mut self, links: &mut [Link], slot: u32) {
        links[slot as usize] = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = slot,
            tail => links[tail as usize].next = slot,
        }
        self.tail = slot;
        self.live += 1;
    }

    /// Unlinks the retiring `slot` from the arrival order.
    fn retire(&mut self, links: &mut [Link], slot: u32) {
        let Link { prev, next } = links[slot as usize];
        match prev {
            NIL => self.head = next,
            prev => links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => links[next as usize].prev = prev,
        }
        self.live -= 1;
    }

    /// The slot of the oldest admitted request, if any.
    fn oldest(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }
}

/// `at` when `keep`, else `Cycle::MAX`: a branch-free term for a running
/// minimum.
#[inline]
fn kept_or_max(at: Cycle, keep: bool) -> Cycle {
    at | u64::from(!keep).wrapping_neg()
}

/// Sets or clears `bit` in `word`.
#[inline]
fn set_bit(word: &mut u64, bit: u64, on: bool) {
    *word = (*word & !bit) | (u64::from(on) * bit);
}

/// The read source of a run: `(addr, arrival)` in staging order.
type ReadSource<'a> = dyn Iterator<Item = (PhysAddr, Cycle)> + 'a;

/// The completion callback of a run, called once per request in
/// data-transfer order.
type Done<'a> = dyn FnMut(&CompletedRequest) + 'a;

/// One simulated memory channel: DDR4 devices plus an FR-FCFS controller.
///
/// The model issues at most one DDR command per cycle (the command/address
/// bus limit that RecNMP's compressed instructions work around). Time
/// advances one DRAM clock per loop iteration with [`SimEngine::PerCycle`],
/// or, with the default [`SimEngine::EventDriven`], jumps straight to the
/// next cycle at which anything could change whenever no command can
/// issue, which is cycle-identical but does O(commands) instead of
/// O(cycles) work.
///
/// [`run_stream`](Self::run_stream) is the one way to run: it pulls its
/// reads from an iterator as the read queue drains and hands each
/// completion to a callback, so its memory stays bounded by the queues
/// however long the stream. A run ends at the last completion's finish
/// cycle, so callers read what it cost off [`cycle`](Self::cycle) and
/// [`stats`](Self::stats).
///
/// # Examples
///
/// ```
/// use recnmp_dram::{DramConfig, MemorySystem};
/// use recnmp_types::PhysAddr;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = MemorySystem::new(DramConfig::single_rank())?;
/// let reads = (0..8u32).map(|i| (PhysAddr::new(u64::from(i) * 64), 0));
/// let mut last = None;
/// mem.run_stream(reads, |c| last = Some(c.finish_cycle))?;
/// assert_eq!(mem.stats().reads, 8);
/// assert_eq!(last, Some(mem.cycle()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    timing: DdrTiming,
    geo: Geometry,
    /// `geo.banks_per_rank()`, cached for the flat bank indexing below.
    /// A power of two of at most 64, so a global flat bank's rank is
    /// `gbank >> rank_shift`.
    bpr: usize,
    rank_shift: u32,
    cycle: Cycle,
    /// All banks, flattened rank-major: `banks[rank * bpr + flat_bank]`.
    banks: Vec<Bank>,
    ranks: Vec<RankTimer>,
    /// Per-rank: a refresh is due and the rank takes no request command
    /// until its REF issues.
    refresh_pending: Vec<bool>,
    /// How many `refresh_pending` flags refresh has set.
    refreshes_pending: usize,
    /// The earliest `refresh_due` over the ranks without a pending
    /// refresh (`Cycle::MAX` when every rank has one), so a tick checks
    /// one deadline instead of every rank.
    next_refresh_due: Cycle,
    data_bus_free: Cycle,
    last_data_rank: Option<u8>,
    staged: VecDeque<Queued>,
    /// Reads of the running stream not yet pulled into `staged`; they
    /// count as staged everywhere (`pending`, the stall detector).
    unpulled: usize,
    /// Slab of admitted requests; slots are recycled through `free_slots`
    /// so the steady-state issue loop never allocates.
    slab: Vec<Queued>,
    /// Each slab slot's place in the arrival order.
    links: Vec<Link>,
    free_slots: Vec<u32>,
    reads: ReadQueue,
    next_seq: u64,
    stats: DramStats,
    monitor: Option<ProtocolMonitor>,
    loop_iters: u64,
}

impl MemorySystem {
    /// Builds a memory system for the given channel configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`recnmp_types::ConfigError`] when the configuration is
    /// inconsistent (see [`DramConfig::validate`]).
    pub fn new(config: DramConfig) -> Result<Self, recnmp_types::ConfigError> {
        config.validate()?;
        let geo = config.geometry();
        let timing = config.timing;
        let ranks: Vec<RankTimer> = (0..geo.ranks)
            .map(|_| RankTimer::new(geo.bank_groups, &timing))
            .collect();
        let next_refresh_due = ranks.iter().map(RankTimer::refresh_due).min();
        let bpr = geo.banks_per_rank();
        if bpr > u64::BITS as usize {
            // A rank's banks must fit one word of the scheduler's class
            // bitmasks.
            return Err(recnmp_types::ConfigError::new(
                "banks_per_rank",
                "must be at most 64",
            ));
        }
        let total_banks = geo.ranks as usize * bpr;
        let bank_bg: Vec<u8> = (0..total_banks)
            .map(|g| ((g % bpr) / geo.banks_per_group as usize) as u8)
            .collect();
        Ok(Self {
            refresh_pending: vec![false; geo.ranks as usize],
            refreshes_pending: 0,
            next_refresh_due: next_refresh_due.unwrap_or(Cycle::MAX),
            config,
            timing,
            geo,
            bpr,
            rank_shift: bpr.trailing_zeros(),
            cycle: 0,
            banks: vec![Bank::new(); total_banks],
            ranks,
            data_bus_free: 0,
            last_data_rank: None,
            staged: VecDeque::new(),
            unpulled: 0,
            slab: Vec::new(),
            links: Vec::new(),
            free_slots: Vec::new(),
            reads: ReadQueue::new(&bank_bg),
            next_seq: 0,
            stats: DramStats::new(),
            monitor: None,
            loop_iters: 0,
        })
    }

    /// Returns the active configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Returns the channel geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Attaches an independent protocol monitor that checks every issued
    /// command against the DDR timing rules (used by the test suite).
    pub fn attach_monitor(&mut self) {
        self.monitor = Some(ProtocolMonitor::new(self.geo, self.timing));
    }

    /// Timing violations recorded by the attached monitor, if any.
    pub fn monitor_violations(&self) -> &[String] {
        self.monitor.as_ref().map_or(&[], |m| m.violations())
    }

    /// Requests known to the controller but not yet completed, including
    /// the reads a running stream has not handed over yet.
    pub fn pending(&self) -> usize {
        self.staged_len() + self.reads.live
    }

    /// Requests not yet admitted: the staged queue plus the running
    /// stream's unpulled reads.
    fn staged_len(&self) -> usize {
        self.staged.len() + self.unpulled
    }

    /// Enqueues a 64-byte read of the burst containing `addr`, visible to
    /// the controller from cycle `arrival`, for the next
    /// [`run_stream`](Self::run_stream). Requests are numbered in enqueue
    /// order; the number comes back as [`CompletedRequest::seq`].
    pub fn enqueue(&mut self, addr: PhysAddr, arrival: Cycle) {
        let addr = self.config.mapping.decode(addr, &self.geo);
        self.enqueue_decoded(addr, arrival);
    }

    /// Enqueues a read at pre-decoded DRAM coordinates. Rank-NMP modules
    /// use this path: their instructions carry device coordinates directly.
    pub fn enqueue_decoded(&mut self, addr: DramAddr, arrival: Cycle) {
        assert!(
            addr.rank < self.geo.ranks
                && addr.bank_group < self.geo.bank_groups
                && addr.bank < self.geo.banks_per_group
                && addr.row < self.geo.rows
                && addr.column < self.geo.columns,
            "decoded address out of range for geometry"
        );
        let gbank =
            (addr.rank as usize * self.bpr + addr.flat_bank(self.geo.banks_per_group)) as u32;
        let q = Queued {
            addr,
            arrival,
            seq: self.next_seq,
            acts: 0,
            pres: 0,
            gbank,
        };
        self.next_seq += 1;
        self.staged.push_back(q);
    }

    /// One controller cycle: admit arrivals, progress refresh, issue at
    /// most one command. Returns whether a command slot was consumed and,
    /// when it was not, the earliest future bank-candidate readiness.
    fn tick(&mut self, done: &mut Done<'_>) -> TickOutcome {
        self.loop_iters += 1;
        let outcome = if self.admit_and_refresh() {
            TickOutcome::Issued(None)
        } else {
            self.issue_request_command(done)
        };
        self.cycle += 1;
        outcome
    }

    /// The part of a controller cycle before the FR-FCFS decision: admit
    /// arrivals and progress refresh. Returns whether a refresh command
    /// took the cycle's command slot.
    fn admit_and_refresh(&mut self) -> bool {
        self.admit_arrivals();
        if !self.config.refresh {
            return false;
        }
        if self.cycle >= self.next_refresh_due {
            self.update_refresh_state();
        }
        self.refreshes_pending > 0 && self.try_issue_refresh()
    }

    /// Main-loop iterations executed so far (ticks, across both engines).
    ///
    /// For the per-cycle engine this equals elapsed cycles; for the
    /// event-driven engine it is O(issued commands). The `event_equivalence`
    /// suite uses it to prove the skip-ahead engine does less work.
    pub fn loop_iterations(&self) -> u64 {
        self.loop_iters
    }

    /// Runs the requests already enqueued, then `reads` as `(addr,
    /// arrival)` reads in order, until every one has completed, handing
    /// each completion to `done` in data-transfer order.
    ///
    /// The stream is pulled lazily: the staged queue is topped up to the
    /// admission capacity of one tick (the read queue's capacity) after
    /// every loop iteration, so the channel holds O(queue) requests
    /// however long the stream. Unpulled reads count as staged for
    /// [`pending`](Self::pending), the stall detector and the
    /// [`SimError::Stalled`] they report, so a run is cycle-identical
    /// however its reads are split between [`enqueue`](Self::enqueue) and
    /// the stream: same completions, statistics, final cycle and loop
    /// iterations.
    ///
    /// A run ends when its last data beat has transferred: afterwards
    /// [`cycle`](Self::cycle) is the last completion's finish cycle, or
    /// unchanged when nothing was queued.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if the controller stops making
    /// forward progress while requests are pending (a scheduling livelock;
    /// see [`DramConfig::stall_iterations`]); the reads not yet pulled are
    /// dropped.
    pub fn run_stream<I, F>(&mut self, reads: I, mut done: F) -> Result<(), SimError>
    where
        I: IntoIterator<Item = (PhysAddr, Cycle)>,
        I::IntoIter: ExactSizeIterator,
        F: FnMut(&CompletedRequest),
    {
        let mut reads = reads.into_iter();
        self.unpulled = reads.len();
        let run = match self.config.engine {
            SimEngine::EventDriven => self.run_event_driven(&mut reads, &mut done),
            SimEngine::PerCycle => self.run_per_cycle(&mut reads, &mut done),
        };
        self.unpulled = 0;
        run
    }

    /// Moves reads from `src` into the staged queue until it holds as
    /// many requests as one tick can admit (the read queue's capacity).
    /// The FIFO front and every admission then match a run with the whole
    /// stream staged up front.
    fn pull(&mut self, src: &mut ReadSource<'_>) {
        while self.unpulled > 0 && self.staged.len() < self.config.read_queue {
            match src.next() {
                Some((addr, arrival)) => {
                    self.unpulled -= 1;
                    self.enqueue(addr, arrival);
                }
                None => self.unpulled = 0,
            }
        }
    }

    fn stalled(&self) -> SimError {
        SimError::Stalled {
            cycle: self.cycle,
            pending: self.pending(),
        }
    }

    /// Stall bookkeeping shared by both engines. Progress means a request
    /// moved: it completed (pending shrank) or was admitted from the
    /// staged queue (staged shrank). Mere command issue — refresh steps,
    /// re-ACTs — does NOT count, or a livelocked controller that keeps
    /// refreshing on schedule would never trip the bound; both progress
    /// forms are bounded by the finite request count, so neither can mask
    /// a livelock indefinitely. The only *unbounded* legitimate wait
    /// without progress is a staged arrival in the far future; any other
    /// wait is bounded by the DDR timing constants, far below
    /// [`DramConfig::stall_iterations`].
    fn note_progress(&self, last: &mut (usize, usize), idle: &mut u64) -> Result<(), SimError> {
        let state = self.progress_state();
        if state.0 < last.0 || state.1 < last.1 {
            *last = state;
            *idle = 0;
            return Ok(());
        }
        *idle += 1;
        if *idle > self.config.stall_iterations {
            match self.next_admissible_arrival() {
                Some(at) if at > self.cycle => *idle = 0,
                _ => return Err(self.stalled()),
            }
        }
        Ok(())
    }

    fn progress_state(&self) -> (usize, usize) {
        (self.pending(), self.staged_len())
    }

    /// Reference main loop: one DRAM clock per iteration.
    fn run_per_cycle(
        &mut self,
        src: &mut ReadSource<'_>,
        done: &mut Done<'_>,
    ) -> Result<(), SimError> {
        self.pull(src);
        let mut last = self.progress_state();
        let mut idle = 0u64;
        while self.pending() > 0 {
            self.tick(done);
            self.pull(src);
            self.note_progress(&mut last, &mut idle)?;
        }
        self.drain_data_bus(done);
        Ok(())
    }

    /// Event-driven main loop: whenever a tick issues nothing, jump the
    /// clock to the next cycle at which anything could change. The
    /// bank-candidate part of that jump target comes straight out of the
    /// failed tick's own scheduling scan (nothing mutated, so the
    /// readiness cycles it gathered are exact); only the cheap non-bank
    /// events (staged arrival, refresh deadlines) are added here.
    fn run_event_driven(
        &mut self,
        src: &mut ReadSource<'_>,
        done: &mut Done<'_>,
    ) -> Result<(), SimError> {
        self.pull(src);
        let mut last = self.progress_state();
        let mut idle = 0u64;
        while self.pending() > 0 {
            let outcome = self.tick(done);
            self.pull(src);
            self.note_progress(&mut last, &mut idle)?;
            match outcome {
                TickOutcome::Idle(cand) => match self.light_event_cycle(cand) {
                    Some(e) => self.cycle = e.max(self.cycle),
                    None => return Err(self.stalled()),
                },
                // Post-issue skip: jump over the cycles where provably
                // nothing can happen. The bound is conservative (never
                // late), so at worst the next tick is a no-op. Skipped
                // when the issue emptied the queues (the run ends at the
                // current cycle) or no safe bound exists.
                TickOutcome::Issued(Some(bound)) if self.pending() > 0 => {
                    if let Some(e) = self.light_event_cycle(Some(bound)) {
                        self.cycle = e.max(self.cycle);
                    }
                }
                TickOutcome::Issued(_) => {}
            }
        }
        self.drain_data_bus(done);
        Ok(())
    }

    /// Lets in-flight data bursts (and any refresh that falls due while
    /// they stream) finish.
    fn drain_data_bus(&mut self, done: &mut Done<'_>) {
        let drain_to = self.data_bus_free.max(self.cycle);
        while self.cycle < drain_to {
            let outcome = self.tick(done);
            if self.config.engine == SimEngine::EventDriven {
                if let TickOutcome::Idle(cand) = outcome {
                    let e = self
                        .light_event_cycle(cand)
                        .map_or(drain_to, |e| e.min(drain_to));
                    self.cycle = e.max(self.cycle);
                }
                // Issued ticks keep stepping cycle by cycle; the drain
                // window is a handful of cycles, not worth bounding.
            }
        }
    }

    /// The jump target of a tick that issued nothing: the earliest of
    /// `cand`, the failed scan's bank-candidate readiness, and the
    /// non-bank events (the next admissible staged arrival, the next
    /// refresh deadline or refresh-step legality). `None` when no such
    /// cycle exists — with requests pending that is a livelock, which the
    /// run reports as [`SimError::Stalled`].
    fn light_event_cycle(&self, cand: Option<Cycle>) -> Option<Cycle> {
        let mut next = cand.unwrap_or(Cycle::MAX);
        if let Some(at) = self.next_admissible_arrival() {
            next = next.min(at);
        }
        if self.config.refresh {
            next = next.min(self.next_refresh_due);
            if self.refreshes_pending > 0 {
                let first = self.refresh_pending.iter().position(|&p| p);
                next = next.min(self.refresh_step_ready(first.expect("a pending rank")));
            }
        }
        (next != Cycle::MAX).then(|| next.max(self.cycle))
    }

    /// The earliest-legal cycle of `gbank`'s candidates: the cached
    /// bank-local parts combined with the **live** rank timers and
    /// data-bus reservation, through the same gates and
    /// [`CandCache::col_at`]/[`CandCache::act_at`] the scan uses. `None`
    /// when the bank holds no request.
    fn candidates_ready(&self, gbank: usize) -> Option<Cycle> {
        let c = &self.reads.cand[gbank];
        let rank = gbank >> self.rank_shift;
        let timer = &self.ranks[rank];
        let col = (c.col_seq != u64::MAX).then(|| c.col_at(timer).max(self.col_gate(rank)));
        let alt = (c.alt_seq != u64::MAX).then(|| {
            if c.alt_is_act {
                c.act_at(timer).max(timer.act_rank_ready())
            } else {
                c.alt_ready
            }
        });
        min_cycle(col, alt)
    }

    /// The column gate of `rank`: the part of column readiness shared by
    /// all its banks — the rank timer's rank-wide part and the data bus.
    /// A lower bound on every column candidate of the rank.
    fn col_gate(&self, rank: usize) -> Cycle {
        let (same, other) = self.bus_parts();
        let bus = match self.last_data_rank {
            Some(last) if usize::from(last) != rank => other,
            _ => same,
        };
        self.ranks[rank].col_rank_ready().max(bus)
    }

    /// The data-bus contribution to column legality: the cycle from which
    /// a RD's data (tCL later) no longer collides with the current bus
    /// reservation. The first value is for the rank whose data last used
    /// the bus (or for every rank, before any data has moved), the second
    /// for every other rank, which pays the rank-to-rank switch penalty.
    fn bus_parts(&self) -> (Cycle, Cycle) {
        let (bus_free, t_cl) = (self.data_bus_free, self.timing.t_cl);
        (
            bus_free.saturating_sub(t_cl),
            (bus_free + self.timing.rank_switch).saturating_sub(t_cl),
        )
    }

    /// Brings the candidate caches and class bits up to date.
    #[inline]
    fn refresh_candidates(&mut self) {
        if !self.reads.dirty.is_empty() {
            self.reads.refresh(&self.banks);
        }
    }

    /// Arrival cycle of the staged-queue front, if the read queue has
    /// room to admit it.
    fn next_admissible_arrival(&self) -> Option<Cycle> {
        let front = self.staged.front()?;
        (!self.queue_full()).then_some(front.arrival)
    }

    /// Earliest cycle rank `r`'s next refresh step (PRE of the first open
    /// bank, or the REF itself) becomes legal.
    fn refresh_step_ready(&self, r: usize) -> Cycle {
        let banks = self.rank_banks(r);
        if let Some(b) = banks
            .iter()
            .position(|b| matches!(b.state, BankState::Open(_)))
        {
            banks[b].pre_ready()
        } else {
            banks
                .iter()
                .map(Bank::act_ready)
                .max()
                .unwrap_or(0)
                .max(self.ranks[r].busy_until())
        }
    }

    /// The banks of rank `r` as a slice of the flat bank array.
    fn rank_banks(&self, r: usize) -> &[Bank] {
        &self.banks[r * self.bpr..(r + 1) * self.bpr]
    }

    /// Whether the read queue is at capacity.
    fn queue_full(&self) -> bool {
        self.reads.live >= self.config.read_queue
    }

    fn admit_arrivals(&mut self) {
        while let Some(front) = self.staged.front() {
            if front.arrival > self.cycle {
                // Staged requests are admitted in FIFO order; later arrivals
                // cannot jump the queue.
                break;
            }
            if self.queue_full() {
                break;
            }
            let q = self.staged.pop_front().expect("front checked");
            let gbank = q.gbank as usize;
            let entry_row = q.addr.row;
            let entry_seq = q.seq;
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.slab[s as usize] = q;
                    s
                }
                None => {
                    self.slab.push(q);
                    self.links.push(Link {
                        prev: NIL,
                        next: NIL,
                    });
                    (self.slab.len() - 1) as u32
                }
            };
            self.reads.admit(&mut self.links, slot);
            let entry = BankEntry {
                slot,
                row: entry_row,
                seq: entry_seq,
            };
            self.reads.push(gbank, entry, &self.banks[gbank]);
        }
    }

    /// Flags every rank whose refresh has fallen due, and moves
    /// `next_refresh_due` to the next deadline among the rest.
    fn update_refresh_state(&mut self) {
        let mut next = Cycle::MAX;
        for (timer, pending) in self.ranks.iter().zip(&mut self.refresh_pending) {
            if *pending {
                continue;
            }
            if self.cycle >= timer.refresh_due() {
                *pending = true;
                self.refreshes_pending += 1;
            } else {
                next = next.min(timer.refresh_due());
            }
        }
        self.next_refresh_due = next;
    }

    /// Tries to make progress on a pending refresh; returns true if a
    /// command slot was consumed.
    fn try_issue_refresh(&mut self) -> bool {
        let now = self.cycle;
        for r in 0..self.geo.ranks as usize {
            if !self.refresh_pending[r] {
                continue;
            }
            let base = r * self.bpr;
            // Close any open bank first.
            if let Some(b) = self
                .rank_banks(r)
                .iter()
                .position(|b| matches!(b.state, BankState::Open(_)))
            {
                if self.banks[base + b].pre_ready() <= now {
                    let addr = self.bank_addr(r as u8, b);
                    self.issue(DdrCommand::new(DdrCommandKind::Pre, addr));
                    self.banks[base + b].do_pre(now, &self.timing);
                    self.reads.mark(base + b);
                    self.stats.pres += 1;
                    return true;
                }
                // An open bank is not yet precharge-able; wait.
                return false;
            }
            // All banks closed: wait out tRP, then refresh.
            let ready = self
                .rank_banks(r)
                .iter()
                .map(Bank::act_ready)
                .max()
                .unwrap_or(0);
            if ready <= now && self.ranks[r].busy_until() <= now {
                let addr = self.bank_addr(r as u8, 0);
                self.issue(DdrCommand::new(DdrCommandKind::Ref, addr));
                self.ranks[r].did_ref(now, &self.timing);
                let done = now + self.timing.t_rfc;
                for bank in &mut self.banks[base..base + self.bpr] {
                    bank.finish_refresh(done);
                }
                for gbank in base..base + self.bpr {
                    self.reads.mark(gbank);
                }
                self.stats.refs += 1;
                self.refresh_pending[r] = false;
                self.refreshes_pending -= 1;
                self.next_refresh_due = self.next_refresh_due.min(self.ranks[r].refresh_due());
                return true;
            }
            return false;
        }
        false
    }

    fn bank_addr(&self, rank: u8, flat_bank: usize) -> DramAddr {
        DramAddr {
            rank,
            bank_group: (flat_bank / self.geo.banks_per_group as usize) as u8,
            bank: (flat_bank % self.geo.banks_per_group as usize) as u8,
            row: 0,
            column: 0,
        }
    }

    /// FR-FCFS issue: one command per cycle.
    ///
    /// The decision procedure is unchanged from the flat-queue scheduler —
    /// pass 1 issues the oldest row-hit column command that is legal right
    /// now, pass 2 the oldest request whose next command (column, PRE or
    /// ACT) is legal — but both passes run over the per-bank candidate
    /// caches: each bank contributes its earliest eligible request per
    /// command class (requests needing the same command on the same bank
    /// share one legality verdict), and the oldest legal candidate across
    /// banks wins. No allocation, no sort, no per-request timing
    /// re-checks. When nothing is legal, the same scan has already
    /// produced a lower bound on the earliest future readiness, which the
    /// event-driven engine jumps to.
    fn issue_request_command(&mut self, done: &mut Done<'_>) -> TickOutcome {
        let Some(oldest) = self.reads.oldest() else {
            return TickOutcome::Idle(None);
        };
        // Starvation guard: when the oldest request has waited too long,
        // skip the row-hit pass so it makes progress.
        let oldest_age = self
            .cycle
            .saturating_sub(self.slab[oldest as usize].arrival);
        let allow_fr = oldest_age < self.config.starvation_cycles;

        let scan = self.scan(allow_fr);
        // Pass 1: first-ready — the oldest request whose row is open and
        // whose column command is legal right now; only found when pass 1
        // runs. Pass 2: oldest-first — whatever command the oldest
        // serviceable request needs next, if legal. When pass 1 ran,
        // row-hit column commands are already proven illegal (legality is
        // bank state that cannot change without an issue), so only PRE
        // and ACT candidates remain in play.
        let (slot, cmd) = match (scan.col_winner, scan.other_winner) {
            (Some(slot), _) => (slot, NextCmd::Column),
            (None, Some(winner)) => winner,
            (None, None) => return TickOutcome::Idle(scan.min_ready),
        };
        let gbank = self.slab[slot as usize].gbank as usize;
        self.issue_progress(slot, cmd, done);
        TickOutcome::Issued(self.post_issue_hint(gbank, &scan))
    }

    /// A safe lower bound on the next bank-candidate event after an
    /// issue, or `None` when the very next cycle must be ticked normally.
    ///
    /// Only taken when the issued command was the *only* legal candidate
    /// this cycle. Then every surviving candidate was not-yet-legal, and
    /// `min_ready` bounds their readiness from below (an issue only ever
    /// pushes timing constraints later). The issued bank's candidate
    /// structure did change, so its candidates (the only dirty ones) are
    /// recomputed fresh. A lower-bound jump can cost at most a no-op tick;
    /// it can never skip a decision cycle.
    fn post_issue_hint(&mut self, gbank: usize, scan: &ScanResult) -> Option<Cycle> {
        if scan.legal != 1 {
            return None;
        }
        self.refresh_candidates();
        min_cycle(scan.min_ready, self.candidates_ready(gbank))
    }

    /// The FR-FCFS candidate scan: recomputes the candidates of the banks
    /// that changed since the last scan, then weighs every candidate
    /// against its rank's gates. A one-rank channel (every rank-NMP
    /// device) takes [`scan_one_rank`](Self::scan_one_rank), any other
    /// [`scan_ranks`](Self::scan_ranks); both make the same decision and
    /// report the same bound.
    fn scan(&mut self, fr: bool) -> ScanResult {
        self.refresh_candidates();
        if self.ranks.len() == 1 {
            self.scan_one_rank(fr)
        } else {
            self.scan_ranks(fr)
        }
    }

    /// The scan of a one-rank channel, which pays only for the
    /// candidates present. A rank waiting for a refresh has none. A class
    /// with candidates checks its gate once: the column gate (tCCD_S,
    /// refresh and the data bus) or the ACT gate (tRRD_S, tFAW and
    /// refresh). A gate past `now` rules the class out and stands in for
    /// its candidates in `min_ready`, as in
    /// [`scan_ranks`](Self::scan_ranks); behind an open gate each
    /// candidate's readiness is its bank and bank-group parts alone.
    fn scan_one_rank(&self, fr: bool) -> ScanResult {
        let mut pick = Pick::new(self.cycle, fr);
        if self.refresh_pending[0] {
            return pick.result();
        }
        let (m, timer, cand) = (&self.reads.masks[0], &self.ranks[0], &self.reads.cand);
        if m.col != 0 {
            // The one rank is the last to have used the data bus, if any.
            let gate = timer.col_rank_ready().max(self.bus_parts().0);
            if gate > pick.now {
                pick.wait(gate);
            } else {
                let legal = pick.legal(m.col, |b| cand[b].col_at(timer));
                for_each_bit(legal, |b| pick.take_col(&cand[b]));
            }
        }
        if m.act != 0 {
            let gate = timer.act_rank_ready();
            if gate > pick.now {
                pick.wait(gate);
            } else {
                let legal = pick.legal(m.act, |b| cand[b].act_at(timer));
                for_each_bit(legal, |b| pick.take_alt(&cand[b], NextCmd::Act));
            }
        }
        let legal = pick.legal(m.pre, |b| cand[b].alt_ready);
        for_each_bit(legal, |b| pick.take_alt(&cand[b], NextCmd::Pre));
        pick.result()
    }

    /// The scan of a multi-rank channel, one 64-bank word of the
    /// channel-wide class bitmasks at a time. It first computes the gates
    /// of every rank in the word, without branches: the column gate and
    /// the ACT gate. A gate is a lower bound on the readiness of every
    /// candidate of its class in the rank, so a rank whose gate is past
    /// `now` has the class ruled out at once, and the gate stands in for
    /// those candidates in `min_ready` — a jump to it is never late and
    /// costs at most one no-op tick. A rank waiting for a refresh has all
    /// its candidates masked out. The scan then makes one pass over the
    /// word's column bits behind open gates, one over its ACT bits behind
    /// open gates and one over its PRE bits. Behind an open gate (at most
    /// `now`) a candidate's readiness is its bank and bank-group parts
    /// alone; PRE candidates are gated by their bank alone.
    fn scan_ranks(&self, fr: bool) -> ScanResult {
        let now = self.cycle;
        let (bus_same, bus_other) = self.bus_parts();
        // No rank pays the switch penalty before any data has moved.
        let (last_rank, bus_other) = match self.last_data_rank {
            Some(r) => (usize::from(r), bus_other),
            None => (usize::MAX, bus_same),
        };
        let (bpr, shift) = (self.bpr, self.rank_shift);
        let per_word = 64 >> shift;
        let rank_bits = u64::MAX >> (64 - bpr);
        let mut pick = Pick::new(now, fr);
        for (w, m) in self.reads.masks.iter().enumerate() {
            let first = w * per_word;
            let last = (first + per_word).min(self.ranks.len());
            let ranks = &self.ranks[first..last];
            let pending = &self.refresh_pending[first..last];
            let (mut col_open, mut act_open, mut awake) = (0u64, 0u64, 0u64);
            let mut bits = rank_bits;
            for ((timer, &pending), r) in ranks.iter().zip(pending).zip(first..) {
                let bus = if r == last_rank { bus_same } else { bus_other };
                let col_gate = timer.col_rank_ready().max(bus);
                let act_gate = timer.act_rank_ready();
                let awake_bits = if pending { 0 } else { bits };
                let col_bits = m.col & awake_bits;
                let act_bits = m.act & awake_bits;
                pick.min_ready = pick
                    .min_ready
                    .min(kept_or_max(col_gate, (col_bits != 0) & (col_gate > now)))
                    .min(kept_or_max(act_gate, (act_bits != 0) & (act_gate > now)));
                col_open |= if col_gate <= now { col_bits } else { 0 };
                act_open |= if act_gate <= now { act_bits } else { 0 };
                awake |= awake_bits;
                bits = bits.wrapping_shl(bpr as u32);
            }
            let cand = &self.reads.cand[w * 64..];
            let legal = pick.legal(col_open, |b| cand[b].col_at(&ranks[b >> shift]));
            for_each_bit(legal, |b| pick.take_col(&cand[b]));
            let legal = pick.legal(act_open, |b| cand[b].act_at(&ranks[b >> shift]));
            for_each_bit(legal, |b| pick.take_alt(&cand[b], NextCmd::Act));
            let legal = pick.legal(m.pre & awake, |b| cand[b].alt_ready);
            for_each_bit(legal, |b| pick.take_alt(&cand[b], NextCmd::Pre));
        }
        pick.result()
    }

    /// Issues the already-verified-legal RD for `slot`, completing the
    /// request and handing it to `done`.
    fn issue_column(&mut self, slot: u32, done: &mut Done<'_>) {
        let now = self.cycle;
        let q = self.remove_queued(slot);
        let gbank = q.gbank as usize;
        let rank = q.addr.rank;
        self.issue(DdrCommand::new(DdrCommandKind::Rd, q.addr));
        self.banks[gbank].do_rd(now, &self.timing);
        self.ranks[rank as usize].did_rd(now, q.addr.bank_group, &self.timing);
        self.stats.reads += 1;
        self.reads.mark(gbank);
        let finish = now + self.timing.t_cl + self.timing.t_bl;
        self.data_bus_free = finish;
        self.last_data_rank = Some(rank);
        self.stats.data_bus_busy += self.timing.t_bl;
        let outcome = q.outcome();
        self.stats.record_outcome(outcome);
        self.stats.record_latency(finish - q.arrival);
        done(&CompletedRequest {
            seq: q.seq,
            addr: q.addr,
            arrival: q.arrival,
            finish_cycle: finish,
            outcome,
        });
    }

    /// Issues the already-verified-legal command `cmd` for `slot`.
    fn issue_progress(&mut self, slot: u32, cmd: NextCmd, done: &mut Done<'_>) {
        let now = self.cycle;
        match cmd {
            NextCmd::Column => self.issue_column(slot, done),
            NextCmd::Pre => {
                let addr = self.slab[slot as usize].addr;
                let gbank = self.slab[slot as usize].gbank as usize;
                self.banks[gbank].do_pre(now, &self.timing);
                self.reads.mark(gbank);
                self.stats.pres += 1;
                let q = &mut self.slab[slot as usize];
                q.pres = q.pres.saturating_add(1);
                self.issue(DdrCommand::new(DdrCommandKind::Pre, addr));
            }
            NextCmd::Act => {
                let addr = self.slab[slot as usize].addr;
                let gbank = self.slab[slot as usize].gbank as usize;
                self.banks[gbank].do_act(now, addr.row, &self.timing);
                self.reads.mark(gbank);
                self.ranks[addr.rank as usize].did_act(now, addr.bank_group, &self.timing);
                self.stats.acts += 1;
                let q = &mut self.slab[slot as usize];
                q.acts = q.acts.saturating_add(1);
                self.issue(DdrCommand::new(DdrCommandKind::Act, addr));
            }
        }
    }

    /// Retires `slot`: frees the slab slot and unlinks it from the
    /// arrival order and its bank queue. Returns the request. The caller
    /// marks the bank's candidates stale.
    fn remove_queued(&mut self, slot: u32) -> Queued {
        let q = self.slab[slot as usize].clone();
        self.slab[slot as usize].seq = RETIRED;
        self.free_slots.push(slot);
        self.reads.retire(&mut self.links, slot);
        let bank_q = &mut self.reads.queues[q.gbank as usize];
        let bpos = bank_q
            .iter()
            .position(|e| e.slot == slot)
            .expect("slot is in its bank queue");
        bank_q.remove(bpos);
        q
    }

    fn issue(&mut self, cmd: DdrCommand) {
        self.stats.cmd_bus_busy += 1;
        if let Some(m) = self.monitor.as_mut() {
            m.observe(self.cycle, cmd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recnmp_types::units::CACHELINE_BYTES;

    /// A command the controller issued: (slab slot, command).
    type Decision = (u32, NextCmd);

    /// The queued requests, oldest first, listed from the slab alone:
    /// every slot whose request has not retired.
    fn queued(mem: &MemorySystem) -> Vec<u32> {
        let mut live: Vec<(u64, u32)> = (mem.slab.iter().enumerate())
            .filter(|(_, q)| q.seq != RETIRED)
            .map(|(slot, q)| (q.seq, slot as u32))
            .collect();
        live.sort_unstable();
        live.into_iter().map(|(_, slot)| slot).collect()
    }

    /// The FR-FCFS decision recomputed from first principles, with no
    /// candidate cache, class mask, rank gate, arrival list or refresh
    /// deadline: every queued request's next command and the cycle it
    /// becomes legal, read straight off the slab, bank, rank, per-rank
    /// refresh flag and data-bus state. The rules: row hits first
    /// (unless the oldest request has starved), oldest first within each
    /// pass.
    ///
    /// Returns the command the controller must issue this cycle, and the
    /// exact earliest future readiness over every schedulable request.
    fn oracle(mem: &MemorySystem) -> (Option<Decision>, Option<Cycle>) {
        let now = mem.cycle;
        let t = &mem.timing;
        let order = queued(mem);
        let mut next = Vec::new();
        for &slot in &order {
            let q = &mem.slab[slot as usize];
            let (a, bank, rank) = (
                q.addr,
                &mem.banks[q.gbank as usize],
                &mem.ranks[q.addr.rank as usize],
            );
            if mem.refresh_pending[a.rank as usize] {
                continue;
            }
            let (cmd, ready) = match bank.state {
                BankState::Open(row) if row == a.row => {
                    let switch = match mem.last_data_rank {
                        Some(r) if r != a.rank => t.rank_switch,
                        _ => 0,
                    };
                    let bus = (mem.data_bus_free + switch).saturating_sub(t.t_cl);
                    let rank_ready = rank.col_ready(a.bank_group);
                    (NextCmd::Column, bank.rd_ready().max(rank_ready).max(bus))
                }
                BankState::Open(_) => (NextCmd::Pre, bank.pre_ready()),
                BankState::Closed => (
                    NextCmd::Act,
                    bank.act_ready().max(rank.act_ready(a.bank_group)),
                ),
            };
            next.push((slot, cmd, ready));
        }
        let exact_min = next.iter().map(|n| n.2).filter(|&r| r > now).min();
        // `order` is in age order, so the first legal match of a pass is
        // its winner.
        let pass = |hits_only: bool| {
            next.iter()
                .find(|n| n.2 <= now && (!hits_only || n.1 == NextCmd::Column))
                .map(|n| (n.0, n.1))
        };
        let Some(&oldest) = order.first() else {
            return (None, exact_min);
        };
        let allow_fr =
            now.saturating_sub(mem.slab[oldest as usize].arrival) < mem.config.starvation_cycles;
        let first_ready = if allow_fr { pass(true) } else { None };
        (first_ready.or_else(|| pass(false)), exact_min)
    }

    /// The state an FR-FCFS issue changes, captured before the decision
    /// so the issued command can be read off the difference.
    struct Snapshot {
        /// Column commands issued so far; each completes a request.
        columns: u64,
        /// Every slab slot's `seq`; a column command retires one.
        seqs: Vec<u64>,
        counts: Vec<(u8, u8)>,
    }

    impl Snapshot {
        fn take(mem: &MemorySystem) -> Self {
            Self {
                columns: mem.stats.reads,
                seqs: mem.slab.iter().map(|q| q.seq).collect(),
                counts: mem.slab.iter().map(|q| (q.acts, q.pres)).collect(),
            }
        }

        /// The command issued since the snapshot, if any.
        fn issued(&self, mem: &MemorySystem) -> Option<Decision> {
            if mem.stats.reads > self.columns {
                let slot = (self.seqs.iter().zip(&mem.slab))
                    .position(|(&before, q)| before != RETIRED && q.seq == RETIRED)
                    .expect("a column command retires its request");
                return Some((slot as u32, NextCmd::Column));
            }
            self.counts
                .iter()
                .zip(&mem.slab)
                .position(|(&before, q)| before != (q.acts, q.pres))
                .map(|slot| {
                    let cmd = if mem.slab[slot].acts != self.counts[slot].0 {
                        NextCmd::Act
                    } else {
                        NextCmd::Pre
                    };
                    (slot as u32, cmd)
                })
        }
    }

    /// Asserts that every clean candidate cache, and its class bits,
    /// equal a fresh [`CandCache::compute`] of its bank: a cache the scan
    /// trusts is never stale.
    fn assert_caches_coherent(mem: &MemorySystem) {
        let q = &mem.reads;
        for (g, bank) in mem.banks.iter().enumerate() {
            if q.is_dirty[g] {
                continue;
            }
            let bg = ((g % mem.bpr) / mem.geo.banks_per_group as usize) as u8;
            let want = CandCache::compute(&q.queues[g], bank, bg);
            let (m, bit) = (&q.masks[g / 64], 1u64 << (g % 64));
            let has_alt = want.alt_seq != u64::MAX;
            assert_eq!(
                (
                    q.cand[g],
                    m.col & bit != 0,
                    m.act & bit != 0,
                    m.pre & bit != 0
                ),
                (
                    want,
                    want.col_seq != u64::MAX,
                    has_alt && want.alt_is_act,
                    has_alt && !want.alt_is_act
                ),
                "cycle {}: stale cache of bank {g}",
                mem.cycle
            );
        }
    }

    /// One per-cycle controller tick (as `tick` runs it) with the
    /// scan's decision checked against the oracle, an idle tick's jump
    /// bound checked to be no later than the exact next readiness, and
    /// every clean candidate cache checked afterwards.
    fn oracle_checked_tick(mem: &mut MemorySystem) {
        if !mem.admit_and_refresh() {
            let (expected, exact_min) = oracle(mem);
            let before = Snapshot::take(mem);
            let outcome = mem.issue_request_command(&mut |_| {});
            assert_eq!(
                before.issued(mem),
                expected,
                "decision at cycle {}",
                mem.cycle
            );
            if let (TickOutcome::Idle(bound), Some(exact)) = (outcome, exact_min) {
                assert!(
                    bound.is_some_and(|b| b <= exact),
                    "cycle {}: idle bound {bound:?} is later than the next readiness {exact}",
                    mem.cycle
                );
            }
        }
        assert_caches_coherent(mem);
        mem.cycle += 1;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Every decision of both scans equals the oracle's, on 1/2/4/8/16-rank
        // channels (the 8- and 16-rank ones spread their 128 and 256
        // banks over several mask words) and on a rank-NMP device (`None`:
        // the one-rank config with its own mapping, two-burst vectors
        // enqueued at decoded coordinates), refresh on and off and a
        // tight starvation bound.
        #[test]
        fn scan_matches_decision_oracle(
            raw in prop::collection::vec((0u64..u64::MAX, 0u64..6), 1..160),
            ranks in prop_oneof![
                Just(None),
                Just(Some((1u8, 1u8))),
                Just(Some((1, 2))),
                Just(Some((2, 2))),
                Just(Some((4, 2))),
                Just(Some((8, 2))),
            ],
            refresh in any::<bool>(),
            span_bits in prop_oneof![Just(20u32), Just(26), Just(33)],
            gap in prop_oneof![Just(0u64), Just(2), Just(40)],
            starvation in prop_oneof![Just(48u64), Just(2048)],
        ) {
            let mut cfg = match ranks {
                Some((dimms, ranks)) => DramConfig::with_ranks(dimms, ranks),
                None => DramConfig::single_rank(),
            };
            cfg.refresh = refresh;
            cfg.starvation_cycles = starvation;
            let (mapping, geo) = (cfg.mapping, cfg.geometry());
            let mut mem = MemorySystem::new(cfg).expect("valid config");
            mem.attach_monitor();
            for (i, &(addr, jitter)) in raw.iter().enumerate() {
                let addr = PhysAddr::new(addr & ((1 << span_bits) - 1) & !63);
                let arrival = i as u64 * gap + jitter;
                if ranks.is_some() {
                    mem.enqueue(addr, arrival);
                    continue;
                }
                let base = mapping.decode(addr, &geo);
                for b in 0..2 {
                    let column = (base.column + b) % geo.columns;
                    mem.enqueue_decoded(DramAddr { column, ..base }, arrival);
                }
            }
            let mut ticks = 0u64;
            while mem.pending() > 0 {
                oracle_checked_tick(&mut mem);
                ticks += 1;
                prop_assert!(ticks < 5_000_000, "trace did not drain");
            }
            prop_assert!(mem.monitor_violations().is_empty(), "{:?}", mem.monitor_violations());
        }
    }

    fn single_rank() -> MemorySystem {
        MemorySystem::new(DramConfig::single_rank()).expect("valid config")
    }

    /// Runs the enqueued requests, then `reads`, collecting every
    /// completion in order.
    fn run(
        mem: &mut MemorySystem,
        reads: &[(u64, Cycle)],
    ) -> Result<Vec<CompletedRequest>, SimError> {
        let mut done = Vec::new();
        let reads = reads.iter().map(|&(a, at)| (PhysAddr::new(a), at));
        mem.run_stream(reads, |c| done.push(*c))?;
        Ok(done)
    }

    #[test]
    fn cold_read_latency_is_trcd_tcl_tbl() {
        let done = run(&mut single_rank(), &[(0, 0)]).expect("drain");
        assert_eq!(done.len(), 1);
        let t = DdrTiming::ddr4_2400();
        // ACT at cycle 0 is legal immediately; RD at tRCD; data done
        // tCL + tBL later.
        assert_eq!(done[0].finish_cycle, t.t_rcd + t.t_cl + t.t_bl);
        assert_eq!(done[0].outcome, RowOutcome::Miss);
    }

    #[test]
    fn row_hit_follows_open_row() {
        let done = run(&mut single_rank(), &[(0, 0), (64, 0)]).expect("drain");
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].outcome, RowOutcome::Hit);
        // Second burst streams tCCD after the first RD.
        assert!(done[1].finish_cycle <= done[0].finish_cycle + 7);
    }

    #[test]
    fn row_conflict_requires_pre_act() {
        let mut mem = single_rank();
        let geo = *mem.geometry();
        // Same bank, different row: stride by one full row of bursts.
        let row_bytes = geo.columns as u64 * CACHELINE_BYTES;
        let banks = geo.banks_per_rank() as u64;
        let done = run(&mut mem, &[(0, 0), (row_bytes * banks, 0)]).expect("drain");
        assert_eq!(done[1].outcome, RowOutcome::Conflict);
        let t = DdrTiming::ddr4_2400();
        assert!(done[1].finish_cycle >= t.t_ras + t.t_rp + t.t_rcd);
    }

    #[test]
    fn bank_interleaved_reads_saturate_bus() {
        let mut mem = single_rank();
        // 64 reads spread across banks in open rows: after warm-up the data
        // bus should stream a burst every tBL cycles.
        let geo = *mem.geometry();
        let row_bytes = geo.columns as u64 * CACHELINE_BYTES;
        // Rotate across all 16 banks, two bursts each.
        let reads: Vec<_> = (0..64u64)
            .map(|i| ((i % 16) * row_bytes + (i / 16) * 64, 0))
            .collect();
        let done = run(&mut mem, &reads).expect("drain");
        assert_eq!(done.len(), 64);
        let finish = done.iter().map(|c| c.finish_cycle).max().unwrap();
        // Perfect streaming would take 64*4 = 256 cycles of data after the
        // first word; allow generous startup slack.
        assert!(finish < 450, "took {finish} cycles");
    }

    #[test]
    fn monitor_sees_no_violations_under_load() {
        let mut mem = MemorySystem::new(DramConfig::table1_baseline()).unwrap();
        mem.attach_monitor();
        let reads: Vec<_> = (0..200u64).map(|i| (i * 64 * 4097, 0)).collect();
        let done = run(&mut mem, &reads).expect("drain");
        assert_eq!(done.len(), 200);
        assert!(
            mem.monitor_violations().is_empty(),
            "{:?}",
            mem.monitor_violations()
        );
    }

    #[test]
    fn refresh_occurs_periodically() {
        let mut mem = single_rank();
        // Run past several tREFI windows with sparse traffic.
        let reads: Vec<_> = (0..32u64).map(|i| (i * 64, i * 2000)).collect();
        run(&mut mem, &reads).expect("drain");
        assert!(mem.stats().refs >= 5, "refs = {}", mem.stats().refs);
    }

    #[test]
    fn completions_carry_enqueue_order() {
        // Two requests staged up front, then two streamed: `seq` numbers
        // them in enqueue order across both intakes, whatever order their
        // data transfers in.
        let mut mem = single_rank();
        let (mapping, geo) = (mem.config.mapping, mem.geo);
        mem.enqueue(PhysAddr::new(1 << 20), 0);
        mem.enqueue(PhysAddr::new(0), 0);
        let done = run(&mut mem, &[(64, 0), (128, 0)]).expect("drain");
        let mut seqs: Vec<u64> = done.iter().map(|c| c.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert_eq!(
            done.iter().find(|c| c.seq == 1).unwrap().addr,
            mapping.decode(PhysAddr::new(0), &geo)
        );
    }

    #[test]
    fn arrival_times_are_respected() {
        let done = run(&mut single_rank(), &[(0, 1000)]).expect("drain");
        assert!(done[0].finish_cycle >= 1000);
        assert!(done[0].latency() < 1000);
    }

    #[test]
    fn two_ranks_overlap_activation() {
        // The same request stream takes fewer cycles on 2 ranks than 1 when
        // requests conflict in banks.
        let cycles = |ranks: u8| {
            let mut cfg = DramConfig::with_ranks(1, ranks);
            cfg.refresh = false;
            let mut mem = MemorySystem::new(cfg).unwrap();
            // Strided addresses that pound a few banks.
            let reads: Vec<_> = (0..128u64).map(|i| (i * 1024 * 1024, 0)).collect();
            run(&mut mem, &reads).expect("drain");
            mem.cycle()
        };
        let one = cycles(1);
        let two = cycles(2);
        assert!(two < one, "1-rank {one} vs 2-rank {two}");
    }

    #[test]
    fn stats_outcomes_sum_to_reads() {
        let mut mem = single_rank();
        let reads: Vec<_> = (0..50u64).map(|i| (i * 640_000, 0)).collect();
        run(&mut mem, &reads).expect("drain");
        let s = mem.stats();
        assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, s.reads);
    }

    #[test]
    fn stall_reports_instead_of_aborting() {
        // A livelock must surface as `SimError::Stalled`, not a panic. A
        // correct scheduler cannot livelock from the public API, so wedge
        // the controller directly: a stuck refresh-pending flag with
        // refresh simulation disabled blocks the request forever.
        for engine in [SimEngine::EventDriven, SimEngine::PerCycle] {
            let mut cfg = DramConfig::single_rank();
            cfg.refresh = false;
            cfg.engine = engine;
            cfg.stall_iterations = cfg.timing.t_rfc + cfg.timing.t_refi + 1;
            let mut mem = MemorySystem::new(cfg).unwrap();
            mem.refresh_pending[0] = true;
            let err = run(&mut mem, &[(0, 0)]).unwrap_err();
            assert!(
                matches!(err, SimError::Stalled { pending: 1, .. }),
                "{engine:?}: {err}"
            );
        }
    }

    #[test]
    fn refresh_commands_do_not_mask_a_stall() {
        // Regression: refresh keeps issuing commands (PRE/REF, plus the
        // re-ACTs it forces) on schedule even when no request ever
        // completes, so "a command issued" must not reset the no-progress
        // bound. Wedge: the data bus reserved absurdly far in the future
        // blocks every column command while refresh marches on.
        let mut cfg = DramConfig::single_rank();
        cfg.engine = SimEngine::PerCycle;
        cfg.stall_iterations = cfg.timing.t_rfc + cfg.timing.t_refi + 1;
        let mut mem = MemorySystem::new(cfg).unwrap();
        mem.data_bus_free = 1 << 40;
        let err = run(&mut mem, &[(0, 0)]).unwrap_err();
        assert!(matches!(err, SimError::Stalled { pending: 1, .. }), "{err}");
    }

    #[test]
    fn distant_arrivals_are_not_a_stall() {
        // Waiting out a long quiet gap before a known future arrival is
        // legitimate in both engines.
        for engine in [SimEngine::EventDriven, SimEngine::PerCycle] {
            let mut cfg = DramConfig::single_rank();
            cfg.refresh = false;
            cfg.engine = engine;
            cfg.stall_iterations = cfg.timing.t_rfc + cfg.timing.t_refi + 1;
            let far = 10 * cfg.stall_iterations;
            let mut mem = MemorySystem::new(cfg).unwrap();
            let done = run(&mut mem, &[(0, far)]).expect("drain");
            assert_eq!(done.len(), 1);
            assert!(done[0].finish_cycle >= far);
        }
    }

    #[test]
    fn event_engine_skips_idle_cycles() {
        // Sparse refresh-enabled traffic: the per-cycle engine burns one
        // iteration per DRAM clock; the event engine does O(commands).
        let reads: Vec<_> = (0..32u64).map(|i| (i * 64, i * 2000)).collect();
        let engine_run = |engine: SimEngine| {
            let mut cfg = DramConfig::single_rank();
            cfg.engine = engine;
            let mut mem = MemorySystem::new(cfg).unwrap();
            let done = run(&mut mem, &reads).expect("drain");
            (
                done,
                mem.cycle(),
                mem.stats().clone(),
                mem.loop_iterations(),
            )
        };
        let (done_pc, cycle_pc, stats_pc, iters_pc) = engine_run(SimEngine::PerCycle);
        let (done_ev, cycle_ev, stats_ev, iters_ev) = engine_run(SimEngine::EventDriven);
        assert_eq!(done_pc, done_ev);
        assert_eq!(cycle_pc, cycle_ev);
        assert_eq!(stats_pc, stats_ev);
        assert!(
            iters_ev * 10 <= iters_pc,
            "event {iters_ev} vs per-cycle {iters_pc} iterations"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decoded_enqueue_validates_bounds() {
        let mut mem = single_rank();
        mem.enqueue_decoded(
            DramAddr {
                rank: 3,
                ..DramAddr::default()
            },
            0,
        );
    }
}
