//! Per-bank and per-rank DRAM timing state machines.

use recnmp_types::Cycle;
use serde::{Deserialize, Serialize};

use crate::timing::DdrTiming;

/// Row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BankState {
    /// All rows closed; an ACT is required before column commands.
    #[default]
    Closed,
    /// The given row is open in the row buffer.
    Open(u32),
}

/// Timing state of a single bank.
///
/// Each field records the earliest cycle at which the corresponding command
/// may legally be issued to this bank. The bank does not know about
/// rank-level constraints (tRRD, tFAW, tCCD); those live in [`RankTimer`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Bank {
    /// Current row-buffer state.
    pub state: BankState,
    next_act: Cycle,
    next_rd: Cycle,
    next_pre: Cycle,
}

impl Bank {
    /// Creates a closed bank with no pending constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest cycle an ACT may be issued.
    pub fn act_ready(&self) -> Cycle {
        self.next_act
    }

    /// Earliest cycle a RD may be issued (assuming the row is open) — the
    /// bank-level "earliest ready" query the event-driven engine skips
    /// ahead to.
    pub fn rd_ready(&self) -> Cycle {
        self.next_rd
    }

    /// Earliest cycle a PRE may be issued.
    pub fn pre_ready(&self) -> Cycle {
        self.next_pre
    }

    /// Applies an ACT issued at `now` for `row`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the bank is open or the ACT violates
    /// timing; the controller must check legality first.
    pub fn do_act(&mut self, now: Cycle, row: u32, t: &DdrTiming) {
        debug_assert_eq!(self.state, BankState::Closed, "ACT to open bank");
        debug_assert!(now >= self.next_act, "ACT violates tRC/tRP");
        self.state = BankState::Open(row);
        self.next_act = now + t.t_rc;
        self.next_rd = now + t.t_rcd;
        self.next_pre = now + t.t_ras;
    }

    /// Applies a RD issued at `now`.
    pub fn do_rd(&mut self, now: Cycle, t: &DdrTiming) {
        debug_assert!(
            matches!(self.state, BankState::Open(_)),
            "RD to closed bank"
        );
        debug_assert!(now >= self.next_rd, "RD violates tRCD/tCCD");
        // Reads delay a following precharge by tRTP.
        self.next_pre = self.next_pre.max(now + t.t_rtp);
    }

    /// Applies a PRE issued at `now`.
    pub fn do_pre(&mut self, now: Cycle, t: &DdrTiming) {
        debug_assert!(now >= self.next_pre, "PRE violates tRAS/tRTP");
        self.state = BankState::Closed;
        self.next_act = self.next_act.max(now + t.t_rp);
    }

    /// Forces the bank closed with the post-refresh constraint applied
    /// (used when a refresh completes).
    pub fn finish_refresh(&mut self, refresh_done: Cycle) {
        self.state = BankState::Closed;
        self.next_act = self.next_act.max(refresh_done);
    }
}

/// The most bank groups a rank timer supports (DDR4 x8 devices have 4;
/// the fixed bound keeps the per-group timing state inline — the issue
/// loop queries it on every scheduling decision, and a heap indirection
/// here is a measurable fraction of simulator wall-clock).
pub const MAX_BANK_GROUPS: usize = 8;

/// Rank-level timing state: tRRD, tFAW, tCCD and refresh bookkeeping.
///
/// The rank-wide parts of ACT and column readiness (the *gates* every
/// bank of the rank shares) are kept as fields, recomputed by each
/// `did_*` update, so a scheduler reads them with one load per rank.
#[derive(Debug, Clone)]
pub struct RankTimer {
    /// Issue times of the most recent ACTs (for the four-activate
    /// window), oldest first; only the first `act_count` are valid.
    act_history: [Cycle; 4],
    act_count: usize,
    next_act_any: Cycle,
    next_act_same_bg: [Cycle; MAX_BANK_GROUPS],
    next_rd_any: Cycle,
    next_rd_same_bg: [Cycle; MAX_BANK_GROUPS],
    /// tFAW, copied once from the timing the rank was built with.
    faw: Cycle,
    /// Rank unavailable until this cycle (refresh in progress).
    busy_until: Cycle,
    /// Next cycle a refresh becomes due.
    refresh_due: Cycle,
    /// [`act_rank_ready`](Self::act_rank_ready), kept current.
    act_gate: Cycle,
    /// [`col_rank_ready`](Self::col_rank_ready), kept current.
    col_gate: Cycle,
}

impl RankTimer {
    /// Creates an idle rank timer for a rank with `bank_groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `bank_groups` exceeds [`MAX_BANK_GROUPS`].
    pub fn new(bank_groups: u8, t: &DdrTiming) -> Self {
        assert!(
            bank_groups as usize <= MAX_BANK_GROUPS,
            "RankTimer supports at most {MAX_BANK_GROUPS} bank groups"
        );
        Self {
            act_history: [0; 4],
            act_count: 0,
            next_act_any: 0,
            next_act_same_bg: [0; MAX_BANK_GROUPS],
            next_rd_any: 0,
            next_rd_same_bg: [0; MAX_BANK_GROUPS],
            faw: t.t_faw,
            busy_until: 0,
            refresh_due: t.t_refi,
            act_gate: 0,
            col_gate: 0,
        }
    }

    /// Rank unavailable until this cycle (refresh in progress).
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Next cycle a refresh becomes due.
    pub fn refresh_due(&self) -> Cycle {
        self.refresh_due
    }

    /// Recomputes the rank-wide gates after an update.
    fn update_gates(&mut self) {
        let act = self.next_act_any.max(self.busy_until);
        self.act_gate = if self.act_count == 4 {
            // tFAW counts from the oldest of the last four ACTs.
            act.max(self.act_history[0] + self.faw)
        } else {
            act
        };
        self.col_gate = self.next_rd_any.max(self.busy_until);
    }

    /// Earliest cycle an ACT to `bank_group` satisfies tRRD and tFAW:
    /// the rank-wide part ([`act_rank_ready`](Self::act_rank_ready)) and
    /// the bank-group part ([`act_group_ready`](Self::act_group_ready)).
    pub fn act_ready(&self, bank_group: u8) -> Cycle {
        self.act_rank_ready().max(self.act_group_ready(bank_group))
    }

    /// The part of ACT readiness shared by every bank of the rank: tRRD_S,
    /// tFAW and refresh. No ACT to this rank is legal before it, so a
    /// scheduler can rule out every ACT candidate of the rank at once.
    pub fn act_rank_ready(&self) -> Cycle {
        self.act_gate
    }

    /// The bank-group part of ACT readiness (tRRD_L).
    pub fn act_group_ready(&self, bank_group: u8) -> Cycle {
        self.next_act_same_bg[bank_group as usize]
    }

    /// Earliest cycle a RD to `bank_group` satisfies the rank-level
    /// constraints (tCCD and refresh) — the rank-side counterpart of
    /// [`Bank::rd_ready`] used by the event-driven engine.
    pub fn col_ready(&self, bank_group: u8) -> Cycle {
        self.col_rank_ready().max(self.col_group_ready(bank_group))
    }

    /// The part of column readiness shared by every bank of the rank:
    /// tCCD_S and refresh.
    pub fn col_rank_ready(&self) -> Cycle {
        self.col_gate
    }

    /// The bank-group part of column readiness (tCCD_L).
    pub fn col_group_ready(&self, bank_group: u8) -> Cycle {
        self.next_rd_same_bg[bank_group as usize]
    }

    /// Records an ACT issued at `now` to `bank_group`.
    pub fn did_act(&mut self, now: Cycle, bank_group: u8, t: &DdrTiming) {
        self.next_act_any = now + t.t_rrd_s;
        self.next_act_same_bg[bank_group as usize] = now + t.t_rrd_l;
        if self.act_count == 4 {
            self.act_history.copy_within(1..4, 0);
            self.act_history[3] = now;
        } else {
            self.act_history[self.act_count] = now;
            self.act_count += 1;
        }
        self.update_gates();
    }

    /// Records a RD issued at `now` to `bank_group`.
    pub fn did_rd(&mut self, now: Cycle, bank_group: u8, t: &DdrTiming) {
        self.next_rd_any = now + t.t_ccd_s;
        self.next_rd_same_bg[bank_group as usize] = now + t.t_ccd_l;
        self.update_gates();
    }

    /// Records a REF issued at `now`; the rank is busy for tRFC.
    pub fn did_ref(&mut self, now: Cycle, t: &DdrTiming) {
        self.busy_until = now + t.t_rfc;
        self.refresh_due = now + t.t_refi;
        self.update_gates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DdrTiming {
        DdrTiming::ddr4_2400()
    }

    #[test]
    fn act_opens_row_and_arms_timers() {
        let timing = t();
        let mut b = Bank::new();
        b.do_act(0, 42, &timing);
        assert_eq!(b.state, BankState::Open(42));
        assert_eq!(b.rd_ready(), timing.t_rcd);
        assert_eq!(b.act_ready(), timing.t_rc);
        assert_eq!(b.pre_ready(), timing.t_ras);
    }

    #[test]
    fn rd_extends_pre_by_trtp() {
        let timing = t();
        let mut b = Bank::new();
        b.do_act(0, 1, &timing);
        b.do_rd(timing.t_rcd + 100, &timing);
        assert_eq!(b.pre_ready(), timing.t_rcd + 100 + timing.t_rtp);
    }

    #[test]
    fn pre_closes_and_requires_trp() {
        let timing = t();
        let mut b = Bank::new();
        b.do_act(0, 1, &timing);
        b.do_pre(timing.t_ras, &timing);
        assert_eq!(b.state, BankState::Closed);
        // After PRE at tRAS, the next ACT must wait tRP more, but also the
        // original tRC from the first ACT.
        assert_eq!(b.act_ready(), timing.t_rc.max(timing.t_ras + timing.t_rp));
    }

    #[test]
    fn rank_faw_limits_fifth_act() {
        let timing = t();
        let mut r = RankTimer::new(4, &timing);
        // Issue four ACTs as fast as tRRD_S allows, rotating bank groups.
        let mut now = 0;
        for i in 0..4u8 {
            now = r.act_ready(i % 4).max(now);
            r.did_act(now, i % 4, &timing);
        }
        // Fifth ACT must wait for the tFAW window from the first ACT.
        let fifth = r.act_ready(0);
        assert!(fifth >= timing.t_faw, "fifth ACT at {fifth}");
    }

    #[test]
    fn rank_ccd_long_within_group() {
        let timing = t();
        let mut r = RankTimer::new(4, &timing);
        r.did_rd(10, 2, &timing);
        assert_eq!(r.col_ready(2), 10 + timing.t_ccd_l);
        assert_eq!(r.col_ready(1), 10 + timing.t_ccd_s);
    }

    #[test]
    fn refresh_blocks_rank() {
        let timing = t();
        let mut r = RankTimer::new(4, &timing);
        r.did_ref(100, &timing);
        assert_eq!(r.busy_until(), 100 + timing.t_rfc);
        assert_eq!(r.refresh_due(), 100 + timing.t_refi);
        assert!(r.act_ready(0) >= 100 + timing.t_rfc);
    }
}
