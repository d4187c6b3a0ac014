//! Independent DDR protocol legality checker.
//!
//! [`ProtocolMonitor`] keeps its own shadow copy of bank/rank state and
//! verifies every command the controller issues against the timing rules.
//! It is deliberately a *separate implementation* from the scheduler's
//! ready-time bookkeeping, so the test suite can cross-check the two.
//!
//! The monitor reasons only about absolute issue cycles, never about how
//! the clock advanced between commands — so it validates the event-driven
//! engine's skip-ahead jumps exactly as it validates per-cycle stepping,
//! and the equivalence suite runs it under both engines.
//!
//! `observe` is on the per-command hot path, so it allocates nothing
//! unless a violation actually fires: broken-rule names are collected in a
//! fixed stack buffer and only formatted into `String`s when present.

use recnmp_types::Cycle;

use crate::address::Geometry;
use crate::command::{DdrCommand, DdrCommandKind};
use crate::timing::DdrTiming;

/// Allocation-free accumulator for the rules one command breaks.
#[derive(Debug, Default)]
struct RuleBuf {
    rules: [&'static str; 8],
    len: usize,
}

impl RuleBuf {
    fn push(&mut self, rule: &'static str) {
        debug_assert!(self.len < self.rules.len(), "rule buffer overflow");
        if self.len < self.rules.len() {
            self.rules[self.len] = rule;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[&'static str] {
        &self.rules[..self.len]
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ShadowBank {
    open_row: Option<u32>,
    last_act: Option<Cycle>,
    last_pre: Option<Cycle>,
    last_rd: Option<Cycle>,
}

#[derive(Debug, Clone, Default)]
struct ShadowRank {
    act_times: Vec<Cycle>,
    last_act_any: Option<Cycle>,
    last_act_bg: Vec<Option<Cycle>>,
    last_col_any: Option<Cycle>,
    last_col_bg: Vec<Option<Cycle>>,
    busy_until: Cycle,
}

/// Observes issued commands and records timing violations.
#[derive(Debug, Clone)]
pub struct ProtocolMonitor {
    geo: Geometry,
    t: DdrTiming,
    banks: Vec<Vec<ShadowBank>>,
    ranks: Vec<ShadowRank>,
    data_busy_until: Cycle,
    violations: Vec<String>,
    commands_seen: u64,
}

impl ProtocolMonitor {
    /// Creates a monitor for the given geometry and timing.
    pub fn new(geo: Geometry, t: DdrTiming) -> Self {
        let banks = (0..geo.ranks)
            .map(|_| vec![ShadowBank::default(); geo.banks_per_rank()])
            .collect();
        let ranks = (0..geo.ranks)
            .map(|_| ShadowRank {
                last_act_bg: vec![None; geo.bank_groups as usize],
                last_col_bg: vec![None; geo.bank_groups as usize],
                ..ShadowRank::default()
            })
            .collect();
        Self {
            geo,
            t,
            banks,
            ranks,
            data_busy_until: 0,
            violations: Vec::new(),
            commands_seen: 0,
        }
    }

    /// All violations observed so far, as human-readable strings.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total commands observed.
    pub fn commands_seen(&self) -> u64 {
        self.commands_seen
    }

    fn flag(&mut self, now: Cycle, cmd: DdrCommand, rule: &str) {
        self.violations
            .push(format!("cycle {now}: {cmd} violates {rule}"));
    }

    /// Observes one command issued at cycle `now`.
    pub fn observe(&mut self, now: Cycle, cmd: DdrCommand) {
        self.commands_seen += 1;
        let r = cmd.addr.rank as usize;
        let bg = cmd.addr.bank_group as usize;
        let flat = cmd.addr.flat_bank(self.geo.banks_per_group);
        let t = self.t;

        // Collect violations first to appease the borrow checker. A fixed
        // stack buffer: no command can break more rules than this, and the
        // hot no-violation path must not allocate.
        let mut broken = RuleBuf::default();
        {
            let rank = &self.ranks[r];
            let bank = &self.banks[r][flat];
            match cmd.kind {
                DdrCommandKind::Act => {
                    if bank.open_row.is_some() {
                        broken.push("ACT-to-open-bank");
                    }
                    if let Some(a) = bank.last_act {
                        if now < a + t.t_rc {
                            broken.push("tRC");
                        }
                    }
                    if let Some(p) = bank.last_pre {
                        if now < p + t.t_rp {
                            broken.push("tRP");
                        }
                    }
                    if let Some(a) = rank.last_act_any {
                        if now < a + t.t_rrd_s {
                            broken.push("tRRD_S");
                        }
                    }
                    if let Some(a) = rank.last_act_bg[bg] {
                        if now < a + t.t_rrd_l {
                            broken.push("tRRD_L");
                        }
                    }
                    if rank.act_times.len() >= 4 {
                        let fourth_back = rank.act_times[rank.act_times.len() - 4];
                        if now < fourth_back + t.t_faw {
                            broken.push("tFAW");
                        }
                    }
                    if now < rank.busy_until {
                        broken.push("tRFC");
                    }
                }
                DdrCommandKind::Rd => {
                    match bank.open_row {
                        None => broken.push("column-to-closed-bank"),
                        Some(row) if row != cmd.addr.row => broken.push("column-to-wrong-row"),
                        _ => {}
                    }
                    if let Some(a) = bank.last_act {
                        if now < a + t.t_rcd {
                            broken.push("tRCD");
                        }
                    }
                    if let Some(c) = rank.last_col_any {
                        if now < c + t.t_ccd_s {
                            broken.push("tCCD_S");
                        }
                    }
                    if let Some(c) = rank.last_col_bg[bg] {
                        if now < c + t.t_ccd_l {
                            broken.push("tCCD_L");
                        }
                    }
                    if now < rank.busy_until {
                        broken.push("tRFC");
                    }
                }
                DdrCommandKind::Pre => {
                    if let Some(a) = bank.last_act {
                        if now < a + t.t_ras {
                            broken.push("tRAS");
                        }
                    }
                    if let Some(rd) = bank.last_rd {
                        if now < rd + t.t_rtp {
                            broken.push("tRTP");
                        }
                    }
                }
                DdrCommandKind::Ref => {
                    let any_open = self.banks[r].iter().any(|b| b.open_row.is_some());
                    if any_open {
                        broken.push("REF-with-open-bank");
                    }
                    if now < rank.busy_until {
                        broken.push("tRFC");
                    }
                    for b in &self.banks[r] {
                        if let Some(p) = b.last_pre {
                            if now < p + t.t_rp {
                                broken.push("REF-tRP");
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Data-bus overlap check for column commands.
        if cmd.kind == DdrCommandKind::Rd {
            let start = now + t.t_cl;
            if start < self.data_busy_until {
                broken.push("data-bus-overlap");
            }
            self.data_busy_until = self.data_busy_until.max(start + t.t_bl);
        }
        for rule in broken.as_slice() {
            self.flag(now, cmd, rule);
        }

        // Update shadow state.
        let rank = &mut self.ranks[r];
        let bank = &mut self.banks[r][flat];
        match cmd.kind {
            DdrCommandKind::Act => {
                bank.open_row = Some(cmd.addr.row);
                bank.last_act = Some(now);
                rank.last_act_any = Some(now);
                rank.last_act_bg[bg] = Some(now);
                rank.act_times.push(now);
                if rank.act_times.len() > 8 {
                    rank.act_times.remove(0);
                }
            }
            DdrCommandKind::Rd => {
                bank.last_rd = Some(now);
                rank.last_col_any = Some(now);
                rank.last_col_bg[bg] = Some(now);
            }
            DdrCommandKind::Pre => {
                bank.open_row = None;
                bank.last_pre = Some(now);
            }
            DdrCommandKind::Ref => {
                rank.busy_until = now + t.t_rfc;
                for b in &mut self.banks[r] {
                    b.open_row = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DramAddr;

    fn setup() -> ProtocolMonitor {
        ProtocolMonitor::new(Geometry::ddr4_8gb_x8(2), DdrTiming::ddr4_2400())
    }

    fn addr(rank: u8, bg: u8, bank: u8, row: u32) -> DramAddr {
        DramAddr {
            rank,
            bank_group: bg,
            bank,
            row,
            column: 0,
        }
    }

    #[test]
    fn legal_sequence_passes() {
        let mut m = setup();
        let t = DdrTiming::ddr4_2400();
        m.observe(0, DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 0, 5)));
        m.observe(
            t.t_rcd,
            DdrCommand::new(DdrCommandKind::Rd, addr(0, 0, 0, 5)),
        );
        m.observe(
            t.t_ras.max(t.t_rcd + t.t_rtp),
            DdrCommand::new(DdrCommandKind::Pre, addr(0, 0, 0, 5)),
        );
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        assert_eq!(m.commands_seen(), 3);
    }

    #[test]
    fn early_rd_flags_trcd() {
        let mut m = setup();
        m.observe(0, DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 0, 5)));
        m.observe(3, DdrCommand::new(DdrCommandKind::Rd, addr(0, 0, 0, 5)));
        assert!(m.violations().iter().any(|v| v.contains("tRCD")));
    }

    #[test]
    fn rd_to_closed_bank_flags() {
        let mut m = setup();
        m.observe(0, DdrCommand::new(DdrCommandKind::Rd, addr(0, 0, 0, 5)));
        assert!(m
            .violations()
            .iter()
            .any(|v| v.contains("column-to-closed-bank")));
    }

    #[test]
    fn five_fast_acts_flag_tfaw() {
        let mut m = setup();
        let t = DdrTiming::ddr4_2400();
        // Four ACTs at exactly tRRD_S spacing are legal...
        for i in 0..4u8 {
            m.observe(
                i as Cycle * t.t_rrd_s,
                DdrCommand::new(DdrCommandKind::Act, addr(0, i % 4, 0, 1)),
            );
        }
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        // ...but a fifth inside the tFAW window is not.
        m.observe(
            4 * t.t_rrd_s,
            DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 1, 1)),
        );
        assert!(m.violations().iter().any(|v| v.contains("tFAW")));
    }

    #[test]
    fn early_pre_flags_tras() {
        let mut m = setup();
        m.observe(0, DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 0, 5)));
        m.observe(10, DdrCommand::new(DdrCommandKind::Pre, addr(0, 0, 0, 5)));
        assert!(m.violations().iter().any(|v| v.contains("tRAS")));
    }

    #[test]
    fn back_to_back_rd_same_bg_flags_ccd_l() {
        let mut m = setup();
        let t = DdrTiming::ddr4_2400();
        m.observe(0, DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 0, 5)));
        m.observe(0, DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 1, 5)));
        let rd_at = t.t_rcd;
        m.observe(rd_at, DdrCommand::new(DdrCommandKind::Rd, addr(0, 0, 0, 5)));
        m.observe(
            rd_at + t.t_ccd_s,
            DdrCommand::new(DdrCommandKind::Rd, addr(0, 0, 1, 5)),
        );
        assert!(m.violations().iter().any(|v| v.contains("tCCD_L")));
    }

    #[test]
    fn different_ranks_are_independent_for_trrd() {
        let mut m = setup();
        m.observe(0, DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 0, 5)));
        m.observe(1, DdrCommand::new(DdrCommandKind::Act, addr(1, 0, 0, 5)));
        assert!(m.violations().is_empty(), "{:?}", m.violations());
    }

    #[test]
    fn ref_with_open_bank_flags() {
        let mut m = setup();
        m.observe(0, DdrCommand::new(DdrCommandKind::Act, addr(0, 0, 0, 5)));
        m.observe(100, DdrCommand::new(DdrCommandKind::Ref, addr(0, 0, 0, 0)));
        assert!(m
            .violations()
            .iter()
            .any(|v| v.contains("REF-with-open-bank")));
    }
}
