//! DDR command vocabulary.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::address::DramAddr;

/// The kind of a DDR command, without its target coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DdrCommandKind {
    /// Activate: open a row into the bank's row buffer.
    Act,
    /// Read a column burst from the open row.
    Rd,
    /// Precharge: close the bank's open row.
    Pre,
    /// Refresh one rank (all banks must be precharged).
    Ref,
}

impl fmt::Display for DdrCommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Act => "ACT",
            Self::Rd => "RD",
            Self::Pre => "PRE",
            Self::Ref => "REF",
        };
        f.write_str(s)
    }
}

/// A DDR command together with its target DRAM coordinates.
///
/// For [`DdrCommandKind::Ref`] only the rank coordinate is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DdrCommand {
    /// What the command does.
    pub kind: DdrCommandKind,
    /// Where it is applied.
    pub addr: DramAddr,
}

impl DdrCommand {
    /// Creates a command.
    pub const fn new(kind: DdrCommandKind, addr: DramAddr) -> Self {
        Self { kind, addr }
    }
}

impl fmt::Display for DdrCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} r{} bg{} b{} row{} col{}",
            self.kind,
            self.addr.rank,
            self.addr.bank_group,
            self.addr.bank,
            self.addr.row,
            self.addr.column
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(DdrCommandKind::Act.to_string(), "ACT");
        assert_eq!(DdrCommandKind::Pre.to_string(), "PRE");
        assert_eq!(DdrCommandKind::Ref.to_string(), "REF");
    }

    #[test]
    fn command_display_includes_coordinates() {
        let cmd = DdrCommand::new(
            DdrCommandKind::Rd,
            DramAddr {
                rank: 1,
                bank_group: 2,
                bank: 3,
                row: 40,
                column: 5,
            },
        );
        assert_eq!(cmd.to_string(), "RD r1 bg2 b3 row40 col5");
    }
}
