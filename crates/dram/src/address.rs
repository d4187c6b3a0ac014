//! Physical-address to DRAM-coordinate mapping.
//!
//! A [`MemorySystem`](crate::MemorySystem) models one memory channel; the
//! mapper translates a channel-local physical byte address into
//! (rank, bank group, bank, row, column-burst) coordinates.
//!
//! Two mappings are provided:
//!
//! * [`AddressMapping::RowRankBankColumn`] — a textbook open-page
//!   interleave with the column bits lowest: sequential addresses sweep
//!   one row of one bank (maximizing row hits, which is what matters for
//!   multi-burst embedding vectors), with bank-group/bank/rank bits above
//!   the columns.
//! * [`AddressMapping::SkylakeXor`] — the Skylake-style mapping the paper
//!   uses (Table I cites the DRAMA reverse-engineering work): bank and
//!   bank-group bits are XOR-folded with row bits so that row-conflicting
//!   streams spread across banks.

use recnmp_types::{ConfigError, PhysAddr};
use serde::{Deserialize, Serialize};

/// Coordinates of one 64-byte burst within a memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DramAddr {
    /// Rank index within the channel (DIMM-major: `dimm * ranks_per_dimm +
    /// rank_in_dimm`).
    pub rank: u8,
    /// Bank group within the rank.
    pub bank_group: u8,
    /// Bank within the bank group.
    pub bank: u8,
    /// Row within the bank.
    pub row: u32,
    /// Column in 64-byte burst units.
    pub column: u32,
}

impl DramAddr {
    /// Returns the flat bank index `bank_group * banks_per_group + bank`.
    pub fn flat_bank(&self, banks_per_group: u8) -> usize {
        self.bank_group as usize * banks_per_group as usize + self.bank as usize
    }
}

/// Channel geometry: how many ranks/banks/rows/columns the mapper targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Ranks in the channel (`dimms * ranks_per_dimm`).
    pub ranks: u8,
    /// Bank groups per rank (4 for DDR4 ×8).
    pub bank_groups: u8,
    /// Banks per bank group (4 for DDR4).
    pub banks_per_group: u8,
    /// Rows per bank.
    pub rows: u32,
    /// Columns per row, in 64-byte burst units (128 for an 8 KiB row
    /// buffer).
    pub columns: u32,
}

impl Geometry {
    /// DDR4 8 Gb ×8 devices forming a 64-bit rank: 4 bank groups × 4 banks,
    /// 65536 rows, 8 KiB row buffer (128 bursts), 8 GiB per rank.
    pub const fn ddr4_8gb_x8(ranks: u8) -> Self {
        Self {
            ranks,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 65536,
            columns: 128,
        }
    }

    /// Total channel capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.ranks as u64
            * self.bank_groups as u64
            * self.banks_per_group as u64
            * self.rows as u64
            * self.columns as u64
            * 64
    }

    /// Total banks in the channel.
    pub fn total_banks(&self) -> usize {
        self.ranks as usize * self.banks_per_rank()
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups as usize * self.banks_per_group as usize
    }

    /// Checks that every field is a positive power of two (so bit slicing
    /// is exact).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fields: [(&str, u64); 5] = [
            ("ranks", self.ranks as u64),
            ("bank_groups", self.bank_groups as u64),
            ("banks_per_group", self.banks_per_group as u64),
            ("rows", self.rows as u64),
            ("columns", self.columns as u64),
        ];
        for (name, v) in fields {
            if v == 0 || !v.is_power_of_two() {
                return Err(ConfigError::new(name, "must be a positive power of two"));
            }
        }
        Ok(())
    }
}

/// Strategy for translating physical addresses to DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AddressMapping {
    /// `[row | rank | bank | bank-group | column]` from most to least
    /// significant. Sequential addresses sweep a row and rotate bank groups
    /// every burst.
    RowRankBankColumn,
    /// Skylake-style mapping: like `RowRankBankColumn` but bank, bank-group
    /// and rank bits are XOR-folded with low row bits, matching the
    /// open-page-conflict behavior of the paper's test system.
    #[default]
    SkylakeXor,
}

impl AddressMapping {
    /// Decodes a physical address into channel-local DRAM coordinates.
    ///
    /// Addresses beyond the channel capacity wrap (the high bits are
    /// ignored), which keeps the mapper total; trace generators are
    /// responsible for staying within capacity.
    pub fn decode(self, addr: PhysAddr, geo: &Geometry) -> DramAddr {
        let burst = addr.get() >> 6; // 64-byte burst index
        let col_bits = geo.columns.trailing_zeros();
        let bg_bits = geo.bank_groups.trailing_zeros();
        let bank_bits = geo.banks_per_group.trailing_zeros();
        let rank_bits = geo.ranks.trailing_zeros();
        let row_bits = geo.rows.trailing_zeros();

        let mut x = burst;
        let mut take = |bits: u32| -> u64 {
            let v = x & ((1u64 << bits) - 1);
            x >>= bits;
            v
        };

        let column = take(col_bits) as u32;
        let mut bank_group = take(bg_bits) as u8;
        let mut bank = take(bank_bits) as u8;
        let mut rank = take(rank_bits) as u8;
        let row = (take(row_bits) as u32) & (geo.rows - 1);

        if self == Self::SkylakeXor {
            // Fold low row bits into the bank/rank selectors, in the spirit
            // of the XOR bank functions reverse-engineered for Skylake.
            if bg_bits > 0 {
                bank_group ^= (row & (geo.bank_groups as u32 - 1)) as u8;
            }
            if bank_bits > 0 {
                bank ^= ((row >> bg_bits) & (geo.banks_per_group as u32 - 1)) as u8;
            }
            if rank_bits > 0 {
                rank ^= ((row >> (bg_bits + bank_bits)) & (geo.ranks as u32 - 1)) as u8;
            }
        }

        DramAddr {
            rank,
            bank_group,
            bank,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::ddr4_8gb_x8(2)
    }

    #[test]
    fn capacity_matches_8gib_per_rank() {
        assert_eq!(geo().capacity_bytes(), 2 * 8 * 1024 * 1024 * 1024);
        assert_eq!(geo().total_banks(), 32);
    }

    #[test]
    fn sequential_bursts_share_a_row() {
        let m = AddressMapping::RowRankBankColumn;
        let g = geo();
        let a0 = m.decode(PhysAddr::new(0), &g);
        let a1 = m.decode(PhysAddr::new(64), &g);
        assert_eq!(a0.row, a1.row);
        assert_eq!(a0.rank, a1.rank);
        assert_eq!(a1.column, a0.column + 1);
    }

    #[test]
    fn same_burst_same_coordinates() {
        let m = AddressMapping::SkylakeXor;
        let g = geo();
        let a0 = m.decode(PhysAddr::new(0x1000), &g);
        let a1 = m.decode(PhysAddr::new(0x103f), &g);
        assert_eq!(a0, a1);
    }

    #[test]
    fn decode_stays_in_bounds() {
        let g = geo();
        for mapping in [
            AddressMapping::RowRankBankColumn,
            AddressMapping::SkylakeXor,
        ] {
            for i in 0..10_000u64 {
                let a = mapping.decode(PhysAddr::new(i * 4097), &g);
                assert!(a.rank < g.ranks);
                assert!(a.bank_group < g.bank_groups);
                assert!(a.bank < g.banks_per_group);
                assert!(a.row < g.rows);
                assert!(a.column < g.columns);
            }
        }
    }

    #[test]
    fn xor_mapping_spreads_row_strided_stream() {
        // A stream striding by exactly one row hits the same bank forever
        // under the plain mapping but spreads under the XOR mapping.
        let g = geo();
        let row_stride = 64 * g.columns as u64 * 4; // row bit 2 positions up
        let plain: Vec<u8> = (0..16)
            .map(|i| {
                AddressMapping::RowRankBankColumn
                    .decode(PhysAddr::new(i * row_stride * 1024), &g)
                    .bank_group
            })
            .collect();
        let xor: Vec<u8> = (0..16)
            .map(|i| {
                AddressMapping::SkylakeXor
                    .decode(PhysAddr::new(i * row_stride * 1024), &g)
                    .bank_group
            })
            .collect();
        let plain_distinct = plain.iter().collect::<std::collections::HashSet<_>>().len();
        let xor_distinct = xor.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(xor_distinct >= plain_distinct);
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let mut g = geo();
        g.columns = 100;
        assert_eq!(g.validate().unwrap_err().field(), "columns");
        assert!(geo().validate().is_ok());
    }

    #[test]
    fn flat_bank_indexing() {
        let a = DramAddr {
            rank: 0,
            bank_group: 2,
            bank: 3,
            row: 0,
            column: 0,
        };
        assert_eq!(a.flat_bank(4), 11);
    }

    #[test]
    fn single_rank_geometry_decodes_rank_zero() {
        let g = Geometry::ddr4_8gb_x8(1);
        for i in 0..1000u64 {
            let a = AddressMapping::SkylakeXor.decode(PhysAddr::new(i * 640009), &g);
            assert_eq!(a.rank, 0);
        }
    }
}
