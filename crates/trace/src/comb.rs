//! Co-located multi-table trace interleaving (the paper's Comb-N setups).
//!
//! Section II-F: "Comb-8 means that 8 embedding tables are running on the
//! machine and the T1–T8 traces are interleaved for the 8 embedding tables.
//! For Comb-16, Comb-32 and Comb-64 we multiply the 8 embedding tables 2,
//! 4 and 8 times." Each table occupies a contiguous logical address range.

use recnmp_types::rng::DetRng;
use recnmp_types::TableId;

use crate::gen::TraceGenerator;

/// A combined, interleaved trace over several co-located tables: an
/// iterator over the lookups' logical byte addresses.
///
/// Nothing is stored per lookup. Each address is drawn from its table's
/// generator as it is consumed, round-robin over the tables, so the
/// stream is the same whether it is collected or replayed on the fly.
#[derive(Debug, Clone)]
pub struct CombTrace {
    /// Each co-located table instance with its logical base address.
    tables: Vec<(u64, TraceGenerator)>,
    footprint: u64,
    /// Lookups still to draw.
    remaining: usize,
    /// The table that draws the next lookup.
    next_table: usize,
}

impl CombTrace {
    /// Interleaves `per_table` lookups from each generator.
    ///
    /// `multiplier` clones the generator set, modeling Comb-16/32/64 from
    /// the eight base tables (each clone is reseeded, so clones do not
    /// replay identical streams). Lookups are interleaved round-robin,
    /// matching the paper's interleaved-trace methodology.
    pub fn interleave(
        generators: &[TraceGenerator],
        multiplier: usize,
        per_table: usize,
        seed: u64,
    ) -> Self {
        assert!(!generators.is_empty(), "need at least one generator");
        assert!(multiplier >= 1, "multiplier must be at least 1");
        let mut rng = DetRng::seed(seed);

        // Build the co-located table instances with contiguous bases.
        let mut tables: Vec<(u64, TraceGenerator)> = Vec::new();
        let mut base = 0u64;
        for m in 0..multiplier {
            for g in generators {
                let mut inst = g.clone();
                if m > 0 {
                    // Reseed clones so the repeated tables are independent.
                    inst = TraceGenerator::new(
                        TableId::new(tables.len() as u32),
                        *g.spec(),
                        g.distribution(),
                        rng.next_stream(),
                    );
                }
                let bytes = inst.spec().bytes();
                tables.push((base, inst));
                base += bytes;
            }
        }
        Self {
            remaining: per_table * tables.len(),
            tables,
            footprint: base,
            next_table: 0,
        }
    }

    /// Number of co-located table instances.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total logical footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }
}

impl Iterator for CombTrace {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.remaining = self.remaining.checked_sub(1)?;
        let t = self.next_table;
        self.next_table = if t + 1 == self.tables.len() { 0 } else { t + 1 };
        let (base, inst) = &mut self.tables[t];
        Some(*base + inst.next_index() * inst.spec().vector_bytes)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CombTrace {}

/// Extension: draw a fresh derived seed from a [`DetRng`].
trait NextStream {
    fn next_stream(&mut self) -> u64;
}

impl NextStream for DetRng {
    fn next_stream(&mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::IndexDistribution;
    use crate::spec::EmbeddingTableSpec;

    /// Bytes of one test table: 10,000 rows of 64 bytes.
    const TABLE_BYTES: u64 = 10_000 * 64;

    fn gens(n: u32) -> Vec<TraceGenerator> {
        (0..n)
            .map(|t| {
                TraceGenerator::new(
                    TableId::new(t),
                    EmbeddingTableSpec::new(10_000, 64),
                    IndexDistribution::Zipf { s: 0.8 },
                    100 + t as u64,
                )
            })
            .collect()
    }

    #[test]
    fn interleave_round_robins_tables() {
        let c = CombTrace::interleave(&gens(4), 1, 10, 1);
        assert_eq!(c.num_tables(), 4);
        assert_eq!(c.len(), 40);
        let addrs: Vec<u64> = c.collect();
        assert_eq!(addrs.len(), 40);
        // Lookup i belongs to table i mod 4, laid out contiguously.
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(a / TABLE_BYTES, (i % 4) as u64, "lookup {i}");
            assert_eq!(a % 64, 0);
        }
    }

    #[test]
    fn stream_is_the_generators_draws_in_turn() {
        let mut reference = gens(3);
        let expect: Vec<u64> = (0..100)
            .flat_map(|_| {
                reference
                    .iter_mut()
                    .enumerate()
                    .map(|(t, g)| t as u64 * TABLE_BYTES + g.next_index() * 64)
                    .collect::<Vec<_>>()
            })
            .collect();
        let got: Vec<u64> = CombTrace::interleave(&gens(3), 1, 100, 3).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn multiplier_clones_tables() {
        let mut c = CombTrace::interleave(&gens(8), 4, 5, 2);
        assert_eq!(c.num_tables(), 32);
        assert_eq!(c.footprint(), 32 * TABLE_BYTES);
        assert!(c.all(|a| a < 32 * TABLE_BYTES));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<u64> = CombTrace::interleave(&gens(2), 2, 20, 9).collect();
        let b: Vec<u64> = CombTrace::interleave(&gens(2), 2, 20, 9).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn clones_are_not_identical_streams() {
        let addrs: Vec<u64> = CombTrace::interleave(&gens(1), 2, 50, 4).collect();
        let t0: Vec<u64> = addrs.iter().step_by(2).map(|a| a / 64).collect();
        let t1: Vec<u64> = addrs[1..]
            .iter()
            .step_by(2)
            .map(|a| (a - TABLE_BYTES) / 64)
            .collect();
        assert_ne!(t0, t1);
    }
}
