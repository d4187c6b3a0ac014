//! Shared SLS workload construction.
//!
//! Fair comparisons require every system to serve the *same* physical
//! address trace. [`TableLayout`] owns the logical layout (tables
//! contiguous in logical space) and one OS page mapper; [`SlsWorkload`]
//! generates the batches and translates them into the one [`SlsTrace`]
//! every system serves.

use recnmp_backend::SlsTrace;
use recnmp_trace::{EmbeddingTableSpec, IndexDistribution, PageMapper, SlsBatch, TraceGenerator};
use recnmp_types::{PhysAddr, TableId};

/// Which index streams the workload draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Uniform-random lookups (the paper's worst-case "random trace").
    Random,
    /// Production-like T1..T8 presets (cycled for more than 8 tables).
    Production,
}

/// Logical/physical layout shared by all systems in one comparison.
#[derive(Debug)]
pub struct TableLayout {
    bases: Vec<u64>,
    specs: Vec<EmbeddingTableSpec>,
    mapper: PageMapper,
}

impl TableLayout {
    /// Lays out `specs` contiguously and maps pages randomly into a
    /// physical space of `capacity_bytes`.
    pub fn random(specs: &[EmbeddingTableSpec], capacity_bytes: u64, seed: u64) -> Self {
        let mut bases = Vec::with_capacity(specs.len());
        let mut base = 0u64;
        for s in specs {
            bases.push(base);
            base += s.bytes();
        }
        Self {
            bases,
            specs: specs.to_vec(),
            mapper: PageMapper::new(capacity_bytes / 4096, seed),
        }
    }

    /// Page-colored layout: table `t`'s pages are pinned to color
    /// `t % colors` under `color_of` (the Figure 14(a) data-layout
    /// optimization). All tables share one color function; the mapper is
    /// rebuilt per table internally.
    pub fn colored(
        specs: &[EmbeddingTableSpec],
        capacity_bytes: u64,
        seed: u64,
        color_of: fn(u64) -> u32,
        colors: u32,
    ) -> ColoredTableLayout {
        let mut bases = Vec::with_capacity(specs.len());
        let mut base = 0u64;
        for s in specs {
            bases.push(base);
            base += s.bytes();
        }
        let mappers = (0..specs.len())
            .map(|t| {
                PageMapper::colored(
                    capacity_bytes / 4096,
                    seed.wrapping_add(t as u64),
                    color_of,
                    t as u32 % colors,
                )
            })
            .collect();
        ColoredTableLayout {
            bases,
            specs: specs.to_vec(),
            mappers,
        }
    }

    /// Translates (table, row) to a physical address.
    pub fn translate(&mut self, table: usize, row: u64) -> PhysAddr {
        let logical = self.bases[table] + row * self.specs[table].vector_bytes;
        self.mapper.translate(logical)
    }
}

/// Page-colored variant of [`TableLayout`].
#[derive(Debug)]
pub struct ColoredTableLayout {
    bases: Vec<u64>,
    specs: Vec<EmbeddingTableSpec>,
    mappers: Vec<PageMapper>,
}

impl ColoredTableLayout {
    /// Translates (table, row) to a physical address in the table's color.
    pub fn translate(&mut self, table: usize, row: u64) -> PhysAddr {
        let logical = self.bases[table] + row * self.specs[table].vector_bytes;
        self.mappers[table].translate(logical)
    }
}

/// A complete SLS workload: per-table batches in thread-arrival order.
#[derive(Debug, Clone)]
pub struct SlsWorkload {
    /// One batch per (round, table), in arrival order (round-robin across
    /// tables — the parallel-SLS-thread interleave of production).
    pub batches: Vec<SlsBatch>,
    /// Table specs by table index.
    pub specs: Vec<EmbeddingTableSpec>,
}

impl SlsWorkload {
    /// Builds a workload of `tables` tables, `rounds` batch windows of
    /// `batch_size` poolings each, `pooling` lookups per pooling.
    pub fn build(
        kind: TraceKind,
        tables: usize,
        rounds: usize,
        batch_size: usize,
        pooling: usize,
        seed: u64,
    ) -> Self {
        let spec = EmbeddingTableSpec::dlrm_default();
        let mut gens: Vec<TraceGenerator> = (0..tables)
            .map(|t| match kind {
                TraceKind::Random => TraceGenerator::new(
                    TableId::new(t as u32),
                    spec,
                    IndexDistribution::Uniform,
                    seed.wrapping_add(31 * t as u64),
                ),
                TraceKind::Production => {
                    // Re-tag cycled tables so co-located clones stay
                    // distinct, keeping the preset's skew and burstiness.
                    let preset = recnmp_trace::production::PRODUCTION_TABLES[t % 8];
                    TraceGenerator::new(
                        TableId::new(t as u32),
                        spec,
                        IndexDistribution::Zipf { s: preset.zipf_s },
                        seed.wrapping_add(131 * t as u64),
                    )
                    .with_burst_reuse(preset.reuse_p, preset.reuse_window)
                }
            })
            .collect();
        let mut batches = Vec::with_capacity(tables * rounds);
        for _ in 0..rounds {
            for g in gens.iter_mut() {
                batches.push(g.batch(batch_size, pooling));
            }
        }
        Self {
            batches,
            specs: vec![spec; tables],
        }
    }

    /// Total lookups across all batches.
    pub fn total_lookups(&self) -> usize {
        self.batches.iter().map(SlsBatch::total_lookups).sum()
    }

    /// The shared [`SlsTrace`] under `translate` — the single input every
    /// [`SlsBackend`](recnmp_backend::SlsBackend) serves.
    pub fn trace(&self, translate: &mut dyn FnMut(usize, u64) -> PhysAddr) -> SlsTrace {
        SlsTrace::from_batches(&self.batches, translate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shape() {
        let w = SlsWorkload::build(TraceKind::Random, 4, 2, 8, 80, 1);
        assert_eq!(w.batches.len(), 8);
        assert_eq!(w.total_lookups(), 4 * 2 * 8 * 80);
    }

    #[test]
    fn flat_trace_matches_lookup_count() {
        let w = SlsWorkload::build(TraceKind::Production, 2, 1, 4, 10, 2);
        let mut layout = TableLayout::random(&w.specs, 16 << 30, 3);
        let trace = w.trace(&mut |t, r| layout.translate(t, r));
        assert_eq!(trace.flat_addrs().count(), w.total_lookups());
    }

    #[test]
    fn same_seed_same_trace() {
        let w1 = SlsWorkload::build(TraceKind::Production, 2, 1, 4, 10, 7);
        let w2 = SlsWorkload::build(TraceKind::Production, 2, 1, 4, 10, 7);
        let mut l1 = TableLayout::random(&w1.specs, 16 << 30, 9);
        let mut l2 = TableLayout::random(&w2.specs, 16 << 30, 9);
        assert_eq!(
            w1.trace(&mut |t, r| l1.translate(t, r)),
            w2.trace(&mut |t, r| l2.translate(t, r))
        );
    }

    #[test]
    fn colored_layout_respects_colors() {
        fn color(frame: u64) -> u32 {
            (frame % 2) as u32
        }
        let specs = vec![EmbeddingTableSpec::new(10_000, 64); 2];
        let mut layout = TableLayout::colored(&specs, 16 << 30, 1, color, 2);
        for row in 0..200 {
            assert_eq!(color(layout.translate(0, row).page_frame()), 0);
            assert_eq!(color(layout.translate(1, row).page_frame()), 1);
        }
    }
}
