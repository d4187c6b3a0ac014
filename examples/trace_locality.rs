//! Embedding-trace locality analysis: regenerate the Section II-F study
//! (Figure 7) on the synthetic production-like traces.
//!
//! ```text
//! cargo run --release -p recnmp-sim --example trace_locality
//! ```

use recnmp_cache::{CacheConfig, SetAssocCache};
use recnmp_trace::{production_tables, CombTrace, PageMapper};
use recnmp_types::units::MIB;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Interleave the eight production-like tables (Comb-8) and map their
    // logical addresses through the OS page mapper.
    let gens = production_tables(7);
    let comb = CombTrace::interleave(&gens, 1, 40_000, 3);
    println!(
        "trace: {} lookups over {} tables ({} logical footprint)",
        comb.len(),
        comb.num_tables(),
        recnmp_types::units::human_bytes(comb.footprint())
    );
    let mut mapper = PageMapper::new(1 << 24, 11);
    let phys: Vec<u64> = comb.map(|l| mapper.translate(l).get()).collect();

    println!("\ntemporal locality: hit rate vs capacity (64 B lines, 4-way LRU)");
    for mib in [8u64, 16, 32, 64] {
        let mut cache = SetAssocCache::new(CacheConfig::new(mib * MIB, 64, 4))?;
        let rate = cache.run_trace(phys.iter().copied());
        println!("  {:>2} MiB: {:>5.1}%", mib, 100.0 * rate);
    }

    println!("\nspatial locality: hit rate vs line size (16 MiB, 4-way LRU)");
    for line in [64u64, 128, 256, 512] {
        let mut cache = SetAssocCache::new(CacheConfig::new(16 * MIB, line, 4))?;
        let rate = cache.run_trace(phys.iter().copied());
        println!("  {:>3} B lines: {:>5.1}%", line, 100.0 * rate);
    }
    println!(
        "\nPaper: hit rate grows with capacity (temporal reuse) and shrinks with line \
         size (no spatial locality) — the basis for RecNMP's RankCache design."
    );
    Ok(())
}
