//! One entry point per table and figure of the paper's evaluation.
//!
//! Each experiment regenerates the rows/series of its figure from the
//! simulators in this workspace and returns them as renderable tables.
//! Their quick-scale outputs are pinned under `goldens/`
//! (`golden_check --update` rewrites them, `repro` prints any of them),
//! and `tests/paper_claims.rs` checks the headline claims against the
//! paper's numbers.
//!
//! This is the only place an artifact's traffic is defined. The four
//! serving-side modules are public so that `serve_sweep` sweeps the same
//! query shapes, tier geometry, hot-table count and resilience spec as
//! the figures, at [`Scale::Quick`] for `--smoke` and [`Scale::Full`]
//! otherwise.

mod characterization;
mod endtoend;
pub mod fleet;
mod nmp;
pub mod resilience;
pub mod serving;
pub mod storage;
mod tables;

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::render::TextTable;

/// How much work an experiment run does.
///
/// `Quick` keeps traces small enough for tests and benches (the
/// `goldens/` outputs); `Full` uses longer traces (`repro --full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small traces (seconds): tests, goldens, smoke runs.
    Quick,
    /// Full traces (minutes): the recorded reproduction.
    Full,
}

impl Scale {
    /// Scales a quick-mode count up for full mode.
    pub fn scaled(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The output of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Experiment id (`fig15_opt`, `tab02_overhead`, ...).
    pub id: String,
    /// Human-readable title naming the paper artifact.
    pub title: String,
    /// Result tables.
    pub tables: Vec<TextTable>,
    /// Free-form observations (paper-vs-measured commentary).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    pub(crate) fn new(id: &str, title: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {} — {}", self.id, self.title)?;
        for t in &self.tables {
            writeln!(f, "\n{t}")?;
        }
        for n in &self.notes {
            writeln!(f, "note: {n}")?;
        }
        Ok(())
    }
}

/// All experiment ids, in paper order (fig19, fig_capacity, fig_fleet,
/// fig_cache_serving and fig_resilience are this reproduction's own
/// extensions, numbered or named past the paper's last figure).
pub const IDS: [&str; 20] = [
    "fig01_footprint",
    "fig01_roofline_lift",
    "fig04_breakdown",
    "fig05_roofline",
    "fig06_bw_saturation",
    "fig07_locality",
    "fig12_hitrate",
    "fig14_scaling",
    "fig15_opt",
    "fig16_comparison",
    "fig17_fc_colocation",
    "fig18_end2end",
    "fig18_tail_latency",
    "fig19_placement",
    "fig_capacity",
    "fig_fleet",
    "fig_cache_serving",
    "fig_resilience",
    "tab01_config",
    "tab02_overhead",
];

/// Runs one experiment by id. Returns `None` for unknown ids.
pub fn run(id: &str, scale: Scale) -> Option<ExperimentResult> {
    let result = match id {
        "fig01_footprint" => characterization::fig01_footprint(),
        "fig01_roofline_lift" => characterization::fig01_roofline_lift(),
        "fig04_breakdown" => characterization::fig04_breakdown(),
        "fig05_roofline" => characterization::fig05_roofline(),
        "fig06_bw_saturation" => characterization::fig06_bw_saturation(),
        "fig07_locality" => characterization::fig07_locality(scale),
        "fig12_hitrate" => nmp::fig12_hitrate(scale),
        "fig14_scaling" => nmp::fig14_scaling(scale),
        "fig15_opt" => nmp::fig15_opt(scale),
        "fig16_comparison" => nmp::fig16_comparison(scale),
        "fig17_fc_colocation" => endtoend::fig17_fc_colocation(),
        "fig18_end2end" => endtoend::fig18_end2end(scale),
        "fig18_tail_latency" => serving::fig18_tail_latency(scale),
        "fig19_placement" => serving::fig19_placement(scale),
        "fig_capacity" => storage::fig_capacity(scale),
        "fig_fleet" => fleet::fig_fleet(scale),
        "fig_cache_serving" => serving::fig_cache_serving(scale),
        "fig_resilience" => resilience::fig_resilience(scale),
        "tab01_config" => tables::tab01_config(),
        "tab02_overhead" => tables::tab02_overhead(),
        _ => return None,
    };
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig99_nope", Scale::Quick).is_none());
    }

    #[test]
    fn ids_are_unique() {
        let set: std::collections::HashSet<&str> = IDS.iter().copied().collect();
        assert_eq!(set.len(), IDS.len());
    }

    #[test]
    fn scale_selector() {
        assert_eq!(Scale::Quick.scaled(2, 10), 2);
        assert_eq!(Scale::Full.scaled(2, 10), 10);
    }
}
