//! `golden_check` walks from experiment ids to golden files, so a golden
//! left behind by a renamed or deleted experiment would go unnoticed.
//! This checks the other direction.

use std::collections::BTreeSet;
use std::path::Path;

use recnmp_sim::experiments::IDS;

#[test]
fn goldens_hold_exactly_one_file_per_experiment_id() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../goldens");
    let files: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| {
            let name = entry.expect("goldens entry").file_name();
            name.into_string().expect("UTF-8 file name")
        })
        .collect();
    let expected: BTreeSet<String> = IDS.iter().map(|id| format!("{id}.json")).collect();
    assert_eq!(expected.len(), IDS.len(), "experiment ids must be unique");
    assert_eq!(
        files, expected,
        "goldens/ must hold exactly one <id>.json per id in experiments::IDS"
    );
}
