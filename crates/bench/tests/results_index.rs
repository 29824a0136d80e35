//! Every artifact `results/README.md` indexes is committed under
//! `results/`. The experiment binaries write there, and the directory is
//! git-ignored, so a new artifact is only tracked if it is added by force;
//! this test catches one that was indexed but never added.

use std::path::Path;

/// The datasets `fig2_<dataset>.json` stands for.
const FIG2_DATASETS: [&str; 2] = ["cloudphysics", "msr"];

/// The backticked file names in the first column of the README's table.
fn indexed_files(readme: &str) -> Vec<String> {
    readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split_once('`').map(|(name, _)| name))
        .flat_map(|name| match name.split_once("<dataset>") {
            Some((pre, post)) => FIG2_DATASETS.iter().map(|d| format!("{pre}{d}{post}")).collect(),
            None => vec![name.to_string()],
        })
        .collect()
}

#[test]
fn every_indexed_artifact_is_committed() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let readme = std::fs::read_to_string(results.join("README.md")).expect("results/README.md");
    let indexed = indexed_files(&readme);
    assert!(indexed.len() >= 10, "the README table lost its rows: {indexed:?}");
    let missing: Vec<&String> = indexed.iter().filter(|f| !results.join(f).is_file()).collect();
    assert!(missing.is_empty(), "indexed in results/README.md but missing: {missing:?}");
}
