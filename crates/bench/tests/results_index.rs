//! `results/README.md` indexes every artifact under `results/` with the
//! binary that produces it. The experiment binaries write there, and the
//! directory is git-ignored, so a new artifact is only tracked if it is
//! added by force; these tests catch one that was indexed but never added,
//! and a producer column left stale after binaries are folded together.

use std::path::{Path, PathBuf};

/// The datasets `fig2_<dataset>.json` stands for.
const FIG2_DATASETS: [&str; 2] = ["cloudphysics", "msr"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn results_dir() -> PathBuf {
    manifest_dir().join("../../results")
}

fn readme() -> String {
    std::fs::read_to_string(results_dir().join("README.md")).expect("results/README.md")
}

/// The first two backticked cells of each row of the README's table:
/// (file name, producer).
fn rows(readme: &str) -> Vec<(String, String)> {
    let cell = |s: &str| -> Option<String> {
        let s = s.trim().strip_prefix('`')?;
        s.split_once('`').map(|(name, _)| name.to_string())
    };
    readme
        .lines()
        .filter(|line| line.starts_with("| `"))
        .filter_map(|line| {
            let mut cells = line.split('|').skip(1);
            Some((cell(cells.next()?)?, cell(cells.next()?)?))
        })
        .collect()
}

/// The indexed file names, `fig2_<dataset>.json` expanded per dataset.
fn indexed_files(readme: &str) -> Vec<String> {
    rows(readme)
        .into_iter()
        .flat_map(|(name, _)| match name.split_once("<dataset>") {
            Some((pre, post)) => FIG2_DATASETS.iter().map(|d| format!("{pre}{d}{post}")).collect(),
            None => vec![name],
        })
        .collect()
}

#[test]
fn every_indexed_artifact_is_committed() {
    let results = results_dir();
    let indexed = indexed_files(&readme());
    assert!(indexed.len() >= 10, "the README table lost its rows: {indexed:?}");
    let missing: Vec<&String> = indexed.iter().filter(|f| !results.join(f).is_file()).collect();
    assert!(missing.is_empty(), "indexed in results/README.md but missing: {missing:?}");
}

#[test]
fn producers_are_exactly_the_experiment_binaries() {
    let bins: Vec<String> = std::fs::read_dir(manifest_dir().join("src/bin"))
        .expect("crates/bench/src/bin")
        .map(|e| e.expect("a directory entry").path())
        .filter_map(|p| Some(p.file_name()?.to_str()?.strip_suffix(".rs")?.to_string()))
        .collect();
    assert!(!bins.is_empty(), "no experiment binaries found");
    let producers: Vec<String> = rows(&readme()).into_iter().map(|(_, p)| p).collect();
    let stale: Vec<&String> = producers.iter().filter(|p| !bins.contains(p)).collect();
    assert!(stale.is_empty(), "results/README.md names producers with no binary: {stale:?}");
    let silent: Vec<&String> = bins.iter().filter(|b| !producers.contains(b)).collect();
    assert!(silent.is_empty(), "binaries that produce no indexed artifact: {silent:?}");
}
