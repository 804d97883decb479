//! README.md names only entry points the tree has: every
//! `--example NAME` is a file in `examples/`, every `exp -- ID` is an
//! [`campuslab_bench::EXPERIMENTS`] id, and every `crates/*` directory has
//! a line in the layout block. Reads files only; starts no process.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn readme() -> String {
    std::fs::read_to_string(root().join("README.md")).expect("README.md is readable")
}

/// The word after each occurrence of `marker` in `text`.
fn words_after<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
    text.match_indices(marker)
        .filter_map(|(at, _)| text[at + marker.len()..].split_whitespace().next())
        .collect()
}

#[test]
fn every_example_the_readme_runs_exists() {
    let text = readme();
    let names = words_after(&text, "--example ");
    assert!(!names.is_empty(), "README runs no example");
    for name in names {
        let file = root().join("examples").join(format!("{name}.rs"));
        assert!(file.is_file(), "README runs `--example {name}`, but examples/{name}.rs is missing");
    }
}

#[test]
fn every_exp_id_the_readme_runs_is_an_experiment() {
    let text = readme();
    let ids = words_after(&text, "exp -- ");
    assert!(!ids.is_empty(), "README runs no experiment");
    for id in ids {
        assert!(
            id == "all" || campuslab_bench::EXPERIMENTS.iter().any(|(known, _, _)| *known == id),
            "README runs `exp -- {id}`, which is not an EXPERIMENTS id"
        );
    }
}

#[test]
fn the_layout_block_lists_every_crate() {
    let text = readme();
    let after = text.split_once("## Repository layout").expect("README has a layout section").1;
    let block = after.split("```").nth(1).expect("the layout section opens a code block");
    let listed: Vec<&str> = block.lines().filter_map(|l| l.split_whitespace().next()).collect();
    let mut missing = Vec::new();
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/ exists") {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).expect("a UTF-8 crate directory name");
        if path.is_dir() && !listed.contains(&format!("crates/{name}").as_str()) {
            missing.push(name.to_string());
        }
    }
    missing.sort();
    assert!(missing.is_empty(), "README's layout block omits crates {missing:?}");
}
