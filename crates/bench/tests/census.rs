//! The census of public items nothing uses. An item is a `pub` `fn`,
//! `struct`, `enum`, `trait`, `const`, `type` or `static` declared in the
//! non-test code of `crates/*/src`. It is referenced when its name appears
//! as a whole token in non-test code under `crates/*/src`, `src/`,
//! `examples/` or `benchmark/src`, other than in its own declaration, a
//! `pub use` re-export or a comment. Non-test code is each file's lines
//! before its first `#[cfg(test)]`. Matching is by name, so an item that
//! shares a common name (`new`) counts as referenced: the census is a
//! lower bound. Dead methods with a common name (`parse`, `emit`) are
//! invisible to it whenever a live method somewhere shares that name.
//!
//! The count may only fall. A change that deletes an unreferenced item
//! lowers [`CEILING`] in the same diff; one that adds an item with no
//! caller fails here with the item's name.
//!
//! The second census counts knobs: the `pub` fields of every `pub struct`
//! whose name ends in `Config`, `Policy` or `Spec`, in the same non-test
//! code of `crates/*/src`. A field stays settable only while two non-test
//! callers (the benchmark counts; tests and examples do not) need
//! different values; one with a single value in use becomes a constant
//! beside the code that reads it. That count may only fall too:
//! [`KNOB_CEILING`] drops with every knob a change removes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Unreferenced public items in this tree.
const CEILING: usize = 16;
/// Public fields of the tree's `*Config`, `*Policy` and `*Spec` structs.
const KNOB_CEILING: usize = 95;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The name a line declares when it opens a counted `pub` item.
fn declared(line: &str) -> Option<&str> {
    let words: Vec<&str> = line.trim_start().strip_prefix("pub ")?.split_whitespace().take(4).collect();
    let kind = words
        .iter()
        .position(|w| matches!(*w, "fn" | "struct" | "enum" | "trait" | "type" | "static"))
        .or_else(|| (words.first() == Some(&"const")).then_some(0))?;
    if !words[..kind].iter().all(|w| matches!(*w, "const" | "unsafe" | "async")) {
        return None;
    }
    let word = words.get(kind + 1)?;
    let end = word.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(word.len());
    (end > 0).then(|| &word[..end])
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.rs` files under every `crates/*/src`.
fn crate_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        rust_files(&krate.expect("readable directory entry").path().join("src"), &mut files);
    }
    files
}

/// A file's lines before its first `#[cfg(test)]`.
fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
}

#[test]
fn public_items_without_a_caller_do_not_grow() {
    let root = root();
    let crate_files = crate_sources(&root);
    let mut files = crate_files.clone();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(crate_files.len() > 50 && files.len() > crate_files.len(), "scanned the wrong tree");

    let mut items: BTreeSet<String> = BTreeSet::new();
    let mut declarations: BTreeMap<String, usize> = BTreeMap::new();
    let mut tokens: BTreeMap<String, usize> = BTreeMap::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        let mut in_pub_use = false;
        for line in non_test_lines(&text) {
            let trimmed = line.trim_start();
            in_pub_use |= trimmed.starts_with("pub use ");
            let skip = in_pub_use || trimmed.starts_with("//");
            in_pub_use &= !line.contains(';');
            if skip {
                continue;
            }
            if let Some(name) = declared(line).filter(|_| crate_files.contains(path)) {
                items.insert(name.to_owned());
                *declarations.entry(name.to_owned()).or_default() += 1;
            }
            for token in line.split(|c: char| !is_ident(c)).filter(|t| !t.is_empty()) {
                *tokens.entry(token.to_owned()).or_default() += 1;
            }
        }
    }

    let unreferenced: Vec<&String> =
        items.iter().filter(|name| tokens[*name] <= declarations[*name]).collect();
    assert!(
        unreferenced.len() <= CEILING,
        "{} public items have no non-test reference (ceiling {CEILING}): {unreferenced:?}",
        unreferenced.len()
    );
}

#[test]
fn config_fields_do_not_grow() {
    let files = crate_sources(&root());
    assert!(files.len() > 50, "scanned the wrong tree");
    let mut knobs = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        let mut open: Option<&str> = None;
        for line in non_test_lines(&text) {
            let trimmed = line.trim_start();
            match open {
                None => {
                    let Some(rest) = trimmed.strip_prefix("pub struct ") else { continue };
                    let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
                    let name = &rest[..end];
                    let knobbed = ["Config", "Policy", "Spec"].iter().any(|s| name.ends_with(s));
                    if knobbed && rest[end..].contains('{') && !rest.ends_with('}') {
                        open = Some(name);
                    }
                }
                Some(_) if trimmed.starts_with('}') => open = None,
                Some(name) => {
                    if let Some(field) = trimmed.strip_prefix("pub ") {
                        let end = field.find(|c: char| !is_ident(c)).unwrap_or(field.len());
                        knobs.push(format!("{name}::{}", &field[..end]));
                    }
                }
            }
        }
    }
    knobs.sort();
    assert!(
        knobs.len() <= KNOB_CEILING,
        "{} config fields (ceiling {KNOB_CEILING}): {knobs:?}",
        knobs.len()
    );
}
