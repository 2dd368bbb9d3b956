//! `pub` means another crate calls it. rustc's `dead_code` lint never looks
//! at a `pub` item, so a `pub fn` that only its own crate (or only its own
//! unit tests) names hides code nothing runs. This test reads every `pub
//! fn`, `pub const` and `pub static` above a file's `#[cfg(test)]` under
//! `crates/*/src` and requires its name as a word somewhere outside that
//! crate's `src/` — another crate, the crate's own `tests/` or `src/bin/`,
//! the root `tests/`, `src/` and `examples/`, or the benchmark package's
//! `src/` and `tests/` — or a row in the table below that says why it
//! stays `pub` (ROADMAP item 13(e), "Visibility that says who calls what").
//! Anything else is `pub(crate)` or private, where the lint sees it.
//!
//! It is a word-match tripwire, not a call graph: a name that is a common
//! word anywhere else (`len`, `is_ok`, `as_millis`, `new`) always counts as
//! named outside its crate, so the scan cannot see such items. ROADMAP item
//! 13(e) lists the known ones that stay `pub` with no caller outside.

mod scan;

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// `("crate::name", why it stays pub although nothing outside names it)`.
const KEPT: &[(&str, &str)] = &[];

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// The name a line declares, if it is a `pub fn`, `pub const` or `pub
/// static` (a `pub const fn` counts as a fn).
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let kinds = [
        "const fn ",
        "async fn ",
        "unsafe fn ",
        "fn ",
        "const ",
        "static mut ",
        "static ",
    ];
    let rest = kinds.iter().find_map(|kind| rest.strip_prefix(kind))?;
    words(rest).next()
}

/// The crate whose library `src/` holds `file` (its unit tests included),
/// or "" for a file outside every crate's library.
fn owner(file: &Path) -> String {
    let Ok(rest) = file.strip_prefix(scan::root().join("crates")) else {
        return String::new();
    };
    let parts: Vec<_> = rest.iter().map(|p| p.to_string_lossy()).collect();
    match parts.as_slice() {
        [krate, src, sub, ..] if src == "src" && sub != "bin" => krate.to_string(),
        _ => String::new(),
    }
}

/// `crate::name` of every `pub` fn, const and static that no file outside
/// its crate names.
fn unnamed_outside() -> BTreeSet<String> {
    // word -> the owners of the files that name it.
    let mut named_by: HashMap<String, BTreeSet<String>> = HashMap::new();
    let dirs = [
        "crates",
        "tests",
        "src",
        "examples",
        "benchmark/src",
        "benchmark/tests",
    ];
    for dir in dirs {
        for file in scan::rust_files(&scan::root().join(dir)) {
            let text = std::fs::read_to_string(&file).expect("source");
            for word in words(&text) {
                let owners = named_by.entry(word.to_string()).or_default();
                owners.insert(owner(&file));
            }
        }
    }
    let mut unnamed = BTreeSet::new();
    for (krate, file) in scan::crate_sources() {
        let text = std::fs::read_to_string(&file).expect("source");
        for item in scan::live_lines(&text).into_iter().filter_map(pub_item) {
            if named_by[item].iter().all(|o| *o == krate) {
                unnamed.insert(format!("{krate}::{item}"));
            }
        }
    }
    unnamed
}

#[test]
fn every_pub_fn_const_and_static_is_named_outside_its_crate() {
    let unnamed = unnamed_outside();
    println!(
        "pub fns/consts/statics nothing outside their crate names: {} ({} kept by the table)",
        unnamed.len(),
        KEPT.len()
    );
    let mut wrong = Vec::new();
    for item in unnamed.iter().filter(|i| !KEPT.iter().any(|(k, _)| k == i)) {
        wrong.push(format!(
            "{item} is pub but nothing outside its crate names it: make it \
             pub(crate) or private (delete it if the lint then calls it dead), \
             or list it in KEPT with the reason it stays pub"
        ));
    }
    for (item, _) in KEPT.iter().filter(|(k, _)| !unnamed.contains(*k)) {
        wrong.push(format!(
            "{item} is named outside its crate, or gone: drop it from KEPT"
        ));
    }
    assert!(wrong.is_empty(), "public items:\n{}", wrong.join("\n"));
}
