//! Reading `crates/*/src` as `scripts/code_lines.sh` counts it: each file
//! up to its first `#[cfg(test)]`, without the out-of-line test modules.
//! Shared by the root tests that hold the source to a table
//! (`public_items.rs`, `discarded_writes.rs`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The repo root.
pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively (none if `dir` is missing).
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// The module `line` declares out of line (`mod x;` or `pub mod x;`), if any.
fn out_of_line_mod(line: &str) -> Option<&str> {
    let line = line.trim();
    let rest = line.strip_prefix("pub ").unwrap_or(line);
    rest.strip_prefix("mod ")?.strip_suffix(';')
}

/// The lines of `text` above its first `#[cfg(test)]`. An attribute on an
/// out-of-line `mod x;` skips only that declaration.
pub fn live_lines(text: &str) -> Vec<&str> {
    let mut live = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            if lines.peek().and_then(|l| out_of_line_mod(l)).is_none() {
                break;
            }
            lines.next();
            continue;
        }
        live.push(line);
    }
    live
}

/// The files of out-of-line test modules (`#[cfg(test)] mod x;`) that
/// `files` declare.
fn test_modules(files: &[PathBuf]) -> BTreeSet<PathBuf> {
    let mut found = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(file).expect("source");
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if !line.trim_start().starts_with("#[cfg(test)]") {
                continue;
            }
            let Some(name) = lines.next().and_then(out_of_line_mod) else {
                continue;
            };
            let dir = file.parent().expect("in a directory");
            let stem = file.file_stem().expect("a file name");
            let dir = if ["lib", "main", "mod"].iter().any(|s| stem == *s) {
                dir.to_path_buf()
            } else {
                dir.join(stem)
            };
            found.insert(dir.join(format!("{name}.rs")));
        }
    }
    found
}

/// Every library source file under `crates/*/src` with the crate it
/// belongs to: no `src/bin/` file (a bin is a crate of its own) and no
/// out-of-line test module.
pub fn crate_sources() -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates")
        .flatten()
        .map(|e| e.path())
        .collect();
    crates.sort();
    for krate in crates {
        let name = krate.file_name().expect("crate dir").to_string_lossy();
        let src = krate.join("src");
        let files: Vec<PathBuf> = rust_files(&src)
            .into_iter()
            .filter(|f| !f.starts_with(src.join("bin")))
            .collect();
        let tests = test_modules(&files);
        for file in files.into_iter().filter(|f| !tests.contains(f)) {
            out.push((name.to_string(), file));
        }
    }
    out
}
