//! A write whose result is thrown away while the protocol reports success
//! is a silent write loss (ROADMAP item 2, "No silent write loss"). This
//! test finds every `let _ =` statement in `crates/*/src` outside test
//! modules that awaits a store write or a replication round, and holds
//! them to the table below: a new site fails until it is listed with the
//! reason it may drop the result, and a mended site fails until its row
//! goes. The table is a tripwire, not a pass: each row is a site item 2
//! turns into a reply, a retry or a violation.

mod scan;

use std::collections::BTreeMap;

/// Calls that write a store or run a replication round.
const WRITES: &[&str] = &[
    "put",
    "put_versioned",
    "delete",
    "apply_unordered",
    "apply_batch_unordered",
    "apply_committed",
    "apply_unapplied",
    "replicate",
    "replicate_record",
];

/// `(file under crates/, enclosing fn, write call, why the result is dropped)`.
const SITES: &[(&str, &str, &str, &str)] = &[
    (
        "bench/src/ablations.rs",
        "run_dftl",
        "put",
        "the DFTL ablation times reads under a write load; a refused put \
         only thins that load",
    ),
    (
        "milana/src/server/commit.rs",
        "apply_outcome",
        "apply_committed",
        "the primary counts a failed apply only in apply_failures and still \
         counts the commit",
    ),
    (
        "milana/src/server/commit.rs",
        "backup_apply_outcome",
        "apply_committed",
        "apply_committed already handles a backup's failure: it leaves the \
         record unapplied and pulls the catch-up sweep",
    ),
    (
        "milana/src/server/recovery.rs",
        "recover_as_primary",
        "apply_unapplied",
        "a new primary counts a failed replay only in apply_failures and \
         serves anyway",
    ),
    (
        "milana/src/server/recovery.rs",
        "recover_as_primary",
        "replicate",
        "promotion step 5 ignores whether InstallLog reached f backups; the \
         new primary serves anyway",
    ),
];

/// The word after `fn` on a line, if it declares one.
fn declared_fn(line: &str) -> Option<&str> {
    let code = line.trim_start();
    if code.starts_with("//") {
        return None;
    }
    let mut tokens = code.split_whitespace();
    tokens.find(|t| *t == "fn")?;
    let name = tokens.next()?;
    name.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .next()
        .filter(|n| !n.is_empty())
}

/// The write a statement calls, if it awaits one.
fn awaited_write(stmt: &str) -> Option<&'static str> {
    if !stmt.contains(".await") {
        return None;
    }
    WRITES.iter().copied().find(|w| {
        stmt.match_indices(&format!("{w}(")).any(|(at, _)| {
            let before = stmt[..at].chars().next_back();
            !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        })
    })
}

/// `(file, fn, write)` of every `let _ =` that awaits a write.
fn discarded_writes() -> Vec<(String, String, String)> {
    let crates = scan::root().join("crates");
    let mut found = Vec::new();
    for (_, file) in scan::crate_sources() {
        let text = std::fs::read_to_string(&file).expect("source");
        let path = file.strip_prefix(&crates).expect("under crates/");
        let lines = scan::live_lines(&text);
        let mut current_fn = "";
        for (i, line) in lines.iter().enumerate() {
            current_fn = declared_fn(line).unwrap_or(current_fn);
            if !line.trim_start().starts_with("let _ =") {
                continue;
            }
            let end = (i..lines.len())
                .find(|&j| lines[j].trim_end().ends_with(';'))
                .unwrap_or(lines.len() - 1);
            let stmt = lines[i..=end].join(" ");
            if let Some(write) = awaited_write(&stmt) {
                found.push((
                    path.display().to_string(),
                    current_fn.to_string(),
                    write.to_string(),
                ));
            }
        }
    }
    found
}

#[test]
fn every_discarded_write_is_listed_with_a_reason() {
    let mut count: BTreeMap<(String, String, String), i32> = BTreeMap::new();
    for site in discarded_writes() {
        *count.entry(site).or_default() += 1;
    }
    for (file, func, write, _) in SITES {
        let site = (file.to_string(), func.to_string(), write.to_string());
        *count.entry(site).or_default() -= 1;
    }
    let mut wrong = Vec::new();
    for ((file, func, write), n) in count {
        if n > 0 {
            wrong.push(format!(
                "{file} (fn {func}) drops the result of `{write}`: turn the error \
                 into a reply, a retry or a violation, or list the site with its reason"
            ));
        } else if n < 0 {
            wrong.push(format!(
                "{file} (fn {func}) no longer drops `{write}`: drop its row"
            ));
        }
    }
    assert!(wrong.is_empty(), "discarded writes:\n{}", wrong.join("\n"));
}
