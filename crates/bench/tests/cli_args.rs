//! `repro` checks its whole command line before it does any work: a flag
//! the experiment does not know exits with code 2 (a mistyped `--jsno
//! out.json` used to run to completion, exit 0 and write nothing), the
//! shared flags are accepted by every experiment, and a value that does
//! not parse — `--threads abc`, `REPRO_SCALE=Full` — is an error, not a
//! silent default. The same table keeps the documents honest: the commands,
//! repo paths and item paths they show must still exist.

use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// `repro --list`, one `(name, flags and value specs)` per row.
fn listed_rows() -> Vec<(String, Vec<String>)> {
    let out = Command::new(REPRO).arg("--list").output().expect("spawn");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|line| {
            let mut words = line.split_whitespace().map(str::to_string);
            let name = words.next().expect("name");
            (name, words.skip_while(|w| !w.starts_with("--")).collect())
        })
        .collect()
}

/// The experiment names `repro --list` prints.
fn listed() -> Vec<String> {
    listed_rows().into_iter().map(|(name, _)| name).collect()
}

/// Runs `repro` with `args`; returns its exit code and stderr. Every case
/// here is rejected before any experiment starts.
fn rejected(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(REPRO)
        .args(args)
        .env_remove("REPRO_SCALE")
        .output()
        .expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mistyped_flag_exits_2_after_the_shared_flags_were_accepted() {
    for name in listed() {
        // `--trace`, `--json` and `--threads` come first in both
        // spellings: the complaint must be about `--jsno`, not about them.
        let (code, err) = rejected(&[
            &name,
            "--trace",
            "t.jsonl",
            "--json=a.json",
            "--threads",
            "2",
            "--jsno",
            "out.json",
        ]);
        assert_eq!(code, Some(2), "{name}: {err}");
        assert!(err.contains("unknown argument --jsno"), "{name}: {err}");
    }
}

#[test]
fn flag_without_its_value_exits_2() {
    for name in listed() {
        let (code, err) = rejected(&[&name, "--json"]);
        assert_eq!(code, Some(2), "{name}: {err}");
        assert!(err.contains("--json needs a value"), "{name}: {err}");
    }
}

#[test]
fn own_flags_are_per_binary() {
    // `--seed` belongs to `batch` but not to `fig7`.
    let (code, err) = rejected(&["fig7", "--seed", "1"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown argument --seed"), "{err}");
    let (code, err) = rejected(&["batch", "--seed", "x"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--seed: invalid value x"), "{err}");
    // No experiment takes a switch: the one there was went with PR 23.
    let (code, err) = rejected(&["batch", "--deterministic-only"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.contains("unknown argument --deterministic-only"),
        "{err}"
    );
}

#[test]
fn malformed_threads_and_scale_exit_2_instead_of_running_a_default() {
    // Used to run serial (`parse().ok()`).
    let (code, err) = rejected(&["fig7", "--threads", "abc"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--threads: invalid value abc"), "{err}");
    // Used to run the *quick* scale (`_ => Scale::Quick`).
    for typo in ["Full", "ful"] {
        let out = Command::new(REPRO)
            .arg("fig7")
            .env("REPRO_SCALE", typo)
            .output()
            .expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{typo}: {err}");
        assert!(err.contains("REPRO_SCALE: invalid value"), "{typo}: {err}");
        assert!(out.stdout.is_empty(), "{typo}: ran before rejecting");
    }
}

#[test]
fn unknown_experiment_exits_2() {
    for name in ["fig10", "perf"] {
        let (code, err) = rejected(&[name, "--seed", "42"]);
        assert_eq!(code, Some(2), "{err}");
        assert!(err.contains(&format!("unknown experiment {name}")), "{err}");
    }
    let (code, _) = rejected(&[]);
    assert_eq!(code, Some(2));
}

/// The repo root, for the documents and the tree they are checked against.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The documents whose code spans must resolve.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "benchmark/README.md",
];

/// EXPERIMENTS.md sections that record what a past PR measured, with the
/// commands and files of its day (the `perf` experiment, its snapshot file,
/// the criterion shim): history, not instructions, so nothing in them is
/// checked.
const HISTORY: [&str; 4] = [
    "### Timer pass",
    "### Hash pass",
    "### Collapse pass",
    "### Message-plane pass",
];

/// `(document, path)` pairs a document may name although the tree has no
/// such file. Both are in `benchmark/README.md`, which only a benchmark PR
/// may edit: its default output directory (gitignored), and the snapshot
/// file of the `perf` experiment PR 23 deleted (the same sentence still says
/// `repro_perf`).
const NOT_IN_TREE: [(&str, &str); 2] = [
    ("benchmark/README.md", "benchmark/out"),
    ("benchmark/README.md", "BENCH_perf.json"),
];

/// Every piece of code `doc` shows outside the [`HISTORY`] sections: each
/// line of a fenced block, and each inline span with its whitespace (spans
/// wrap across lines) collapsed.
fn code_pieces(doc: &str) -> Vec<String> {
    let text = std::fs::read_to_string(format!("{ROOT}/{doc}")).expect(doc);
    let (mut pieces, mut prose) = (Vec::new(), String::new());
    let (mut fenced, mut history) = (false, false);
    for line in text.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            if !history {
                pieces.push(line.to_string());
            }
        } else {
            if line.starts_with('#') {
                history = HISTORY.iter().any(|h| line.starts_with(h));
            }
            if !history {
                prose.push_str(line);
                prose.push('\n');
            }
        }
    }
    // Odd-numbered segments between backticks are the inline spans.
    for span in prose.split('`').skip(1).step_by(2) {
        pieces.push(span.split_whitespace().collect::<Vec<_>>().join(" "));
    }
    pieces
}

/// Every path under the repo root, relative to it (build output excluded).
fn tree() -> Vec<String> {
    fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("read_dir").flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            out.push(
                path.strip_prefix(root)
                    .expect("under root")
                    .display()
                    .to_string(),
            );
            if path.is_dir() {
                walk(&path, root, out);
            }
        }
    }
    let root = std::path::Path::new(ROOT).canonicalize().expect("root");
    let mut out = Vec::new();
    walk(&root, &root, &mut out);
    out
}

/// Every `repro <experiment> [flags]` command the documents show — inline
/// or in a fenced block, run as `repro`, `./target/release/repro` or `cargo
/// run … --bin repro --` — names an experiment `repro --list` prints and
/// only flags (and `--inject` values) that experiment takes; and DESIGN.md's
/// index misses no experiment.
#[test]
fn list_names_every_experiment_the_docs_index() {
    let rows = listed_rows();
    let trim = |word: &str| -> String {
        word.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '-' && c != '<')
            .to_string()
    };
    let mut in_design = Vec::new();
    for doc in DOCS {
        for piece in code_pieces(doc) {
            let words: Vec<&str> = piece.split(' ').collect();
            for (i, word) in words.iter().enumerate() {
                let program = word.trim_start_matches(|c: char| !c.is_ascii_alphanumeric());
                if program != "repro" && !program.ends_with("/repro") {
                    continue;
                }
                // The command ends where a comment, pipe or redirect starts.
                let mut rest = words[i + 1..]
                    .iter()
                    .take_while(|w| !["#", "|", "&&", ";", ">"].contains(w))
                    .map(|w| trim(w))
                    .peekable();
                if rest.next_if(|w| w == "--features").is_some() {
                    rest.next();
                }
                rest.next_if(|w| w == "--");
                let Some(name) = rest
                    .next()
                    .filter(|w| !w.is_empty() && w.chars().all(|c| c.is_ascii_alphanumeric()))
                else {
                    continue; // `repro --list`, `repro <experiment>`, the bare word
                };
                let Some((_, flags)) = rows.iter().find(|(n, _)| *n == name) else {
                    panic!("{doc} shows `repro {name}`: no such experiment ({piece})");
                };
                if doc == "DESIGN.md" {
                    in_design.push(name.clone());
                }
                while let Some(flag) = rest.next() {
                    if !flag.starts_with("--") {
                        continue;
                    }
                    let (flag, value) = match flag.split_once('=') {
                        Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                        None => (flag, None),
                    };
                    let own = flags.iter().position(|f| *f == flag);
                    assert!(
                        own.is_some() || ["--json", "--threads", "--trace"].contains(&&*flag),
                        "{doc} shows `repro {name} {flag}`: no such flag ({piece})"
                    );
                    if flag == "--inject" {
                        let value = value.or_else(|| rest.next()).unwrap_or_default();
                        let spec = &flags[own.expect("checked") + 1];
                        assert!(
                            spec.trim_matches(['<', '>']).split('|').any(|v| v == value),
                            "{doc} shows `repro {name} --inject {value}`: not in {spec}"
                        );
                    }
                }
            }
        }
    }
    for (name, _) in &rows {
        assert!(in_design.contains(name), "DESIGN.md never names {name}");
    }
}

/// Every repo path and every `path::to::item` the documents put in a code
/// span of its own exists: a path resolves against the repo root, `crates/`
/// or the document's own directory (a bare file name: anywhere in the
/// tree); each segment of an item path is a crate or an identifier some
/// non-comment source line still uses.
#[test]
fn docs_name_only_paths_and_items_the_tree_has() {
    let tree = tree();
    let mut idents = std::collections::HashSet::new();
    for file in tree.iter().filter(|f| f.ends_with(".rs")) {
        let text = std::fs::read_to_string(format!("{ROOT}/{file}")).expect("source");
        for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
            let words = line.split(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            idents.extend(words.map(str::to_string));
        }
    }
    let is_ident = |s: &str| {
        !s.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let mut missing = Vec::new();
    for doc in DOCS {
        for piece in code_pieces(doc).iter().filter(|p| !p.contains(' ')) {
            let item = piece.trim_end_matches("()");
            if item.contains("::") && item.split("::").all(is_ident) {
                for segment in item.split("::") {
                    if !idents.contains(segment) && !tree.contains(&format!("crates/{segment}")) {
                        missing.push(format!("{doc}: `{piece}` ({segment} is gone)"));
                    }
                }
                continue;
            }
            let first = piece.split('/').next().expect("split yields one");
            let is_file = [
                ".rs", ".md", ".json", ".sh", ".toml", ".yml", ".txt", ".lock",
            ]
            .iter()
            .any(|ext| piece.ends_with(ext));
            let in_a_dir = piece.contains('/')
                && (tree.iter().any(|t| t == first) || tree.contains(&format!("crates/{first}")));
            let plain = piece
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "/._-".contains(c));
            if !plain || piece.starts_with(['/', '-', '.']) || !(is_file || in_a_dir) {
                continue; // a glob, a placeholder, a flag, a ratio: not a repo path
            }
            let path = piece.trim_end_matches('/');
            let here = std::path::Path::new(doc).parent().expect("relative");
            let found = tree.iter().any(|t| {
                t == path
                    || *t == format!("crates/{path}")
                    || *t == here.join(path).display().to_string()
                    || (!path.contains('/') && t.ends_with(&format!("/{path}")))
            });
            if !found && !NOT_IN_TREE.contains(&(doc, path)) {
                missing.push(format!("{doc}: `{piece}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "stale references:\n{}",
        missing.join("\n")
    );
}

/// A failed acceptance check exits 1 through the one `if !outcome.ok` in
/// `main` that every experiment — `all` included — shares: the seeded
/// validation fraud is caught by the checker in well under a second.
#[test]
fn failed_check_exits_1() {
    let out = Command::new(REPRO)
        .args(["chaos", "--seed", "3", "--faults", "0", "--shards", "1"])
        .args(["--inject", "validation-skip"])
        .env_remove("REPRO_SCALE")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("serializability_cycle"), "{stdout}");
}

/// `repro all --json` nests, under each experiment's name, exactly the
/// `data` that `repro <name> --json` writes at the seed `all` pins.
fn all_nests_the_data_of(names: &[&str]) {
    let dir = std::env::temp_dir().join(format!("repro-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let data_of = |name: &str| {
        let path = dir.join(format!("{name}.json"));
        let status = Command::new(REPRO)
            .args([name, "--json"])
            .arg(&path)
            .env("REPRO_SCALE", "quick")
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn");
        assert!(status.success(), "repro {name}");
        let doc = std::fs::read_to_string(&path).expect("artifact");
        // The envelope is `{ schema, experiment, scale, data }`, pretty
        // printed: `data` runs from its key to the closing brace.
        let start = doc.find("\"data\": ").expect("data key") + "\"data\": ".len();
        doc[start..doc.rfind('}').expect("closing brace")]
            .trim_end()
            .to_string()
    };
    let all = data_of("all");
    for name in names {
        // One level deeper in `all`: re-indent by two spaces.
        let nested = data_of(name).replace('\n', "\n  ");
        assert!(
            all.contains(&format!("\"{name}\": {nested}")),
            "`all` does not nest repro {name}'s data verbatim"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "runs the whole suite twice (minutes in release, far longer in debug); \
            tier-1 runs its in-process twin on one small experiment, \
            bench::tests::all_nests_a_real_experiments_data_verbatim"]
fn all_json_nests_each_experiments_own_artifact() {
    all_nests_the_data_of(&[
        "table1",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "ablations",
        "batch",
        "rebalance",
        "readscale",
        "recovery",
        "clockfault",
    ]);
}
