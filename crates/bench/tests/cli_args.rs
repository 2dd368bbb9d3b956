//! `repro` checks its whole command line before it does any work: a flag
//! the experiment does not know exits with code 2 (a mistyped `--jsno
//! out.json` used to run to completion, exit 0 and write nothing), the
//! shared flags are accepted by every experiment, and a value that does
//! not parse — `--threads abc`, `REPRO_SCALE=Full` — is an error, not a
//! silent default.

use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The experiment names `repro --list` prints (first word of each line).
fn listed() -> Vec<String> {
    let out = Command::new(REPRO).arg("--list").output().expect("spawn");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|line| line.split(' ').next().expect("name").to_string())
        .collect()
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
    let (code, err) = rejected(&["fig10"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown experiment fig10"), "{err}");
    let (code, _) = rejected(&[]);
    assert_eq!(code, Some(2));
}

/// Every `` `repro <word>` `` the two documents mention is an experiment
/// `repro --list` names, and DESIGN.md's index misses none of them.
#[test]
fn list_names_every_experiment_the_docs_index() {
    let listed = listed();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut in_design = Vec::new();
    for doc in ["DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
        for rest in text.split("`repro ").skip(1) {
            let word: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if word.is_empty() {
                continue; // `repro --list`, `repro <experiment>`
            }
            assert!(listed.contains(&word), "{doc} names `repro {word}`");
            if doc == "DESIGN.md" {
                in_design.push(word);
            }
        }
    }
    for name in &listed {
        assert!(in_design.contains(name), "DESIGN.md never names {name}");
    }
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
