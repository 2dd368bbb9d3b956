//! Every `repro_*` binary checks its command line before it does any work:
//! a flag it does not know exits with code 2 (a mistyped `--jsno out.json`
//! used to run to completion, exit 0 and write nothing), and the shared
//! flags — `--trace` here — are accepted by all fourteen.

use std::process::Command;

const BINS: [&str; 14] = [
    env!("CARGO_BIN_EXE_repro_ablations"),
    env!("CARGO_BIN_EXE_repro_all"),
    env!("CARGO_BIN_EXE_repro_batch"),
    env!("CARGO_BIN_EXE_repro_chaos"),
    env!("CARGO_BIN_EXE_repro_clockfault"),
    env!("CARGO_BIN_EXE_repro_fig6"),
    env!("CARGO_BIN_EXE_repro_fig7"),
    env!("CARGO_BIN_EXE_repro_fig8"),
    env!("CARGO_BIN_EXE_repro_fig9"),
    env!("CARGO_BIN_EXE_repro_perf"),
    env!("CARGO_BIN_EXE_repro_readscale"),
    env!("CARGO_BIN_EXE_repro_rebalance"),
    env!("CARGO_BIN_EXE_repro_recovery"),
    env!("CARGO_BIN_EXE_repro_table1"),
];

/// Runs `bin` with `args`; returns its exit code and stderr. Every case
/// here is rejected by the argument check, so no experiment ever starts.
fn rejected(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mistyped_flag_exits_2_after_the_shared_flags_were_accepted() {
    for bin in BINS {
        // `--trace`, `--json` and `--threads` come first in both
        // spellings: the complaint must be about `--jsno`, not about them.
        let (code, err) = rejected(
            bin,
            &[
                "--trace",
                "t.jsonl",
                "--json=a.json",
                "--threads",
                "2",
                "--jsno",
                "out.json",
            ],
        );
        assert_eq!(code, Some(2), "{bin}: {err}");
        assert!(err.contains("unknown argument --jsno"), "{bin}: {err}");
    }
}

#[test]
fn flag_without_its_value_exits_2() {
    for bin in BINS {
        let (code, err) = rejected(bin, &["--json"]);
        assert_eq!(code, Some(2), "{bin}: {err}");
        assert!(err.contains("--json needs a value"), "{bin}: {err}");
    }
}

#[test]
fn own_flags_are_per_binary() {
    // `--seed` belongs to repro_batch but not to repro_fig7.
    let fig7 = env!("CARGO_BIN_EXE_repro_fig7");
    let (code, err) = rejected(fig7, &["--seed", "3"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown argument --seed"), "{err}");
    let batch = env!("CARGO_BIN_EXE_repro_batch");
    let (code, err) = rejected(batch, &["--seed", "x"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--seed: invalid value x"), "{err}");
}
