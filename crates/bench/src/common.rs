//! Shared plumbing for the experiment reproductions: the scale knob, the
//! one command-line parser, the run's trace, and MILANA/Retwis run helpers.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

use milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana::Fraud;
use obskit::{FrozenTxnStats, Obs, TxnStats};
use retwis::driver::{run_instance, TxnSystem, WorkloadConfig};
use simkit::rng::Zipf;
use simkit::{Sim, SimHandle};
use timesync::{Discipline, Timestamp};

use crate::Experiment;

/// Experiment scale, settable via the `REPRO_SCALE` environment variable:
/// `quick` (CI-sized), `full` (paper-shaped; slower). Defaults to `quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small keyspaces / short runs; minutes of wall time for everything.
    Quick,
    /// Larger keyspaces / longer runs; closer to the paper's regime.
    Full,
}

impl Scale {
    /// Reads `REPRO_SCALE` from the environment. Any value other than
    /// `quick` or `full` is reported and exits with code 2: a mistyped
    /// `REPRO_SCALE=Full` must not silently run the quick scale.
    pub fn from_env() -> Scale {
        Scale::parse(std::env::var("REPRO_SCALE").ok().as_deref()).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "REPRO_SCALE: invalid value {other} (expected quick or full)"
            )),
        }
    }

    /// Measurement window of virtual time.
    pub fn measure(&self) -> Duration {
        match self {
            Scale::Quick => Duration::from_millis(1500),
            Scale::Full => Duration::from_secs(10),
        }
    }
}

/// Flags every experiment takes, spelled like [`Experiment::flags`].
const SHARED_FLAGS: [&str; 3] = ["--json <path>", "--threads <n>", "--trace <path>"];

/// The parsed command line of `repro <experiment> [flags]`; every flag is
/// `--flag <value>` or `--flag=<value>`.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// `--json <path>`: where to write the artifact.
    pub json: Option<PathBuf>,
    /// `--trace <path>`: where to write the run's obskit trace (JSONL).
    pub trace: Option<PathBuf>,
    /// `--threads <n>`: worker threads for the sweep (default 1).
    pub threads: usize,
    /// The experiment's own flags, in order.
    own: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments against `table`: the first names an
    /// experiment (`None` for `--list`), every other one must be a shared
    /// flag or one of that experiment's own. Anything else — or a flag
    /// missing its value, or a malformed one — is reported and exits with
    /// code 2 before any work starts: a mistyped `--jsno out.json` must
    /// not run for minutes, exit 0 and write nothing.
    pub fn parse(table: &[Experiment]) -> (Option<&Experiment>, Args) {
        Args::check(std::env::args().skip(1), table).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// [`Args::parse`] over any argument list, the error as a value.
    pub(crate) fn check(
        args: impl IntoIterator<Item = String>,
        table: &[Experiment],
    ) -> Result<(Option<&Experiment>, Args), String> {
        let mut parsed = Args {
            json: None,
            trace: None,
            threads: 1,
            own: Vec::new(),
        };
        let mut it = args.into_iter();
        let exp = match it.next().as_deref() {
            Some("--list") => return Ok((None, parsed)),
            Some(name) => table
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("unknown experiment {name} (repro --list names them)"))?,
            None => return Err("usage: repro <experiment> [flags] | repro --list".into()),
        };
        while let Some(arg) = it.next() {
            let (flag, value) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                None => (arg, None),
            };
            if !SHARED_FLAGS
                .iter()
                .chain(exp.flags)
                .any(|spec| spec.split(' ').next() == Some(&flag))
            {
                return Err(format!("unknown argument {flag}"));
            }
            let value = value
                .or_else(|| it.next())
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--json" => parsed.json = Some(value.into()),
                "--trace" => parsed.trace = Some(value.into()),
                "--threads" => {
                    parsed.threads = value
                        .parse()
                        .map_err(|_| format!("--threads: invalid value {value}"))?;
                }
                _ => parsed.own.push((flag, value)),
            }
        }
        Ok((Some(exp), parsed))
    }

    /// Every value given for `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.own
            .iter()
            .filter(move |(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `flag`, parsed; a malformed one exits 2.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Vec<T> {
        self.values(flag)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("{flag}: invalid value {v}");
                    std::process::exit(2);
                })
            })
            .collect()
    }

    /// The last value given for `flag`, parsed, or `default`.
    pub fn last_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.parsed(flag).pop().unwrap_or(default)
    }

    /// The server fraud `--inject` names, `Fraud::None` without one (chaos's
    /// `overload` is a plan, not a fraud); a value not in `known` exits 2.
    pub fn fraud(&self, known: &[&str]) -> Fraud {
        let mut fraud = Fraud::None;
        for what in self.values("--inject") {
            if !known.contains(&what) {
                eprintln!("unknown --inject {what}");
                std::process::exit(2);
            }
            fraud = match what {
                "validation-skip" => Fraud::SkipValidation,
                "durability-skip" => Fraud::SkipDurability,
                "uncertainty-skip" => Fraud::SkipUncertainty,
                _ => fraud,
            };
        }
        fraud
    }
}

thread_local! {
    static TRACE_OBS: RefCell<Option<Obs>> = const { RefCell::new(None) };
    static TRACE_PICK: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Turns tracing on for the run: [`run_obs`] on this thread now carries a
/// bounded tracer (most recent 1 M events; older ones counted as dropped).
/// `repro`'s `main` calls it for `--trace`, before the experiment runs and
/// with the worker pool pinned to this thread.
pub fn start_trace() {
    TRACE_OBS.set(Some(Obs::with_trace(1 << 20)));
}

/// The observability bundle the experiment modules attach to every cluster
/// they build on this thread. Tracing is disabled — recording costs nothing
/// — unless [`start_trace`] ran first.
pub fn run_obs() -> Obs {
    TRACE_OBS.with(|slot| slot.borrow_mut().get_or_insert_with(Obs::new).clone())
}

/// Makes `jsonl` the trace [`dump_trace`] writes, for an experiment whose
/// clusters trace into their own sinks (`repro chaos`: one per seed).
pub fn pick_trace(jsonl: String) {
    TRACE_PICK.set(Some(jsonl));
}

/// Writes the run's trace to `path` as JSONL: the one [`pick_trace`] chose,
/// else whatever [`run_obs`] recorded. A failed write aborts the binary so
/// CI never mistakes a missing trace for success.
pub fn dump_trace(path: &Path) {
    let trace = TRACE_PICK.take().unwrap_or_else(|| {
        let tracer = run_obs().tracer;
        eprintln!(
            "trace: {} events, {} dropped",
            tracer.len(),
            tracer.dropped()
        );
        tracer.dump_jsonl()
    });
    match std::fs::write(path, trace) {
        Ok(()) => eprintln!("wrote trace to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write trace {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Watermark maintenance for a bare store (the SEMEL client would drive
/// this): every 10 ms, `set` the watermark 50 ms behind true time so
/// superseded versions become collectible.
pub fn trail_watermark(h: &SimHandle, set: impl Fn(Timestamp) + 'static) {
    let hh = h.clone();
    h.spawn(async move {
        loop {
            hh.sleep(Duration::from_millis(10)).await;
            set(Timestamp::from_sim(hh.now()).before(Duration::from_millis(50)));
        }
    });
}

/// The clock-precision spectrum, best to worst, with table labels.
pub fn clock_spectrum() -> [(Discipline, &'static str); 4] {
    [
        (Discipline::Perfect, "Perfect"),
        (Discipline::PtpHardware, "PTP-HW"),
        (Discipline::PtpSoftware, "PTP-SW"),
        (Discipline::Ntp, "NTP"),
    ]
}

/// Outcome of one Retwis-over-MILANA run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Aggregated workload counters (measurement window only).
    pub stats: FrozenTxnStats,
    /// Read-only commits decided locally in the window.
    pub local_validated: u64,
    /// The cluster, for its servers' and clients' counters.
    pub cluster: MilanaCluster,
}

/// One closed-loop phase: `instances_per_client` Retwis instances on every
/// client until `dur` of virtual time has passed, counted into `stats`.
fn run_phase<S: TxnSystem>(
    sim: &mut Sim,
    clients: &[S],
    (wl, zipf): (&Rc<WorkloadConfig>, &Rc<Zipf>),
    instances_per_client: u32,
    dur: Duration,
    stats: &TxnStats,
) {
    let h = sim.handle();
    let until = h.now() + dur;
    let mut joins = Vec::new();
    for c in clients {
        for _ in 0..instances_per_client {
            joins.push(h.spawn(run_instance(
                h.clone(),
                c.clone(),
                wl.clone(),
                zipf.clone(),
                stats.clone(),
                until,
            )));
        }
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
}

/// Drives Retwis instances over any [`TxnSystem`] clients (MILANA's, or the
/// Centiman comparison's) for `warmup + measure` virtual time; only the
/// measurement window counts. `window_open` runs between the two phases.
pub fn run_retwis<S: TxnSystem>(
    sim: &mut Sim,
    clients: &[S],
    wl: WorkloadConfig,
    instances_per_client: u32,
    (warmup, measure): (Duration, Duration),
    window_open: impl FnOnce(),
) -> FrozenTxnStats {
    let zipf = Rc::new(Zipf::new(wl.keyspace as usize, wl.zipf_alpha));
    let wl = Rc::new(wl);
    // Warm-up phase uses a throwaway stats sink.
    let sink = TxnStats::new();
    run_phase(
        sim,
        clients,
        (&wl, &zipf),
        instances_per_client,
        warmup,
        &sink,
    );
    window_open();
    let stats = TxnStats::new();
    run_phase(
        sim,
        clients,
        (&wl, &zipf),
        instances_per_client,
        measure,
        &stats,
    );
    stats.freeze()
}

/// One Retwis-over-MILANA run: boots `cluster_cfg` in a fresh simulation
/// seeded `seed` and drives `instances_per_client` Retwis instances on
/// every client for `warmup + measure` virtual time; only the measurement
/// window counts.
pub fn run_retwis_on_milana(
    seed: u64,
    cluster_cfg: MilanaClusterConfig,
    wl: WorkloadConfig,
    instances_per_client: u32,
    (warmup, measure): (Duration, Duration),
) -> RunOutcome {
    let mut sim = Sim::new(seed);
    let cluster = MilanaCluster::build(&sim.handle(), cluster_cfg);
    let local_validations = || -> u64 {
        cluster
            .clients
            .iter()
            .map(|c| c.stats().local_validations)
            .sum()
    };
    let mut lv_before = 0;
    let stats = run_retwis(
        &mut sim,
        &cluster.clients,
        wl,
        instances_per_client,
        (warmup, measure),
        || lv_before = local_validations(),
    );
    let local_validated = local_validations() - lv_before;
    RunOutcome {
        stats,
        local_validated,
        cluster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<Experiment> {
        let row = |name, flags| Experiment {
            name,
            about: "",
            flags,
            in_all: false,
            run: |_, _| unreachable!("the parser runs nothing"),
        };
        vec![row("fig7", &[]), row("batch", &["--seed <S>"])]
    }

    fn check(args: &[&str]) -> Result<Args, String> {
        Args::check(args.iter().map(|s| s.to_string()), &table()).map(|(_, args)| args)
    }

    #[test]
    fn shared_flags_pass_in_both_spellings_and_are_not_returned() {
        let args = check(&[
            "fig7",
            "--json",
            "a.json",
            "--threads=4",
            "--trace",
            "t.jsonl",
        ])
        .unwrap();
        let expected = Args {
            json: Some("a.json".into()),
            trace: Some("t.jsonl".into()),
            threads: 4,
            own: Vec::new(),
        };
        assert_eq!(args, expected);
        assert_eq!(check(&["fig7"]).unwrap().threads, 1);
    }

    #[test]
    fn own_flags_come_back_in_order() {
        let args = check(&["batch", "--seed", "3", "--seed=5", "--json=x"]).unwrap();
        assert_eq!(args.parsed::<u64>("--seed"), vec![3, 5]);
        assert_eq!(args.last_or("--seed", 1u64), 5);
        assert_eq!(args.last_or("--faults", 7usize), 7);
        assert_eq!(args.json, Some("x".into()));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        for (args, msg) in [
            (
                &["fig7", "--jsno", "out.json"][..],
                "unknown argument --jsno",
            ),
            (&["batch", "stray"], "unknown argument stray"),
            (&["batch", "--seed"], "--seed needs a value"),
            (&["fig7", "--json="], "--json needs a value"),
            // Every flag takes a value: there is no switch to spell.
            (
                &["batch", "--deterministic-only"],
                "unknown argument --deterministic-only",
            ),
            // One experiment's own flag is unknown to another.
            (&["fig7", "--seed", "1"], "unknown argument --seed"),
            (
                &["fig7", "--threads", "abc"],
                "--threads: invalid value abc",
            ),
            (
                &["fig8"],
                "unknown experiment fig8 (repro --list names them)",
            ),
            (&[], "usage: repro <experiment> [flags] | repro --list"),
        ] {
            assert_eq!(check(args), Err(msg.to_string()), "{args:?}");
        }
    }

    #[test]
    fn list_names_no_experiment() {
        let table = table();
        let (exp, _) = Args::check(["--list".to_string()], &table).unwrap();
        assert!(exp.is_none());
    }

    #[test]
    fn scale_is_quick_full_or_an_error() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for typo in ["Full", "ful", ""] {
            assert!(Scale::parse(Some(typo)).is_err(), "{typo:?}");
        }
    }
}
