//! Shared plumbing for the experiment reproductions: scale factors,
//! formatted table output, and MILANA/Retwis run helpers.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use milana::cluster::MilanaCluster;
use obskit::{Obs, TxnStats};
use retwis::driver::{run_instance, TxnSystem, WorkloadConfig};
use simkit::rng::Zipf;
use simkit::Sim;

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
    /// Reads `REPRO_SCALE` from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("REPRO_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Measurement window of virtual time.
    pub fn measure(&self) -> Duration {
        match self {
            Scale::Quick => Duration::from_millis(1500),
            Scale::Full => Duration::from_secs(10),
        }
    }

    /// Warm-up window of virtual time before measurement.
    pub fn warmup(&self) -> Duration {
        match self {
            Scale::Quick => Duration::from_millis(300),
            Scale::Full => Duration::from_secs(2),
        }
    }

    /// Transactional keyspace size (the paper preloads 2 M keys; we scale
    /// down and note it in EXPERIMENTS.md).
    pub fn keyspace(&self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 200_000,
        }
    }
}

/// Flags every `repro_*` binary takes, as `--flag <value>` or
/// `--flag=<value>`. Each is read where it is used
/// ([`crate::artifact::json_path_from_args`], `perfkit::threads`,
/// [`trace_path_from_args`]); [`Args`] only checks that they are well formed.
const SHARED_FLAGS: [&str; 3] = ["--json", "--threads", "--trace"];

/// A binary's own command-line flags, in order, after the whole command
/// line was checked.
#[derive(Debug, PartialEq, Eq)]
pub struct Args(Vec<(String, String)>);

impl Args {
    /// Checks the process arguments: every argument must be one of the
    /// shared flags, one of the caller's `valued` flags (both spellings),
    /// or one of its `switches`. Anything else — or a flag missing its
    /// value — is reported and exits with code 2 before any work starts: a
    /// mistyped `--jsno out.json` must not run for minutes, exit 0 and
    /// write nothing.
    pub fn parse(valued: &[&str], switches: &[&str]) -> Args {
        Args::check(std::env::args().skip(1), valued, switches).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    fn check(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut own = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if switches.contains(&arg.as_str()) {
                own.push((arg, String::new()));
                continue;
            }
            let (flag, value) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_string(), value.to_string()),
                None => match it.next() {
                    Some(value) => (arg, value),
                    None => (arg, String::new()),
                },
            };
            let shared = SHARED_FLAGS.contains(&flag.as_str());
            if !shared && !valued.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag}"));
            }
            if value.is_empty() {
                return Err(format!("{flag} needs a value"));
            }
            if !shared {
                own.push((flag, value));
            }
        }
        Ok(Args(own))
    }

    /// True when the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// Every value given for `flag`, in order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.0
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
}

thread_local! {
    static TRACE_OBS: RefCell<Option<Obs>> = const { RefCell::new(None) };
}

/// Parses `--trace <path>` / `--trace=<path>` from the process arguments.
pub fn trace_path_from_args() -> Option<PathBuf> {
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            return it.next().map(PathBuf::from);
        }
        if let Some(rest) = arg.strip_prefix("--trace=") {
            return Some(PathBuf::from(rest));
        }
    }
    None
}

/// The process-wide observability bundle the experiment modules attach to
/// every cluster they build. With `--trace <path>` on the command line it
/// carries a bounded tracer (most recent 1 M events; older ones counted as
/// dropped) that [`maybe_dump_trace`] writes out as JSONL. Without the
/// flag tracing is disabled and recording costs nothing.
pub fn run_obs() -> Obs {
    TRACE_OBS.with(|slot| {
        slot.borrow_mut()
            .get_or_insert_with(|| {
                if trace_path_from_args().is_some() {
                    Obs::with_trace(1 << 20)
                } else {
                    Obs::new()
                }
            })
            .clone()
    })
}

/// Writes the recorded trace to the `--trace <path>` file as JSONL; no-op
/// without the flag. Call once at the end of every `repro_*` main. A
/// failed write aborts the binary so CI never mistakes a missing trace
/// for success.
pub fn maybe_dump_trace() {
    let Some(path) = trace_path_from_args() else {
        return;
    };
    let obs = run_obs();
    match std::fs::write(&path, obs.tracer.dump_jsonl()) {
        Ok(()) => eprintln!(
            "wrote trace ({} events, {} dropped) to {}",
            obs.tracer.len(),
            obs.tracer.dropped(),
            path.display()
        ),
        Err(e) => {
            eprintln!("failed to write trace {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Prints a row of fixed-width columns.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Outcome of one Retwis-over-MILANA run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Aggregated workload counters (measurement window only).
    pub stats: TxnStats,
    /// Virtual measurement duration.
    pub elapsed: Duration,
    /// Fraction of read-only commits decided locally (MILANA clients).
    pub local_validated: u64,
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

/// Drives Retwis instances over any [`TxnSystem`] clients for
/// `warmup + measure` virtual time; only the measurement window counts.
/// `window_open` runs between the two phases.
fn run_retwis_windowed<S: TxnSystem>(
    sim: &mut Sim,
    clients: &[S],
    wl: WorkloadConfig,
    instances_per_client: u32,
    (warmup, measure): (Duration, Duration),
    window_open: impl FnOnce(),
) -> TxnStats {
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
    stats
}

/// Drives `instances_per_client` Retwis instances on every cluster client
/// for `warmup + measure` virtual time; only the measurement window counts.
pub fn run_retwis_on_milana(
    sim: &mut Sim,
    cluster: &MilanaCluster,
    wl: WorkloadConfig,
    instances_per_client: u32,
    warmup: Duration,
    measure: Duration,
) -> RunOutcome {
    let local_validations = || -> u64 {
        cluster
            .clients
            .iter()
            .map(|c| c.stats().local_validations)
            .sum()
    };
    let mut lv_before = 0;
    let stats = run_retwis_windowed(
        sim,
        &cluster.clients,
        wl,
        instances_per_client,
        (warmup, measure),
        || lv_before = local_validations(),
    );
    RunOutcome {
        stats,
        elapsed: measure,
        local_validated: local_validations() - lv_before,
    }
}

/// Drives Retwis instances over any [`TxnSystem`] clients (used by the
/// Centiman comparison, where clients are not MILANA's).
pub fn run_retwis_generic<S: TxnSystem>(
    sim: &mut Sim,
    clients: &[S],
    wl: WorkloadConfig,
    instances_per_client: u32,
    warmup: Duration,
    measure: Duration,
) -> (TxnStats, Duration) {
    let stats = run_retwis_windowed(
        sim,
        clients,
        wl,
        instances_per_client,
        (warmup, measure),
        || (),
    );
    (stats, measure)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(args: &[&str], valued: &[&str], switches: &[&str]) -> Result<Args, String> {
        Args::check(args.iter().map(|s| s.to_string()), valued, switches)
    }

    #[test]
    fn shared_flags_pass_in_both_spellings_and_are_not_returned() {
        let args = check(
            &["--json", "a.json", "--threads=4", "--trace", "t.jsonl"],
            &[],
            &[],
        );
        assert_eq!(args, Ok(Args(Vec::new())));
    }

    #[test]
    fn own_flags_come_back_in_order() {
        let args = check(
            &["--seed", "3", "--only", "--seed=5", "--json=x"],
            &["--seed"],
            &["--only"],
        )
        .unwrap();
        assert_eq!(args.parsed::<u64>("--seed"), vec![3, 5]);
        assert_eq!(args.last_or("--seed", 1u64), 5);
        assert_eq!(args.last_or("--faults", 7usize), 7);
        assert!(args.has("--only"));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        assert_eq!(
            check(&["--jsno", "out.json"], &[], &[]),
            Err("unknown argument --jsno".into())
        );
        assert_eq!(
            check(&["stray"], &["--seed"], &[]),
            Err("unknown argument stray".into())
        );
        assert_eq!(
            check(&["--seed"], &["--seed"], &[]),
            Err("--seed needs a value".into())
        );
        assert_eq!(
            check(&["--json="], &[], &[]),
            Err("--json needs a value".into())
        );
    }
}
