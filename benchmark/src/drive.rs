//! The closed-loop client model of §5.2: one outstanding transaction per
//! instance, an aborted script retried at once with the same keys.
//!
//! An instance runs until a virtual deadline. Every script that arrives ends
//! in exactly one of three ways — committed, abandoned, or still in flight
//! at the deadline (its result, if any, is discarded) — which is the
//! accounting identity the correctness gate checks.

use std::cell::RefCell;
use std::rc::Rc;

use flashsim::{Key, Value};
use milana::client::{TxnClient, TxnOpts};
use milana::msg::TxnError;
use obskit::AbortClass;
use simkit::time::SimTime;
use simkit::SimHandle;

use crate::gen::ScriptGen;
use crate::spans::SpanLog;

/// Bit of a span's `txn` id that marks a script with writes (the rest is
/// `instance << 32 | script number`).
pub const TXN_HAS_WRITES: u64 = 1 << 31;

/// Attempts after which a script is given up on and counted as failed.
pub const MAX_ATTEMPTS: u32 = 1_000;

/// Everything the instances of one phase record. Shared through `Rc`.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Scripts started.
    pub arrivals: u64,
    /// Scripts committed inside the window.
    pub commits: u64,
    /// Scripts given up on (retry cap, or an error a retry cannot fix).
    pub abandoned: u64,
    /// Scripts cut off by the deadline.
    pub in_flight_at_deadline: u64,
    /// Attempts that finished inside the window (commits + aborts + timeouts).
    pub attempts: u64,
    /// Aborted attempts by class, indexed like `AbortClass::ALL`.
    pub aborts: [u64; AbortClass::ALL.len()],
    /// Attempts that ended in a transport timeout (on a read, or a commit
    /// whose outcome stayed unknown); also counted under `unknown_outcome`.
    pub timeouts: u64,
    /// Read-only commits the client validated locally.
    pub local_commits: u64,
    /// `get` calls that returned inside the window's attempts.
    pub gets: u64,
    /// Key + value bytes of every committed put.
    pub user_bytes: u64,
    /// First begin → commit, virtual ns, scripts without writes.
    pub ro_latency_ns: Vec<u64>,
    /// First begin → commit, virtual ns, scripts with writes.
    pub rw_latency_ns: Vec<u64>,
    /// `|client clock − simulated time|` sampled at each commit (traced runs).
    pub skew_ns: Vec<u64>,
    /// Driver spans (traced runs only).
    pub spans: Option<SpanLog>,
}

impl Recorder {
    fn open(&mut self, name: &'static str, parent: u32, txn: u64, now: SimTime) -> u32 {
        match &mut self.spans {
            Some(log) => log.open(name, parent, txn, now.as_nanos()),
            None => 0,
        }
    }

    fn close(&mut self, id: u32, now: SimTime) {
        if let Some(log) = &mut self.spans {
            log.close(id, now.as_nanos());
        }
    }

    /// Aborted attempts of every class.
    pub fn aborted_attempts(&self) -> u64 {
        self.aborts.iter().sum()
    }
}

fn class_index(class: AbortClass) -> usize {
    AbortClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class in ALL")
}

/// What one instance needs besides its script source.
#[derive(Debug, Clone)]
pub struct InstanceCtx {
    /// Simulation handle.
    pub handle: SimHandle,
    /// The client this instance drives.
    pub client: TxnClient,
    /// Shared recorder of the current phase.
    pub rec: Rc<RefCell<Recorder>>,
    /// Virtual deadline of the phase.
    pub until: SimTime,
    /// The payload every put writes.
    pub payload: Value,
    /// Instance number, the high half of every script id.
    pub instance: u32,
}

/// Runs one closed-loop instance until `ctx.until`.
pub async fn run_instance(ctx: InstanceCtx, gen: Rc<RefCell<ScriptGen>>) {
    let h = &ctx.handle;
    let rec = &ctx.rec;
    let mut n = 0u64;
    while h.now() < ctx.until {
        let script = gen.borrow_mut().next_script();
        let reads: Vec<Key> = script.reads.iter().map(|&id| Key::from(id)).collect();
        let writes: Vec<Key> = script.writes.iter().map(|&id| Key::from(id)).collect();
        let kind = if writes.is_empty() { 0 } else { TXN_HAS_WRITES };
        let txn_id = (ctx.instance as u64) << 32 | kind | n;
        n += 1;
        let started = h.now();
        let script_span = {
            let mut r = rec.borrow_mut();
            r.arrivals += 1;
            r.open("script", 0, txn_id, started)
        };
        let mut attempts = 0u32;
        loop {
            if h.now() >= ctx.until {
                rec.borrow_mut().in_flight_at_deadline += 1;
                break;
            }
            attempts += 1;
            let attempt_span = rec
                .borrow_mut()
                .open("attempt", script_span, txn_id, h.now());
            let span = rec
                .borrow_mut()
                .open("begin", attempt_span, txn_id, h.now());
            let mut txn = ctx.client.begin_with(if writes.is_empty() {
                TxnOpts::snapshot()
            } else {
                TxnOpts::default()
            });
            rec.borrow_mut().close(span, h.now());
            let mut outcome = Ok(());
            let mut gets = 0u64;
            for key in &reads {
                let span = rec.borrow_mut().open("get", attempt_span, txn_id, h.now());
                let got = txn.get(key).await;
                rec.borrow_mut().close(span, h.now());
                gets += 1;
                if let Err(e) = got {
                    outcome = Err(e);
                    break;
                }
            }
            let outcome = match outcome {
                Err(e) => Err(e),
                Ok(()) => {
                    for key in &writes {
                        txn.put(key.clone(), ctx.payload.clone());
                    }
                    let span = rec
                        .borrow_mut()
                        .open("commit", attempt_span, txn_id, h.now());
                    let res = txn.commit().await;
                    rec.borrow_mut().close(span, h.now());
                    res
                }
            };
            let now = h.now();
            let mut r = rec.borrow_mut();
            r.close(attempt_span, now);
            if now > ctx.until {
                // Finished past the deadline: the window never saw it.
                r.in_flight_at_deadline += 1;
                break;
            }
            r.attempts += 1;
            r.gets += gets;
            match outcome {
                Ok(info) => {
                    r.commits += 1;
                    r.local_commits += info.local as u64;
                    let latency = (now - started).as_nanos() as u64;
                    if writes.is_empty() {
                        r.ro_latency_ns.push(latency);
                    } else {
                        r.rw_latency_ns.push(latency);
                        let put_bytes = writes[0].len() + ctx.payload.len();
                        r.user_bytes += (writes.len() * put_bytes) as u64;
                    }
                    if r.spans.is_some() {
                        let skew = ctx.client.clock().offset_ns().unsigned_abs();
                        r.skew_ns.push(skew);
                    }
                    break;
                }
                Err(TxnError::Aborted(reason)) => {
                    r.aborts[class_index(reason.class())] += 1;
                }
                Err(TxnError::Timeout) => {
                    r.timeouts += 1;
                    r.aborts[class_index(AbortClass::UnknownOutcome)] += 1;
                }
                Err(TxnError::KeyNotFound(_) | TxnError::Finished) => {
                    // Every key is preloaded; neither can be retried away.
                    r.abandoned += 1;
                    break;
                }
            }
            if attempts >= MAX_ATTEMPTS {
                r.abandoned += 1;
                break;
            }
        }
        rec.borrow_mut().close(script_span, h.now());
    }
}
