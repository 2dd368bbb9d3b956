//! In-memory spans the driver records around its own calls into the client
//! (`script → attempt → begin | get | commit`), written out as JSON lines
//! when the traced run ends.
//!
//! Every span carries both clocks. Virtual durations are exact; host stamps
//! are wall-clock reads taken while one OS thread interleaves every simulated
//! task, so a host interval covers whatever else the executor ran meanwhile.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within a run.
    pub id: u32,
    /// Id of the span that caused this one (0 for a script).
    pub parent: u32,
    /// Script number: the identifier all spans of one transaction share.
    pub txn: u64,
    /// `script`, `attempt`, `begin`, `get` or `commit`.
    pub name: &'static str,
    /// Simulated time at entry, ns.
    pub virtual_start_ns: u64,
    /// Simulated time at exit, ns.
    pub virtual_end_ns: u64,
    /// Host time at entry, ns since the log was created.
    pub host_start_ns: u64,
    /// Host time at exit, ns since the log was created.
    pub host_end_ns: u64,
}

/// Append-only span store.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    origin: Instant,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            spans: Vec::new(),
            origin: Instant::now(),
        }
    }
}

impl SpanLog {
    /// Opens a span at virtual time `now_ns` and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, txn: u64, now_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let host = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            txn,
            name,
            virtual_start_ns: now_ns,
            virtual_end_ns: now_ns,
            host_start_ns: host,
            host_end_ns: host,
        });
        id
    }

    /// Closes span `id` at virtual time `now_ns`.
    pub fn close(&mut self, id: u32, now_ns: u64) {
        let host = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize - 1];
        span.virtual_end_ns = now_ns;
        span.host_end_ns = host;
    }

    /// The spans recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in open order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"txn\":{},\"name\":\"{}\",\
                 \"virtual_start_ns\":{},\"virtual_end_ns\":{},\
                 \"host_start_ns\":{},\"host_end_ns\":{}}}",
                s.id,
                s.parent,
                s.txn,
                s.name,
                s.virtual_start_ns,
                s.virtual_end_ns,
                s.host_start_ns,
                s.host_end_ns
            );
        }
        out
    }
}

/// Virtual self time of every span, indexed like `spans`: the span's
/// duration minus the part of that interval its child spans cover
/// (overlapping children are counted once; children are clipped to the
/// parent).
pub fn virtual_self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.virtual_start_ns, s.virtual_end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.virtual_start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.virtual_end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.virtual_end_ns - s.virtual_start_ns) - covered
        })
        .collect()
}
