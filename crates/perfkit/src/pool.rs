//! Worker-pool runner for parallel deterministic simulations.
//!
//! Every `repro` suite is a sweep of *independent* deterministic
//! simulations: each point constructs its own `Sim` from its own seed and
//! never shares state with its neighbors. That makes the sweep
//! embarrassingly parallel — as long as each simulation runs entirely on
//! one thread (sims are `!Send`) and results merge back in *item order*,
//! the merged output is bit-for-bit what the serial loop produced.
//!
//! [`run_ordered`] is that runner: a scoped pool of `n` std threads pulls
//! items off a shared cursor, runs the (Send) closure on each, and the
//! results land in the input order. `threads <= 1` short-circuits to a
//! plain serial `map`, reproducing today's behavior exactly.
//!
//! The thread count is a process-wide cell: [`set_threads`] writes it
//! (`repro`'s `main`, once, from `--threads`) and [`threads()`] reads it,
//! `1` until someone sets it. A `--trace` run must set `1`: trace rings
//! are thread-local, so a trace capture has to stay on the main thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker stack size. Simulation futures nest deeply; the 8 MiB main
/// thread never notices, but the 2 MiB std default can.
const STACK_SIZE: usize = 16 * 1024 * 1024;

// A bare number that publishes no other data: `Relaxed` everywhere.
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker count [`run_ordered_auto`] uses from now on (`0` is
/// taken as `1`, the serial default).
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The configured worker count for this process.
pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// Runs `f` over `items` on `threads` workers and returns the results in
/// item order. With `threads <= 1` (or fewer than two items) this is a
/// plain serial map on the calling thread — no pool, no reordering,
/// byte-identical to the historical loops it replaces.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once the pool joins (the
/// serial path panics in place), so a failed point still fails the suite.
pub fn run_ordered<T, R>(threads: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = work[i]
            .lock()
            .expect("pool work slot")
            .take()
            .expect("work item taken once");
        let out = f(item);
        *results[i].lock().expect("pool result slot") = Some(out);
    };
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            std::thread::Builder::new()
                .stack_size(STACK_SIZE)
                .spawn_scoped(s, worker)
                .expect("spawn pool worker");
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool result slot")
                .expect("worker filled every slot")
        })
        .collect()
}

/// [`run_ordered`] with the process-configured thread count
/// ([`threads()`]). The call every `repro` suite makes.
pub fn run_ordered_auto<T, R>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    run_ordered(threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_reads_what_set_threads_wrote() {
        // The only test in this crate that touches the process-wide cell.
        assert_eq!(threads(), 1, "serial until someone asks otherwise");
        set_threads(4);
        assert_eq!(threads(), 4);
        set_threads(0);
        assert_eq!(threads(), 1);
    }

    #[test]
    fn ordered_results_match_serial_map() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&i| i * i).collect();
        for threads in [1, 2, 4, 7] {
            let out = run_ordered(threads, items.clone(), |i| i * i);
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn pool_handles_more_threads_than_items() {
        let out = run_ordered(8, vec![1u64, 2], |i| i + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        let _ = run_ordered(2, (0..8u64).collect(), |i| {
            assert!(i != 3, "point 3 failed");
            i
        });
    }
}
