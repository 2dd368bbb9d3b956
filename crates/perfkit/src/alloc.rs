//! Counting global allocator (feature `count-allocs`).
//!
//! Wraps the system allocator and counts allocations and requested bytes.
//! For a deterministic single-threaded workload the counts are themselves
//! deterministic, so `repro <experiment>` built with the feature reports
//! them as a byte-stable counter — a regression signal wall-clock timing
//! can't give on a noisy runner.
//!
//! Register it in a binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: perfkit::alloc::CountingAllocator = perfkit::alloc::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`] wrapper that counts every allocation and reallocation.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counters are lock-free atomics
// and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// A snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations (plus reallocations) since process start.
    pub allocations: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

impl AllocCounts {
    /// Reads the current counters.
    pub fn now() -> AllocCounts {
        AllocCounts {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }
}
