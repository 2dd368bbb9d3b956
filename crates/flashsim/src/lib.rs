//! # flashsim — software-defined flash substrate for SEMEL/MILANA
//!
//! A functional + timing model of the storage stack the paper builds on
//! (§2.2, §3.1, §5.1):
//!
//! - [`nand`] — an Open-Channel-SSD-style NAND device: page-grain programs,
//!   block-grain erases, sequential programming, parallel channels, bounded
//!   queue depth, wear accounting, and the paper's 50 µs / 100 µs / 1 ms
//!   read/program/erase timings;
//! - [`pftl`] — a generic page-mapped log-structured FTL (the "standard
//!   FTL" baseline);
//! - [`chain`] — the youngest-first per-key version chain (sorted insert,
//!   snapshot visibility, watermark pruning) every multi-version store uses;
//! - [`packed`] — the multi-version KV layer both flash stores share: chains
//!   of tuple locations, the bounded-delay packer that fills pages with
//!   small tuples, snapshot reads, power-fail fencing, mount rebuild, and a
//!   GC pass that collects versions and space together — all over a
//!   [`packed::Space`], the trait holding what differs between the two;
//! - [`mftl`] — **the paper's contribution**: the packed store over raw
//!   flash (`UnifiedStore`), keys mapped directly to physical tuple
//!   locations, one mapping level, one GC;
//! - [`vftl`] — the split baseline: the packed store over the generic FTL's
//!   LBA space (`SplitStore`) — two mapping steps, two GCs, double
//!   over-provisioning;
//! - [`sftl`] — a single-version baseline (no snapshot reads);
//! - [`dram`] — a battery-backed-DRAM/NVM-speed multi-version store (chains
//!   of values);
//! - [`dftl`] — the §3.1 future-work extension: demand-paged mapping for
//!   servers whose DRAM cannot hold the whole table;
//! - [`oob`] — per-page out-of-band metadata (key, version, epoch, floor,
//!   checksum) that makes mapping tables reconstructible from flash alone
//!   after a power failure (§4.5 recovery);
//! - [`backend`] — one enum over all four so servers swap backends freely.
//!
//! All stores share the SEMEL semantics: versions are `(timestamp, client)`
//! stamps, reads are snapshot reads ("youngest version ≤ t"), stale primary
//! writes are rejected for at-most-once, replicated writes may arrive in any
//! order, and a watermark bounds version history for GC.
//!
//! A store is built from its device alone: the per-operation overheads are
//! constants ([`mftl::OP_OVERHEAD`], [`vftl::OP_OVERHEAD`]), and each store
//! derives its garbage-collection levels from its own geometry through
//! `GcLevels::scaled`. The only store knobs left are MFTL's packing window
//! (the one the paper calls tunable; default [`mftl::PACKING_WINDOW`]) and
//! the number of translations a [`dftl::DemandMappedStore`] keeps resident.

#![warn(missing_docs)]

pub mod backend;
pub mod chain;
pub mod dftl;
pub mod dram;
pub mod mftl;
pub mod nand;
pub mod oob;
pub mod packed;
pub mod pftl;
pub mod sftl;
pub mod types;
pub mod vftl;

pub use backend::{Backend, BackendKind, MountReport};
pub use nand::{NandConfig, NandDevice, PhysLoc};
pub use types::{value, Key, StoreError, StoreStats, TupleRecord, Value, VersionedValue};

/// A store's garbage-collection trigger levels, in its own allocation units
/// (erase blocks, or VFTL segments).
#[derive(Debug, Clone, Copy)]
pub(crate) struct GcLevels {
    /// Background GC starts when free units drop to this level.
    pub(crate) low_water: usize,
    /// Units user writes never take: GC's own relocation headroom.
    pub(crate) reserve: usize,
}

impl GcLevels {
    /// The levels for a store of `units` allocation units: `units / 16` low
    /// water and `units / 64` reserve, so large devices start collecting
    /// before free space becomes critical, never below the store's floors
    /// — (3, 1) page-FTL blocks, (4, 2) MFTL blocks, (8, 4) VFTL segments.
    pub(crate) fn scaled(units: usize, min_low_water: usize, min_reserve: usize) -> GcLevels {
        GcLevels {
            low_water: (units / 16).max(min_low_water),
            reserve: (units / 64).max(min_reserve),
        }
    }
}
