//! Common key/value/error types shared by all storage backends.

use std::fmt;
use std::rc::Rc;

use timesync::Version;

/// A storage key. Keys are arbitrary byte strings (the paper evaluates with
/// 16-byte keys); cloning is cheap (reference-counted).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Rc<[u8]>);

impl Key {
    /// The key's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A stable 64-bit identifier for trace events: keys built by
    /// `Key::from(u64)` map back to their integer id, anything else to an
    /// FNV-1a hash of the bytes. Deterministic across runs and platforms.
    pub fn trace_id(&self) -> u64 {
        if self.0.len() == 16 && self.0[8..].iter().all(|&b| b == 0) {
            let mut id = [0u8; 8];
            id.copy_from_slice(&self.0[..8]);
            return u64::from_be_bytes(id);
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in self.0.iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

impl From<u64> for Key {
    /// Builds a 16-byte key from an integer id, mirroring the paper's
    /// fixed-size keys: 8 bytes of big-endian id, zero-padded.
    fn from(id: u64) -> Key {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&id.to_be_bytes());
        Key(Rc::from(&b[..]))
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key(Rc::from(s.as_bytes()))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() == 16 && self.0[8..].iter().all(|&b| b == 0) {
            let mut id = [0u8; 8];
            id.copy_from_slice(&self.0[..8]);
            write!(f, "k{}", u64::from_be_bytes(id))
        } else {
            write!(f, "k{:02x?}", &self.0[..self.0.len().min(8)])
        }
    }
}

/// A stored value; cloning is cheap (reference-counted).
pub type Value = Rc<[u8]>;

/// Builds a [`Value`] from anything byte-like.
pub fn value(bytes: impl Into<Rc<[u8]>>) -> Value {
    bytes.into()
}

/// A version-stamped value returned by reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The version stamp of this value.
    pub version: Version,
    /// The payload.
    pub value: Value,
}

/// Errors surfaced by storage backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The key has no visible version at the requested timestamp.
    NotFound,
    /// A single-version backend cannot serve a snapshot read: the key was
    /// overwritten after the requested timestamp. Carries the version that
    /// clobbered the snapshot.
    SnapshotUnavailable(Version),
    /// The device is out of space and garbage collection cannot reclaim any.
    CapacityExhausted,
    /// A write carried a version not newer than the key's latest version;
    /// rejected to preserve at-most-once semantics (§3.3). Carries the
    /// current latest version.
    StaleWrite(Version),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound => write!(f, "key not found at requested timestamp"),
            StoreError::SnapshotUnavailable(v) => {
                write!(f, "snapshot unavailable: overwritten by {v}")
            }
            StoreError::CapacityExhausted => write!(f, "device capacity exhausted"),
            StoreError::StaleWrite(v) => write!(f, "write older than current version {v}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Counters describing backend activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Completed get operations.
    pub gets: u64,
    /// Completed put operations.
    pub puts: u64,
    /// Pages written to the device (including GC relocation traffic).
    pub pages_written: u64,
    /// Pages read from the device (including GC traffic).
    pub pages_read: u64,
    /// Blocks (or logical segments) erased/trimmed by garbage collection.
    pub gc_collections: u64,
    /// Live tuples relocated by garbage collection.
    pub gc_relocated: u64,
    /// Versions discarded as dead (superseded below the watermark).
    pub versions_pruned: u64,
}

/// Per-tuple on-flash metadata overhead (version stamp, lengths, checksum) —
/// the accounting constant that makes a 16-byte key + 472-byte value a
/// 512-byte stored tuple, as in the paper's evaluation setup.
pub(crate) const TUPLE_HEADER: usize = 24;

/// One stored `(key, value, version)` tuple — the unit the packing logic
/// fits into flash pages (§5: 512-byte tuples, up to 8 per 4 KB page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleRecord {
    /// The key.
    pub(crate) key: Key,
    /// The version stamp (recovered along with the data after failover).
    pub(crate) version: Version,
    /// The payload.
    pub(crate) value: Value,
}

impl TupleRecord {
    /// Bytes this tuple occupies on flash.
    pub(crate) fn accounted_len(&self) -> usize {
        self.key.len() + self.value.len() + TUPLE_HEADER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_from_u64_is_16_bytes() {
        let k = Key::from(42u64);
        assert_eq!(k.len(), 16);
        assert_eq!(k.to_string(), "k42");
    }

    #[test]
    fn keys_compare_by_bytes() {
        assert_eq!(Key::from(7u64), Key::from(7u64));
        assert_ne!(Key::from(7u64), Key::from(8u64));
        assert_eq!(Key::from("abc").as_bytes(), b"abc");
    }
}
