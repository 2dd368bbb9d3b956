//! Per-page out-of-band (OOB) metadata and mount-scan records.
//!
//! Real NAND pages carry a spare ("out-of-band") area the controller programs
//! atomically with the data area. FTLs stash their reverse-mapping state
//! there so the mapping table is reconstructible from flash alone — the
//! paper's §4.5 recovery story. We model the four fields the FTLs need:
//!
//! - **key** — FTL-defined identity of the page (the logical block address
//!   for page-mapped FTLs, an informational key digest for tuple-packed
//!   MFTL pages whose payload is self-describing);
//! - **version** — newest version timestamp stored in the page, used to
//!   order duplicate copies left behind by in-flight GC relocation;
//! - **epoch** — the FTL mount epoch at program time (diagnostic);
//! - **floor** — the durable write-floor record: the replica's applied
//!   write floor at program time (see [`crate::Backend::note_floor`]).
//!   Mount recovers the replica's floor as the max over intact pages.
//!
//! A checksum over the fields makes torn programs *detectable*: a power
//! failure mid-program leaves the page with a corrupt checksum, and mount
//! discards such pages (their contents were never acknowledged — acks only
//! follow completed programs — so discarding cannot lose acked data).

/// Out-of-band metadata programmed atomically with a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageOob {
    /// FTL-defined page identity (LBA for page-mapped FTLs).
    pub(crate) key: u64,
    /// Newest version timestamp (ns) among records in the page.
    pub(crate) version: u64,
    /// FTL mount epoch at program time.
    pub(crate) epoch: u64,
    /// Durable write-floor record (ns) at program time.
    pub(crate) floor: u64,
    /// Integrity checksum over the fields; mismatch marks the page torn.
    checksum: u64,
}

impl PageOob {
    /// Builds OOB metadata with a valid checksum.
    pub(crate) fn new(key: u64, version: u64, epoch: u64, floor: u64) -> PageOob {
        let mut oob = PageOob {
            key,
            version,
            epoch,
            floor,
            checksum: 0,
        };
        oob.checksum = oob.expected_checksum();
        oob
    }

    /// FNV-1a over the metadata fields (stands in for the page ECC/CRC).
    fn expected_checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [self.key, self.version, self.epoch, self.floor] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// True if the stored checksum does not match the fields — the page's
    /// program was torn by a power failure and its contents must be
    /// discarded at mount.
    pub(crate) fn is_torn(&self) -> bool {
        self.checksum != self.expected_checksum()
    }

    /// Marks the page torn by corrupting the stored checksum (power-fail
    /// injection).
    pub(crate) fn tear(&mut self) {
        self.checksum = !self.expected_checksum();
    }
}

/// One programmed page reported by [`crate::NandDevice::mount_scan`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScannedPage {
    /// Physical address of the page.
    pub(crate) loc: crate::PhysLoc,
    /// Its OOB metadata; `None` for pages programmed without OOB (legacy
    /// raw programs), which mount treats the same as torn pages.
    pub(crate) oob: Option<PageOob>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_oob_is_intact() {
        let oob = PageOob::new(7, 42, 1, 9);
        assert!(!oob.is_torn());
    }

    #[test]
    fn tear_is_detectable() {
        let mut oob = PageOob::new(7, 42, 1, 9);
        oob.tear();
        assert!(oob.is_torn());
    }

    #[test]
    fn distinct_fields_distinct_checksums() {
        let a = PageOob::new(1, 2, 3, 4);
        let b = PageOob::new(1, 2, 3, 5);
        assert_ne!(a.checksum, b.checksum);
    }
}
