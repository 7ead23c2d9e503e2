//! The logical-to-physical page table (§3.1, §3.3).
//!
//! "A page table maintains a mapping between the linear logical address
//! space presented to the host and the physical address space of the Flash
//! array." The table lives in battery-backed SRAM because mappings change
//! on every copy-on-write and must update in place.
//!
//! Besides the forward map, the controller needs the reverse map — which
//! logical page a physical Flash page holds — to repoint mappings during
//! cleaning. Both directions are maintained here under a single invariant:
//! they are mutually consistent bijections on the Flash-resident pages.

use crate::addr::{FlashLocation, Location, LogicalPage};
use envy_flash::FlashGeometry;

/// Reverse-map encoding: `0` = empty, else `logical page + 1`. The zero
/// empty value lets the allocator hand back lazily-zeroed pages instead
/// of eagerly writing a sentinel across the whole (multi-megabyte at
/// paper scale) table, and `u32` halves the clone cost of
/// [`EnvyStore::fork`](crate::store::EnvyStore::fork).
const REV_EMPTY: u32 = 0;

/// Forward-map encoding: one word per logical page instead of a 12-byte
/// [`Location`], shrinking the hottest lookup table by a third.
const FWD_UNMAPPED: u64 = 0;
const FWD_SRAM: u64 = 1;
/// Flash locations are stored as `((segment << 32) | page) + FWD_FLASH_BASE`.
const FWD_FLASH_BASE: u64 = 2;

#[inline]
fn fwd_encode_flash(loc: FlashLocation) -> u64 {
    debug_assert!(loc.page < u32::MAX - 1, "page index near u32::MAX");
    (((loc.segment as u64) << 32) | loc.page as u64) + FWD_FLASH_BASE
}

#[inline]
pub(crate) fn fwd_decode(v: u64) -> Location {
    match v {
        FWD_UNMAPPED => Location::Unmapped,
        FWD_SRAM => Location::Sram,
        v => {
            let packed = v - FWD_FLASH_BASE;
            Location::Flash(FlashLocation {
                segment: (packed >> 32) as u32,
                page: packed as u32,
            })
        }
    }
}

/// Forward (logical → physical) and reverse (physical → logical) page
/// mappings.
///
/// # Example
///
/// ```
/// use envy_core::page_table::PageTable;
/// use envy_core::addr::{FlashLocation, Location};
/// use envy_flash::FlashGeometry;
///
/// let geo = FlashGeometry::new(1, 2, 4, 64).unwrap();
/// let mut pt = PageTable::new(8, &geo);
/// let loc = FlashLocation { segment: 1, page: 2 };
/// pt.map_flash(5, loc);
/// assert_eq!(pt.lookup(5), Location::Flash(loc));
/// assert_eq!(pt.logical_at(loc), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    /// Packed forward map; see [`fwd_decode`].
    forward: Vec<u64>,
    /// Flat reverse map (`segment * pages_per_segment + page`); see
    /// [`REV_EMPTY`].
    reverse: Vec<u32>,
    pages_per_segment: u32,
}

impl PageTable {
    /// Create a table for `logical_pages` logical pages over the given
    /// Flash geometry, with everything unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `logical_pages` does not fit the reverse map's `u32`
    /// encoding (over four billion pages).
    pub fn new(logical_pages: u64, geo: &FlashGeometry) -> PageTable {
        assert!(
            logical_pages < u32::MAX as u64,
            "logical page count exceeds the reverse-map encoding"
        );
        PageTable {
            forward: vec![FWD_UNMAPPED; logical_pages as usize],
            reverse: vec![REV_EMPTY; geo.segments() as usize * geo.pages_per_segment() as usize],
            pages_per_segment: geo.pages_per_segment(),
        }
    }

    #[inline]
    fn rev_index(&self, segment: u32, page: u32) -> usize {
        segment as usize * self.pages_per_segment as usize + page as usize
    }

    /// Number of logical pages.
    pub fn logical_pages(&self) -> u64 {
        self.forward.len() as u64
    }

    /// Current location of a logical page.
    ///
    /// # Panics
    ///
    /// Panics if `lp` is out of range.
    #[inline]
    pub fn lookup(&self, lp: LogicalPage) -> Location {
        fwd_decode(self.forward[lp as usize])
    }

    /// The logical page stored at a physical location, if any.
    pub fn logical_at(&self, loc: FlashLocation) -> Option<LogicalPage> {
        let lp = self.reverse[self.rev_index(loc.segment, loc.page)];
        // `.then`, not `.then_some`: the subtraction must stay lazy so an
        // empty slot (0) cannot underflow.
        (lp != REV_EMPTY).then(|| lp as u64 - 1)
    }

    /// Point a logical page at a Flash location (atomic repoint: the old
    /// reverse entry, if any, is cleared).
    ///
    /// # Panics
    ///
    /// Panics if the destination already holds a different logical page —
    /// the controller must never double-map a physical page.
    pub fn map_flash(&mut self, lp: LogicalPage, loc: FlashLocation) {
        let di = self.rev_index(loc.segment, loc.page);
        let dest = self.reverse[di];
        assert!(
            dest == REV_EMPTY || dest as u64 - 1 == lp,
            "physical page already holds logical page {}",
            dest as u64 - 1
        );
        if let Location::Flash(old) = self.lookup(lp) {
            let oi = self.rev_index(old.segment, old.page);
            self.reverse[oi] = REV_EMPTY;
        }
        self.forward[lp as usize] = fwd_encode_flash(loc);
        self.reverse[di] = lp as u32 + 1;
    }

    /// Point a logical page at the SRAM write buffer, clearing any Flash
    /// reverse mapping.
    pub fn map_sram(&mut self, lp: LogicalPage) {
        if let Location::Flash(old) = self.lookup(lp) {
            let oi = self.rev_index(old.segment, old.page);
            self.reverse[oi] = REV_EMPTY;
        }
        self.forward[lp as usize] = FWD_SRAM;
    }

    /// Return a logical page to the unmapped state.
    pub fn unmap(&mut self, lp: LogicalPage) {
        if let Location::Flash(old) = self.lookup(lp) {
            let oi = self.rev_index(old.segment, old.page);
            self.reverse[oi] = REV_EMPTY;
        }
        self.forward[lp as usize] = FWD_UNMAPPED;
    }

    /// Logical pages resident in a segment, in physical page order.
    /// This is the order the cleaner copies them in (§4.3: "when cleaning
    /// a segment, the order of the pages is maintained").
    pub fn residents_of(&self, segment: u32) -> Vec<(u32, LogicalPage)> {
        let mut out = Vec::new();
        self.residents_into(segment, &mut out);
        out
    }

    /// [`PageTable::residents_of`] into a caller-provided buffer (cleared
    /// first), so steady-state cleaning can reuse one allocation instead
    /// of building a fresh resident list per victim.
    pub fn residents_into(&self, segment: u32, out: &mut Vec<(u32, LogicalPage)>) {
        out.clear();
        let base = self.rev_index(segment, 0);
        out.extend(
            self.reverse[base..base + self.pages_per_segment as usize]
                .iter()
                .enumerate()
                // The subtraction must stay behind the filter so an empty
                // slot (0) cannot underflow.
                .filter(|&(_, &lp)| lp != REV_EMPTY)
                .map(|(page, &lp)| (page as u32, lp as u64 - 1)),
        );
    }

    /// Number of logical pages resident in a segment.
    pub fn resident_count(&self, segment: u32) -> u32 {
        let base = self.rev_index(segment, 0);
        self.reverse[base..base + self.pages_per_segment as usize]
            .iter()
            .filter(|&&lp| lp != REV_EMPTY)
            .count() as u32
    }

    /// SRAM footprint of the table at the paper's 6 bytes per mapping.
    pub fn sram_bytes(&self) -> u64 {
        self.forward.len() as u64 * 6
    }

    /// Check forward/reverse consistency; used by tests and recovery.
    ///
    /// Returns a description of the first violation found.
    pub fn check_consistency(&self) -> Result<(), String> {
        let pps = self.pages_per_segment as usize;
        let segments = self.reverse.len() / pps.max(1);
        for (lp, &v) in self.forward.iter().enumerate() {
            if let Location::Flash(f) = fwd_decode(v) {
                if f.page >= self.pages_per_segment || f.segment as usize >= segments {
                    return Err(format!("logical page {lp} maps out of range"));
                }
                let back = self.reverse[self.rev_index(f.segment, f.page)];
                if back == REV_EMPTY || back as u64 - 1 != lp as u64 {
                    return Err(format!(
                        "logical page {lp} maps to ({}, {}) but reverse holds {}",
                        f.segment,
                        f.page,
                        back as i64 - 1
                    ));
                }
            }
        }
        for (i, &entry) in self.reverse.iter().enumerate() {
            if entry != REV_EMPTY {
                let (seg, page) = (i / pps, i % pps);
                let lp = entry as u64 - 1;
                let fwd = self.forward.get(lp as usize).map(|&v| fwd_decode(v));
                match fwd {
                    Some(Location::Flash(f))
                        if f.segment as usize == seg && f.page as usize == page => {}
                    _ => {
                        return Err(format!(
                            "reverse entry ({seg}, {page}) -> {lp} not mirrored forward"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PageTable {
        let geo = FlashGeometry::new(1, 4, 8, 64).unwrap();
        PageTable::new(16, &geo)
    }

    #[test]
    fn starts_unmapped() {
        let pt = table();
        for lp in 0..16 {
            assert_eq!(pt.lookup(lp), Location::Unmapped);
        }
        assert_eq!(pt.logical_pages(), 16);
        pt.check_consistency().unwrap();
    }

    #[test]
    fn map_flash_roundtrip() {
        let mut pt = table();
        let loc = FlashLocation {
            segment: 2,
            page: 3,
        };
        pt.map_flash(7, loc);
        assert_eq!(pt.lookup(7), Location::Flash(loc));
        assert_eq!(pt.logical_at(loc), Some(7));
        pt.check_consistency().unwrap();
    }

    #[test]
    fn remap_clears_old_reverse_entry() {
        let mut pt = table();
        let a = FlashLocation {
            segment: 0,
            page: 0,
        };
        let b = FlashLocation {
            segment: 1,
            page: 5,
        };
        pt.map_flash(3, a);
        pt.map_flash(3, b);
        assert_eq!(pt.logical_at(a), None);
        assert_eq!(pt.logical_at(b), Some(3));
        pt.check_consistency().unwrap();
    }

    #[test]
    fn map_sram_clears_reverse() {
        let mut pt = table();
        let a = FlashLocation {
            segment: 0,
            page: 1,
        };
        pt.map_flash(2, a);
        pt.map_sram(2);
        assert_eq!(pt.lookup(2), Location::Sram);
        assert_eq!(pt.logical_at(a), None);
        pt.check_consistency().unwrap();
    }

    #[test]
    fn unmap_restores_initial_state() {
        let mut pt = table();
        pt.map_flash(
            1,
            FlashLocation {
                segment: 3,
                page: 7,
            },
        );
        pt.unmap(1);
        assert_eq!(pt.lookup(1), Location::Unmapped);
        assert_eq!(pt.resident_count(3), 0);
        pt.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_mapping_a_physical_page_panics() {
        let mut pt = table();
        let loc = FlashLocation {
            segment: 0,
            page: 0,
        };
        pt.map_flash(1, loc);
        pt.map_flash(2, loc);
    }

    #[test]
    fn residents_in_page_order() {
        let mut pt = table();
        pt.map_flash(
            10,
            FlashLocation {
                segment: 1,
                page: 6,
            },
        );
        pt.map_flash(
            11,
            FlashLocation {
                segment: 1,
                page: 2,
            },
        );
        pt.map_flash(
            12,
            FlashLocation {
                segment: 1,
                page: 4,
            },
        );
        let r = pt.residents_of(1);
        assert_eq!(r, vec![(2, 11), (4, 12), (6, 10)]);
        assert_eq!(pt.resident_count(1), 3);
    }

    #[test]
    fn sram_accounting_six_bytes_per_entry() {
        assert_eq!(table().sram_bytes(), 16 * 6);
    }

    #[test]
    fn idempotent_same_mapping() {
        let mut pt = table();
        let loc = FlashLocation {
            segment: 2,
            page: 2,
        };
        pt.map_flash(5, loc);
        pt.map_flash(5, loc); // same pair: allowed
        assert_eq!(pt.logical_at(loc), Some(5));
        pt.check_consistency().unwrap();
    }
}
