//! The aggregate Flash array: banks × segments × pages.
//!
//! The eNVy controller manages Flash at page and segment granularity: a
//! page (256 bytes in the paper) moves across the wide datapath in one
//! cycle, and a segment (an erase-block row across a bank) is the erase
//! unit. Because all 256 chips of a bank act in lock-step, this model
//! tracks state per page rather than per chip, and enforces the chips'
//! rules itself: write-once programming, bulk erase, cycle-dependent
//! wear.

use crate::error::FlashError;
use crate::geometry::{FlashGeometry, FlashTimings};
use envy_sim::stats::Counter;
use envy_sim::time::Ns;
use envy_sync::{ArenaSpan, ArenaView, SharedArena};

/// Lifecycle state of one Flash page.
///
/// A page moves `Erased → Valid → Invalid → (segment erase) → Erased`.
/// There is no path from `Valid` or `Invalid` back to `Erased` except a
/// bulk segment erase — that is the constraint the whole eNVy design
/// exists to manage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and programmable.
    Erased,
    /// Holds live data.
    Valid,
    /// Holds stale data awaiting cleaning.
    Invalid,
}

/// Where the payload of a page being programmed comes from.
///
/// The last two variants name bytes that already live in a payload arena,
/// so the program moves them arena to arena in one pass — the model of the
/// paper's wide datapath — instead of staging them in a caller buffer.
#[derive(Debug, Clone, Copy)]
pub enum PageData<'a> {
    /// No payload: the page becomes valid with unspecified contents
    /// (state-only simulations).
    None,
    /// Page-sized caller bytes.
    Bytes(&'a [u8]),
    /// A page-sized span of another arena (an SRAM buffer frame being
    /// flushed).
    Span(ArenaSpan<'a>),
    /// Another page of this array (cleaning, wear-leveling and shadow
    /// relocation copies). Must not be the page being programmed.
    Page {
        /// Source segment.
        segment: u32,
        /// Source page within the segment.
        page: u32,
    },
}

/// Operation counters for the array.
#[derive(Debug, Clone, Default)]
pub struct FlashStats {
    /// Page reads serviced.
    pub page_reads: Counter,
    /// Page program operations.
    pub page_programs: Counter,
    /// Segment erases.
    pub segment_erases: Counter,
    /// Total simulated time spent programming.
    pub program_time: Ns,
    /// Total simulated time spent erasing.
    pub erase_time: Ns,
}

/// A deterministic schedule of injected chip faults for a [`FlashArray`].
///
/// Operation indices are 1-based and count only the matching operation
/// kind: `program_fail_ops = {3}` makes the third program operation after
/// the schedule is armed report `program_error`. Each scheduled failure
/// fires once and is consumed. An empty schedule never perturbs the
/// array, and an array with no schedule armed behaves identically to one
/// built before this mechanism existed.
#[derive(Debug, Clone, Default)]
pub struct FlashFaults {
    /// 1-based program-operation indices that must fail verify.
    pub program_fail_ops: std::collections::BTreeSet<u64>,
    /// 1-based erase-operation indices that must fail verify.
    pub erase_fail_ops: std::collections::BTreeSet<u64>,
    programs_seen: u64,
    erases_seen: u64,
}

impl FlashFaults {
    /// A schedule failing the given (1-based) program operations.
    pub fn fail_programs(ops: impl IntoIterator<Item = u64>) -> FlashFaults {
        FlashFaults {
            program_fail_ops: ops.into_iter().collect(),
            ..FlashFaults::default()
        }
    }

    /// A schedule failing the given (1-based) erase operations.
    pub fn fail_erases(ops: impl IntoIterator<Item = u64>) -> FlashFaults {
        FlashFaults {
            erase_fail_ops: ops.into_iter().collect(),
            ..FlashFaults::default()
        }
    }

    /// Whether every scheduled failure has fired.
    pub fn exhausted(&self) -> bool {
        self.program_fail_ops.is_empty() && self.erase_fail_ops.is_empty()
    }
}

#[derive(Debug, Clone)]
struct Segment {
    pages: Vec<PageState>,
    erase_cycles: u64,
    valid: u32,
    invalid: u32,
}

impl Segment {
    fn new(pages_per_segment: u32) -> Segment {
        Segment {
            pages: vec![PageState::Erased; pages_per_segment as usize],
            erase_cycles: 0,
            valid: 0,
            invalid: 0,
        }
    }
}

/// A Flash array of banks, segments and pages with eNVy's semantics.
///
/// Payload storage is optional: timing studies at the paper's full 2 GB
/// scale track page state only (`store_data = false`), while functional
/// tests verify byte-level integrity with storage enabled.
///
/// # Example
///
/// ```
/// use envy_flash::{FlashArray, FlashGeometry, FlashTimings, PageData};
///
/// # fn main() -> Result<(), envy_flash::FlashError> {
/// let geo = FlashGeometry::new(1, 4, 8, 64)?;
/// let mut a = FlashArray::new(geo, FlashTimings::paper(), false);
/// a.program_page(2, 0, PageData::None)?;
/// assert_eq!(a.valid_pages(2), 1);
/// a.invalidate_page(2, 0)?;
/// a.erase_segment(2)?;
/// assert_eq!(a.erase_cycles(2), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlashArray {
    geo: FlashGeometry,
    timings: FlashTimings,
    segments: Vec<Segment>,
    /// Page payloads for the whole array, one flat arena indexed by
    /// `(segment * pages_per_segment + page) * page_bytes`. Stored as a
    /// shared atomic arena so concurrent readers (see `envy_sync`) can
    /// copy page bytes while the single writer mutates; `Clone` deep-copies.
    payload: Option<SharedArena>,
    stats: FlashStats,
    /// Armed fault schedule; `None` (the default) is the zero-overhead
    /// fault-free path.
    faults: Option<Box<FlashFaults>>,
}

/// Byte offset of a page's payload within the flat arena.
#[inline]
fn page_base(geo: &FlashGeometry, segment: u32, page: u32) -> usize {
    (segment as usize * geo.pages_per_segment() as usize + page as usize)
        * geo.page_bytes() as usize
}

impl PageData<'_> {
    /// Validate the source against the geometry: bytes and spans must be
    /// page-sized, a source page must exist.
    fn check(&self, geo: &FlashGeometry) -> Result<(), FlashError> {
        let expected = geo.page_bytes() as usize;
        match *self {
            PageData::None => Ok(()),
            PageData::Bytes(bytes) if bytes.len() != expected => Err(FlashError::BadBufferLength {
                expected,
                actual: bytes.len(),
            }),
            PageData::Span(span) if span.len() != expected => Err(FlashError::BadBufferLength {
                expected,
                actual: span.len(),
            }),
            PageData::Page { segment, page }
                if segment >= geo.segments() || page >= geo.pages_per_segment() =>
            {
                Err(FlashError::OutOfRange { segment, page })
            }
            _ => Ok(()),
        }
    }

    /// Land the first `len` bytes of the (checked) source at `base` of
    /// the payload arena.
    fn store(self, geo: &FlashGeometry, payload: &mut SharedArena, base: usize, len: usize) {
        match self {
            PageData::None => {}
            PageData::Bytes(bytes) => payload.write_bytes(base, &bytes[..len]),
            PageData::Span(span) => payload.copy_from(base, span.prefix(len)),
            PageData::Page { segment, page } => {
                payload.copy_within(page_base(geo, segment, page), base, len);
            }
        }
    }
}

impl FlashArray {
    /// Create an array, fully erased.
    pub fn new(geo: FlashGeometry, timings: FlashTimings, store_data: bool) -> FlashArray {
        let segments = (0..geo.segments())
            .map(|_| Segment::new(geo.pages_per_segment()))
            .collect();
        let payload = store_data.then(|| {
            let bytes = geo.total_pages() as usize * geo.page_bytes() as usize;
            SharedArena::new(bytes, 0xFF)
        });
        FlashArray {
            geo,
            timings,
            segments,
            payload,
            stats: FlashStats::default(),
            faults: None,
        }
    }

    /// Reader handle to the payload arena (if payload storage is enabled),
    /// for lock-free concurrent page reads validated by an external epoch.
    pub fn payload_view(&self) -> Option<ArenaView> {
        self.payload.as_ref().map(SharedArena::view)
    }

    /// Arm a deterministic fault schedule (replacing any previous one).
    /// Pass `None` to disarm and restore fault-free operation.
    pub fn set_faults(&mut self, faults: Option<FlashFaults>) {
        self.faults = faults.map(Box::new);
    }

    /// The armed fault schedule, if any.
    pub fn faults(&self) -> Option<&FlashFaults> {
        self.faults.as_deref()
    }

    /// The array geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geo
    }

    /// The device timings.
    pub fn timings(&self) -> &FlashTimings {
        &self.timings
    }

    /// Whether payload bytes are stored.
    pub fn stores_data(&self) -> bool {
        self.payload.is_some()
    }

    /// Operation counters.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Zero the operation counters. Wear state (erase cycles) and page
    /// contents are untouched — this separates *measurement* from *state*
    /// so a warmed-up array can serve as the baseline for an experiment.
    pub fn reset_stats(&mut self) {
        self.stats = FlashStats::default();
    }

    fn check(&self, segment: u32, page: u32) -> Result<(), FlashError> {
        if segment >= self.geo.segments() {
            return Err(FlashError::OutOfRange {
                segment,
                page: u32::MAX,
            });
        }
        if page >= self.geo.pages_per_segment() {
            return Err(FlashError::OutOfRange { segment, page });
        }
        Ok(())
    }

    /// State of one page.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn page_state(&self, segment: u32, page: u32) -> PageState {
        self.check(segment, page).expect("page index in range");
        self.segments[segment as usize].pages[page as usize]
    }

    /// Read a page. If payload storage is enabled and `buf` is provided,
    /// the page contents are copied out (`buf` must be page-sized).
    ///
    /// Returns the device time for one wide-bus read cycle. Reading any
    /// page state is allowed (reading invalid data is how shadow-copy
    /// rollback works, §6).
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`] or [`FlashError::BadBufferLength`].
    pub fn read_page(
        &mut self,
        segment: u32,
        page: u32,
        buf: Option<&mut [u8]>,
    ) -> Result<Ns, FlashError> {
        self.check(segment, page)?;
        if let Some(buf) = buf {
            let pb = self.geo.page_bytes() as usize;
            if buf.len() != pb {
                return Err(FlashError::BadBufferLength {
                    expected: pb,
                    actual: buf.len(),
                });
            }
            if let Some(data) = &self.payload {
                data.read_bytes(page_base(&self.geo, segment, page), buf);
            } else {
                buf.fill(0xFF);
            }
        }
        self.stats.page_reads.incr();
        Ok(self.timings.read)
    }

    /// Read a sub-page range straight into the caller's slice: the bytes
    /// at `offset..offset + buf.len()` within the page land in `buf` with
    /// no intermediate page-sized scratch copy. With payload storage
    /// disabled, `buf` is filled with erased (0xFF) bytes.
    ///
    /// Counts and costs exactly like [`FlashArray::read_page`] — the
    /// datapath still moves the whole page; only the host-side copy
    /// narrows.
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`], or [`FlashError::BadBufferLength`] if
    /// the range extends past the end of the page.
    pub fn read_page_into(
        &mut self,
        segment: u32,
        page: u32,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<Ns, FlashError> {
        self.check(segment, page)?;
        let pb = self.geo.page_bytes() as usize;
        if offset + buf.len() > pb {
            return Err(FlashError::BadBufferLength {
                expected: pb,
                actual: offset + buf.len(),
            });
        }
        if let Some(data) = &self.payload {
            data.read_bytes(page_base(&self.geo, segment, page) + offset, buf);
        } else {
            buf.fill(0xFF);
        }
        self.stats.page_reads.incr();
        Ok(self.timings.read)
    }

    /// Read a page as the source of an arena-to-arena copy (the
    /// copy-on-write into an SRAM frame): instead of copying the payload
    /// out, lend it. `None` when payload storage is disabled.
    ///
    /// Counts exactly like [`FlashArray::read_page`].
    ///
    /// # Errors
    ///
    /// [`FlashError::OutOfRange`].
    pub fn read_page_span(
        &mut self,
        segment: u32,
        page: u32,
    ) -> Result<Option<ArenaSpan<'_>>, FlashError> {
        self.check(segment, page)?;
        self.stats.page_reads.incr();
        let geo = &self.geo;
        Ok(self
            .payload
            .as_ref()
            .map(|data| data.span(page_base(geo, segment, page), geo.page_bytes() as usize)))
    }

    /// Program a page (one wide-bus transfer plus the Flash program time).
    ///
    /// The page must be erased — Flash cannot update in place. If payload
    /// storage is enabled the bytes `data` names are written; programming
    /// with [`PageData::None`] marks the page valid with unspecified
    /// contents (used by state-only simulations).
    ///
    /// Returns the device program time (subject to wear degradation).
    ///
    /// # Errors
    ///
    /// [`FlashError::ProgramToNonErased`] if the page is not erased,
    /// [`FlashError::OutOfRange`], or [`FlashError::BadBufferLength`].
    pub fn program_page(
        &mut self,
        segment: u32,
        page: u32,
        data: PageData<'_>,
    ) -> Result<Ns, FlashError> {
        // Locate the segment with a single bounds probe; the no-data path
        // (state-only simulations) then touches nothing but the page-state
        // slot — beyond a tag test of `data`, no payload work.
        let pps = self.geo.pages_per_segment();
        let Some(seg) = self.segments.get_mut(segment as usize) else {
            return Err(FlashError::OutOfRange {
                segment,
                page: u32::MAX,
            });
        };
        if page >= pps {
            return Err(FlashError::OutOfRange { segment, page });
        }
        data.check(&self.geo)?;
        let state = &mut seg.pages[page as usize];
        if *state != PageState::Erased {
            return Err(FlashError::ProgramToNonErased { segment, page });
        }
        if let Some(f) = &mut self.faults {
            f.programs_seen += 1;
            if f.program_fail_ops.remove(&f.programs_seen) {
                // The program pulse ran but verify failed: the page holds
                // partially-cleared bits and cannot be reused until its
                // segment is erased.
                *state = PageState::Invalid;
                seg.invalid += 1;
                return Err(FlashError::ProgramFailed { segment, page });
            }
        }
        *state = PageState::Valid;
        seg.valid += 1;
        if let Some(payload) = &mut self.payload {
            let base = page_base(&self.geo, segment, page);
            data.store(&self.geo, payload, base, self.geo.page_bytes() as usize);
        }
        let cost = self.timings.program_at(seg.erase_cycles);
        self.stats.page_programs.incr();
        self.stats.program_time += cost;
        Ok(cost)
    }

    /// A program operation torn by power loss partway through the wide
    /// transfer: of the 256 lock-step chips holding the page, only the
    /// first `chips_programmed` byte lanes latched their data (one byte
    /// per chip, as in the paper's bank layout). The page is left
    /// neither erased nor trustworthy; it is unreferenced garbage that
    /// recovery must scavenge before the segment can be cleaned.
    ///
    /// No operation counters are advanced — power died before the chip
    /// could report completion.
    ///
    /// # Errors
    ///
    /// Same validity errors as [`FlashArray::program_page`].
    pub fn program_page_torn(
        &mut self,
        segment: u32,
        page: u32,
        data: PageData<'_>,
        chips_programmed: u32,
    ) -> Result<(), FlashError> {
        self.check(segment, page)?;
        data.check(&self.geo)?;
        let seg = &mut self.segments[segment as usize];
        let state = &mut seg.pages[page as usize];
        if *state != PageState::Erased {
            return Err(FlashError::ProgramToNonErased { segment, page });
        }
        // The torn page reads back as a mix of programmed and erased
        // lanes; it is recorded as Valid (bits were cleared) so the
        // scavenger can find and invalidate it.
        *state = PageState::Valid;
        seg.valid += 1;
        if let Some(payload) = &mut self.payload {
            let torn = (chips_programmed as usize).min(self.geo.page_bytes() as usize);
            let base = page_base(&self.geo, segment, page);
            data.store(&self.geo, payload, base, torn);
        }
        Ok(())
    }

    /// An erase torn by power loss mid-pulse: every page of the segment
    /// is left indeterminate (recorded as invalid) and the erase must be
    /// reissued. Cycle counters are not advanced — the pulse did not
    /// complete.
    ///
    /// # Errors
    ///
    /// [`FlashError::EraseWithLiveData`] or [`FlashError::OutOfRange`],
    /// as for [`FlashArray::erase_segment`].
    pub fn erase_segment_torn(&mut self, segment: u32) -> Result<(), FlashError> {
        self.check(segment, 0)?;
        let pps = self.geo.pages_per_segment();
        let seg = &mut self.segments[segment as usize];
        if seg.valid > 0 {
            return Err(FlashError::EraseWithLiveData {
                segment,
                live_pages: seg.valid,
            });
        }
        seg.pages.fill(PageState::Invalid);
        seg.invalid = pps;
        if let Some(data) = &mut self.payload {
            let len = pps as usize * self.geo.page_bytes() as usize;
            data.fill(segment as usize * len, len, 0x00);
        }
        Ok(())
    }

    /// Mark a valid page invalid (the copy-on-write retired it).
    ///
    /// # Errors
    ///
    /// [`FlashError::InvalidateNonValid`] if the page is not valid, or
    /// [`FlashError::OutOfRange`].
    pub fn invalidate_page(&mut self, segment: u32, page: u32) -> Result<(), FlashError> {
        self.check(segment, page)?;
        let seg = &mut self.segments[segment as usize];
        if seg.pages[page as usize] != PageState::Valid {
            return Err(FlashError::InvalidateNonValid { segment, page });
        }
        seg.pages[page as usize] = PageState::Invalid;
        seg.valid -= 1;
        seg.invalid += 1;
        Ok(())
    }

    /// Restore an invalid page to valid (§6 hardware transactions: the
    /// invalidated copy-on-write original is a shadow copy, and rollback
    /// makes it the live copy again). Purely a metadata transition — the
    /// data was never destroyed.
    ///
    /// # Errors
    ///
    /// [`FlashError::InvalidateNonValid`] if the page is not invalid (the
    /// shadow was lost), or [`FlashError::OutOfRange`].
    pub fn revalidate_page(&mut self, segment: u32, page: u32) -> Result<(), FlashError> {
        self.check(segment, page)?;
        let seg = &mut self.segments[segment as usize];
        if seg.pages[page as usize] != PageState::Invalid {
            return Err(FlashError::InvalidateNonValid { segment, page });
        }
        seg.pages[page as usize] = PageState::Valid;
        seg.invalid -= 1;
        seg.valid += 1;
        Ok(())
    }

    /// Erase a segment. Every page must be invalid or already erased; the
    /// eNVy cleaner guarantees this by copying live data out first.
    ///
    /// Returns the device erase time (subject to wear degradation).
    ///
    /// # Errors
    ///
    /// [`FlashError::EraseWithLiveData`] if any page is still valid, or
    /// [`FlashError::OutOfRange`].
    pub fn erase_segment(&mut self, segment: u32) -> Result<Ns, FlashError> {
        self.check(segment, 0)?;
        let pps = self.geo.pages_per_segment();
        let seg = &mut self.segments[segment as usize];
        if seg.valid > 0 {
            return Err(FlashError::EraseWithLiveData {
                segment,
                live_pages: seg.valid,
            });
        }
        if let Some(f) = &mut self.faults {
            f.erases_seen += 1;
            if f.erase_fail_ops.remove(&f.erases_seen) {
                // The erase pulse ran but verify failed: every page is
                // indeterminate until a successful erase.
                seg.pages.fill(PageState::Invalid);
                seg.invalid = pps;
                if let Some(data) = &mut self.payload {
                    let len = pps as usize * self.geo.page_bytes() as usize;
                    data.fill(segment as usize * len, len, 0x00);
                }
                return Err(FlashError::EraseFailed { segment });
            }
        }
        seg.pages.fill(PageState::Erased);
        seg.invalid = 0;
        seg.erase_cycles += 1;
        if let Some(data) = &mut self.payload {
            let len = pps as usize * self.geo.page_bytes() as usize;
            data.fill(segment as usize * len, len, 0xFF);
        }
        let cost = self.timings.erase_at(seg.erase_cycles);
        self.stats.segment_erases.incr();
        self.stats.erase_time += cost;
        Ok(cost)
    }

    /// Number of valid (live) pages in a segment.
    pub fn valid_pages(&self, segment: u32) -> u32 {
        self.segments[segment as usize].valid
    }

    /// Number of invalid (dead) pages in a segment.
    pub fn invalid_pages(&self, segment: u32) -> u32 {
        self.segments[segment as usize].invalid
    }

    /// Number of erased (writable) pages in a segment.
    pub fn erased_pages(&self, segment: u32) -> u32 {
        let seg = &self.segments[segment as usize];
        self.geo.pages_per_segment() - seg.valid - seg.invalid
    }

    /// Live-data fraction of a segment.
    pub fn utilization(&self, segment: u32) -> f64 {
        self.segments[segment as usize].valid as f64 / self.geo.pages_per_segment() as f64
    }

    /// Erase cycles a segment has sustained.
    pub fn erase_cycles(&self, segment: u32) -> u64 {
        self.segments[segment as usize].erase_cycles
    }

    /// The least-worn segment's cycle count.
    pub fn min_erase_cycles(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.erase_cycles)
            .min()
            .unwrap_or(0)
    }

    /// The most-worn segment's cycle count.
    pub fn max_erase_cycles(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.erase_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Total live pages across the array.
    pub fn total_valid_pages(&self) -> u64 {
        self.segments.iter().map(|s| s.valid as u64).sum()
    }

    /// Live-data fraction of the whole array.
    pub fn array_utilization(&self) -> f64 {
        self.total_valid_pages() as f64 / self.geo.total_pages() as f64
    }

    /// The bank a segment lives in.
    pub fn bank_of(&self, segment: u32) -> u32 {
        self.geo.bank_of(segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashArray {
        let geo = FlashGeometry::new(2, 4, 8, 16).unwrap();
        FlashArray::new(geo, FlashTimings::paper(), true)
    }

    #[test]
    fn fresh_array_is_erased() {
        let a = small();
        for s in 0..4 {
            assert_eq!(a.valid_pages(s), 0);
            assert_eq!(a.invalid_pages(s), 0);
            assert_eq!(a.erased_pages(s), 8);
            assert_eq!(a.erase_cycles(s), 0);
        }
        assert_eq!(a.array_utilization(), 0.0);
    }

    #[test]
    fn program_read_roundtrip() {
        let mut a = small();
        let data: Vec<u8> = (0..16).collect();
        let cost = a.program_page(1, 3, PageData::Bytes(&data)).unwrap();
        assert_eq!(cost, Ns::from_micros(4));
        assert_eq!(a.page_state(1, 3), PageState::Valid);
        let mut out = vec![0; 16];
        let rcost = a.read_page(1, 3, Some(&mut out)).unwrap();
        assert_eq!(rcost, Ns::from_nanos(100));
        assert_eq!(out, data);
    }

    #[test]
    fn program_twice_fails() {
        let mut a = small();
        a.program_page(0, 0, PageData::None).unwrap();
        let err = a.program_page(0, 0, PageData::None).unwrap_err();
        assert_eq!(
            err,
            FlashError::ProgramToNonErased {
                segment: 0,
                page: 0
            }
        );
    }

    #[test]
    fn program_invalid_page_fails() {
        let mut a = small();
        a.program_page(0, 0, PageData::None).unwrap();
        a.invalidate_page(0, 0).unwrap();
        assert!(a.program_page(0, 0, PageData::None).is_err());
    }

    #[test]
    fn invalidate_requires_valid() {
        let mut a = small();
        let err = a.invalidate_page(0, 5).unwrap_err();
        assert_eq!(
            err,
            FlashError::InvalidateNonValid {
                segment: 0,
                page: 5
            }
        );
        a.program_page(0, 5, PageData::None).unwrap();
        a.invalidate_page(0, 5).unwrap();
        // Double invalidate also fails.
        assert!(a.invalidate_page(0, 5).is_err());
    }

    #[test]
    fn erase_requires_no_live_data() {
        let mut a = small();
        a.program_page(2, 0, PageData::None).unwrap();
        a.program_page(2, 1, PageData::None).unwrap();
        let err = a.erase_segment(2).unwrap_err();
        assert_eq!(
            err,
            FlashError::EraseWithLiveData {
                segment: 2,
                live_pages: 2
            }
        );
        a.invalidate_page(2, 0).unwrap();
        a.invalidate_page(2, 1).unwrap();
        let cost = a.erase_segment(2).unwrap();
        assert_eq!(cost, Ns::from_millis(50));
        assert_eq!(a.erased_pages(2), 8);
        assert_eq!(a.erase_cycles(2), 1);
    }

    #[test]
    fn erase_resets_data_to_ff() {
        let mut a = small();
        let data = vec![0u8; 16];
        a.program_page(0, 0, PageData::Bytes(&data)).unwrap();
        a.invalidate_page(0, 0).unwrap();
        a.erase_segment(0).unwrap();
        a.program_page(0, 0, PageData::None).unwrap(); // valid, contents unspecified
        let mut out = vec![0; 16];
        a.read_page(0, 0, Some(&mut out)).unwrap();
        assert_eq!(out, vec![0xFF; 16]);
    }

    #[test]
    fn counts_track_state_transitions() {
        let mut a = small();
        a.program_page(3, 0, PageData::None).unwrap();
        a.program_page(3, 1, PageData::None).unwrap();
        a.program_page(3, 2, PageData::None).unwrap();
        a.invalidate_page(3, 1).unwrap();
        assert_eq!(a.valid_pages(3), 2);
        assert_eq!(a.invalid_pages(3), 1);
        assert_eq!(a.erased_pages(3), 5);
        assert!((a.utilization(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = small();
        a.program_page(0, 0, PageData::None).unwrap();
        a.read_page(0, 0, None).unwrap();
        a.invalidate_page(0, 0).unwrap();
        a.erase_segment(0).unwrap();
        assert_eq!(a.stats().page_programs.get(), 1);
        assert_eq!(a.stats().page_reads.get(), 1);
        assert_eq!(a.stats().segment_erases.get(), 1);
        assert_eq!(a.stats().program_time, Ns::from_micros(4));
        assert_eq!(a.stats().erase_time, Ns::from_millis(50));
    }

    #[test]
    fn revalidate_restores_shadow_copy() {
        let mut a = small();
        let data: Vec<u8> = (100..116).collect();
        a.program_page(0, 0, PageData::Bytes(&data)).unwrap();
        a.invalidate_page(0, 0).unwrap();
        a.revalidate_page(0, 0).unwrap();
        assert_eq!(a.page_state(0, 0), PageState::Valid);
        assert_eq!(a.valid_pages(0), 1);
        assert_eq!(a.invalid_pages(0), 0);
        // Data intact: it was never destroyed.
        let mut out = vec![0; 16];
        a.read_page(0, 0, Some(&mut out)).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn revalidate_requires_invalid() {
        let mut a = small();
        assert!(a.revalidate_page(0, 0).is_err()); // erased
        a.program_page(0, 0, PageData::None).unwrap();
        assert!(a.revalidate_page(0, 0).is_err()); // valid
    }

    #[test]
    fn out_of_range_checks() {
        let mut a = small();
        assert!(a.program_page(4, 0, PageData::None).is_err());
        assert!(a.program_page(0, 8, PageData::None).is_err());
        assert!(a.read_page(9, 0, None).is_err());
        assert!(a.erase_segment(11).is_err());
    }

    #[test]
    fn bad_buffer_lengths() {
        let mut a = small();
        let short = vec![0u8; 3];
        assert!(matches!(
            a.program_page(0, 0, PageData::Bytes(&short)),
            Err(FlashError::BadBufferLength {
                expected: 16,
                actual: 3
            })
        ));
        let mut out = vec![0u8; 99];
        assert!(a.read_page(0, 0, Some(&mut out)).is_err());
    }

    #[test]
    fn read_page_into_subrange() {
        let mut a = small();
        let data: Vec<u8> = (0..16).collect();
        a.program_page(1, 2, PageData::Bytes(&data)).unwrap();
        let mut out = [0u8; 5];
        let cost = a.read_page_into(1, 2, 3, &mut out).unwrap();
        assert_eq!(cost, Ns::from_nanos(100));
        assert_eq!(out, [3, 4, 5, 6, 7]);
        assert_eq!(a.stats().page_reads.get(), 1);
        // Range past the page end is rejected.
        let mut long = [0u8; 10];
        assert!(matches!(
            a.read_page_into(1, 2, 8, &mut long),
            Err(FlashError::BadBufferLength {
                expected: 16,
                actual: 18
            })
        ));
        // Stateless arrays fill erased bytes.
        let geo = FlashGeometry::new(1, 1, 4, 8).unwrap();
        let mut s = FlashArray::new(geo, FlashTimings::paper(), false);
        s.program_page(0, 0, PageData::None).unwrap();
        let mut out = [0u8; 4];
        s.read_page_into(0, 0, 2, &mut out).unwrap();
        assert_eq!(out, [0xFF; 4]);
    }

    #[test]
    fn stateless_mode_reads_ff() {
        let geo = FlashGeometry::new(1, 1, 4, 8).unwrap();
        let mut a = FlashArray::new(geo, FlashTimings::paper(), false);
        assert!(!a.stores_data());
        a.program_page(0, 0, PageData::None).unwrap();
        let mut out = vec![0; 8];
        a.read_page(0, 0, Some(&mut out)).unwrap();
        assert_eq!(out, vec![0xFF; 8]);
    }

    #[test]
    fn wear_tracking_across_segments() {
        let mut a = small();
        for _ in 0..3 {
            a.erase_segment(1).unwrap();
        }
        a.erase_segment(2).unwrap();
        assert_eq!(a.erase_cycles(1), 3);
        assert_eq!(a.min_erase_cycles(), 0);
        assert_eq!(a.max_erase_cycles(), 3);
    }

    #[test]
    fn utilization_accounting_whole_array() {
        let mut a = small();
        // 32 pages total; fill 8.
        for p in 0..8 {
            a.program_page(0, p, PageData::None).unwrap();
        }
        assert!((a.array_utilization() - 0.25).abs() < 1e-12);
        assert_eq!(a.total_valid_pages(), 8);
    }

    #[test]
    fn bank_mapping_exposed() {
        let a = small();
        assert_eq!(a.bank_of(0), 0);
        assert_eq!(a.bank_of(1), 0);
        assert_eq!(a.bank_of(2), 1);
        assert_eq!(a.bank_of(3), 1);
    }

    #[test]
    fn wear_degradation_applies_to_array_ops() {
        let geo = FlashGeometry::new(1, 1, 2, 8).unwrap();
        let timings = FlashTimings {
            wear_slowdown: 1.0,
            rated_cycles: 2,
            ..FlashTimings::paper()
        };
        let mut a = FlashArray::new(geo, timings, false);
        a.erase_segment(0).unwrap();
        a.erase_segment(0).unwrap(); // cycles = 2 = rated
        let cost = a.program_page(0, 0, PageData::None).unwrap();
        assert_eq!(cost, Ns::from_micros(8));
    }

    #[test]
    fn injected_program_fault_fires_on_nth_op_and_kills_the_page() {
        let mut a = small();
        a.set_faults(Some(FlashFaults::fail_programs([2])));
        a.program_page(0, 0, PageData::None).unwrap(); // op 1: fine
        let err = a.program_page(0, 1, PageData::None).unwrap_err(); // op 2: fails
        assert_eq!(
            err,
            FlashError::ProgramFailed {
                segment: 0,
                page: 1
            }
        );
        // The failed page is dead until erase; the next page still works.
        assert_eq!(a.page_state(0, 1), PageState::Invalid);
        assert!(a.program_page(0, 1, PageData::None).is_err());
        a.program_page(0, 2, PageData::None).unwrap(); // op 3: schedule exhausted
        assert!(a.faults().unwrap().exhausted());
    }

    #[test]
    fn injected_erase_fault_leaves_segment_unusable_until_retry() {
        let mut a = small();
        a.program_page(1, 0, PageData::None).unwrap();
        a.invalidate_page(1, 0).unwrap();
        a.set_faults(Some(FlashFaults::fail_erases([1])));
        let err = a.erase_segment(1).unwrap_err();
        assert_eq!(err, FlashError::EraseFailed { segment: 1 });
        assert_eq!(a.erased_pages(1), 0);
        assert_eq!(a.erase_cycles(1), 0, "torn pulse does not count");
        // Retry succeeds and fully restores the segment.
        a.erase_segment(1).unwrap();
        assert_eq!(a.erased_pages(1), 8);
    }

    #[test]
    fn disarmed_faults_behave_identically() {
        let mut a = small();
        a.set_faults(Some(FlashFaults::fail_programs([1])));
        a.set_faults(None);
        a.program_page(0, 0, PageData::None).unwrap();
        assert!(a.faults().is_none());
    }

    #[test]
    fn torn_program_writes_prefix_lanes_only() {
        let mut a = small();
        let data = vec![0x00u8; 16];
        a.program_page_torn(0, 0, PageData::Bytes(&data), 5)
            .unwrap();
        assert_eq!(a.page_state(0, 0), PageState::Valid);
        let mut out = vec![0u8; 16];
        a.read_page(0, 0, Some(&mut out)).unwrap();
        // First 5 byte lanes latched; the rest still read erased.
        assert_eq!(&out[..5], &[0x00; 5]);
        assert_eq!(&out[5..], &[0xFF; 11]);
        // Write-once: the torn page cannot be programmed again.
        assert!(a.program_page(0, 0, PageData::Bytes(&data)).is_err());
    }

    /// The arena-sourced programs land the same bytes a caller slice
    /// would: a page of this array, a span of another arena, and a torn
    /// prefix of either.
    #[test]
    fn programs_from_a_page_and_from_a_span() {
        let mut a = small();
        let data: Vec<u8> = (1..=16).collect();
        a.program_page(0, 0, PageData::Bytes(&data)).unwrap();
        let src = PageData::Page {
            segment: 0,
            page: 0,
        };
        a.program_page(1, 3, src).unwrap();
        a.program_page_torn(1, 4, src, 5).unwrap();

        let frames = SharedArena::new(64, 0xAA);
        let reads = a.stats().page_reads.get();
        let lent = a.read_page_span(1, 3).unwrap().expect("payload stored");
        let mut frame = SharedArena::new(16, 0);
        frame.copy_from(0, lent);
        assert_eq!(a.stats().page_reads.get(), reads + 1, "a span read counts");
        a.program_page(2, 0, PageData::Span(frames.span(16, 16)))
            .unwrap();
        a.program_page(2, 1, PageData::Span(frame.span(0, 16)))
            .unwrap();

        let mut page = |segment, page| {
            let mut out = vec![0u8; 16];
            a.read_page(segment, page, Some(&mut out)).unwrap();
            out
        };
        assert_eq!(page(1, 3), data);
        assert_eq!(page(1, 4), [&data[..5], &[0xFF; 11]].concat());
        assert_eq!(page(2, 0), [0xAA; 16]);
        assert_eq!(page(2, 1), data);
    }

    #[test]
    fn arena_sources_are_validated() {
        let mut a = small();
        let frames = SharedArena::new(64, 0);
        assert!(matches!(
            a.program_page(0, 0, PageData::Span(frames.span(0, 15))),
            Err(FlashError::BadBufferLength {
                expected: 16,
                actual: 15
            })
        ));
        for (segment, page) in [(4, 0), (0, 8)] {
            assert!(matches!(
                a.program_page(0, 0, PageData::Page { segment, page }),
                Err(FlashError::OutOfRange { .. })
            ));
        }
        assert!(a.read_page_span(4, 0).is_err());
        // Nothing above programmed the page.
        assert_eq!(a.page_state(0, 0), PageState::Erased);
        // A stateless array lends nothing and ignores a page source.
        let geo = FlashGeometry::new(2, 4, 8, 16).unwrap();
        let mut s = FlashArray::new(geo, FlashTimings::paper(), false);
        assert!(s.read_page_span(0, 0).unwrap().is_none());
        let src = PageData::Page {
            segment: 0,
            page: 0,
        };
        s.program_page(1, 0, src).unwrap();
    }

    #[test]
    fn torn_erase_requires_reissue() {
        let mut a = small();
        a.program_page(2, 0, PageData::None).unwrap();
        a.invalidate_page(2, 0).unwrap();
        a.erase_segment_torn(2).unwrap();
        assert_eq!(a.erased_pages(2), 0);
        assert_eq!(a.invalid_pages(2), 8);
        assert_eq!(a.erase_cycles(2), 0);
        a.erase_segment(2).unwrap();
        assert_eq!(a.erased_pages(2), 8);
        // A torn erase refuses segments with live data, like a real one.
        a.program_page(3, 0, PageData::None).unwrap();
        assert!(a.erase_segment_torn(3).is_err());
    }
}
