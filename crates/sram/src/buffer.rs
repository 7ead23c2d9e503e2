//! The FIFO write buffer (§3.2).
//!
//! "The SRAM is managed as a FIFO write buffer. New pages are inserted at
//! the head and pages are flushed from the tail. … The ability to retain
//! pages in SRAM for some time helps to reduce traffic to the Flash array
//! since multiple writes to the same page do not require additional
//! copy-on-write operations."
//!
//! Each buffered page records its *origin* — the Flash segment (or
//! partition) it was copied from — because the locality-gathering cleaner
//! flushes pages back to where they came from (§4.3: "When a page is
//! placed into the SRAM buffer, we record which segment it comes from.
//! When it is flushed, it is written back to the same segment.").
//!
//! The logical-page → frame index is a direct-map array over the bounded
//! logical page space rather than a hash map: every host access probes
//! the buffer, and at 4 bytes per logical page the index costs less SRAM
//! than the page table's 6 bytes per mapping while making the probe a
//! single array load.
//!
//! Both the index and the page frames are published to concurrent readers
//! (see `envy_sync`): index entries are single atomic `u32` words and the
//! frames live in a fixed atomic arena, so a reader validating against the
//! store's epoch can copy a buffered page lock-free while the single
//! writer mutates behind it.

use envy_sync::{ArenaSpan, ArenaView, SharedArena, SharedSlots, SlotsView};

/// Metadata for a page held in the SRAM write buffer. Payload bytes (when
/// stored) live in the buffer's shared frame arena, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferedPage {
    /// Logical page number.
    pub logical: u64,
    /// Origin segment (or partition, under the hybrid policy) recorded at
    /// copy-on-write time; `None` for pages that never lived in Flash.
    pub origin: Option<u32>,
}

/// Why an insert was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// Every frame is occupied — the caller must flush first.
    BufferFull,
    /// The page is already buffered — re-writes go through
    /// [`WriteBuffer::write`], not a second insert.
    AlreadyBuffered,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::BufferFull => write!(f, "write buffer is full"),
            InsertError::AlreadyBuffered => write!(f, "page is already buffered"),
        }
    }
}

impl std::error::Error for InsertError {}

/// Direct-map index encoding: `0` = not buffered, else `slot + 1`. The
/// zero sentinel keeps "not buffered" the all-zeroes state, so a reader
/// racing an insert can only ever observe empty or a fully-formed entry.
const IDX_EMPTY: u32 = 0;

/// Exclusive access to one page frame claimed by
/// [`WriteBuffer::insert_frame`].
///
/// The frame's contents are **unspecified** on claim — the caller must
/// overwrite the whole page or [`FrameMut::fill`] it before relying on any
/// byte.
#[derive(Debug)]
pub struct FrameMut<'a> {
    arena: &'a mut SharedArena,
    base: usize,
    len: usize,
}

impl FrameMut<'_> {
    /// Frame length in bytes (the page size).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frame has zero bytes (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set every byte of the frame to `value`.
    pub fn fill(&mut self, value: u8) {
        self.arena.fill(self.base, self.len, value);
    }

    /// Overwrite the whole frame. `src` must be page-sized.
    pub fn copy_from_slice(&mut self, src: &[u8]) {
        assert_eq!(src.len(), self.len, "frame copy must be page-sized");
        self.arena.write_bytes(self.base, src);
    }

    /// Overwrite the whole frame from a page-sized span of another arena
    /// (the Flash original of a copy-on-write), arena to arena.
    pub fn copy_from_span(&mut self, src: ArenaSpan<'_>) {
        assert_eq!(src.len(), self.len, "frame copy must be page-sized");
        self.arena.copy_from(self.base, src);
    }

    /// Write `bytes` at `offset` within the frame.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        assert!(
            offset + bytes.len() <= self.len,
            "frame write exceeds page bounds"
        );
        self.arena.write_bytes(self.base + offset, bytes);
    }
}

/// FIFO write buffer of page frames.
///
/// Frames are stored in a fixed slab so that a buffered page's contents
/// can be updated in place (that is the buffer's purpose) while FIFO order
/// is tracked separately. Steady-state copy-on-write/flush cycles never
/// allocate: slots and frames are recycled by index.
///
/// # Example
///
/// ```
/// use envy_sram::WriteBuffer;
///
/// let mut buf = WriteBuffer::new(2, 16, 64, false);
/// buf.insert(7, Some(3), None).unwrap();
/// buf.insert(9, None, None).unwrap();
/// assert!(buf.is_full());
/// let oldest = buf.pop_tail().unwrap();
/// assert_eq!(oldest.logical, 7); // FIFO: first in, first out
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    page_bytes: usize,
    len: usize,
    slots: Vec<Option<BufferedPage>>,
    free: Vec<usize>,
    fifo: std::collections::VecDeque<usize>,
    /// `index[logical] = slot + 1`, [`IDX_EMPTY`] when not buffered.
    /// Atomic words shared with concurrent readers.
    index: SharedSlots,
    /// Page frame slab: slot `s` occupies bytes
    /// `s * page_bytes .. (s + 1) * page_bytes`. `None` when payload
    /// storage is disabled (residency-only mode).
    frames: Option<SharedArena>,
}

impl WriteBuffer {
    /// Create a buffer of `capacity` page frames of `page_bytes` each,
    /// indexing the logical page space `0..logical_pages`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `page_bytes` is zero, or if `capacity`
    /// overflows the slot index width.
    pub fn new(
        capacity: usize,
        page_bytes: usize,
        logical_pages: u64,
        store_data: bool,
    ) -> WriteBuffer {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        assert!(page_bytes > 0, "page size must be non-zero");
        assert!(
            capacity < u32::MAX as usize,
            "buffer capacity overflows the slot index"
        );
        WriteBuffer {
            capacity,
            page_bytes,
            len: 0,
            slots: (0..capacity).map(|_| None).collect(),
            free: (0..capacity).rev().collect(),
            fifo: std::collections::VecDeque::with_capacity(capacity),
            index: SharedSlots::new(logical_pages as usize, IDX_EMPTY),
            frames: store_data.then(|| SharedArena::new(capacity * page_bytes, 0xFF)),
        }
    }

    /// Number of buffered pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every frame is occupied.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Whether page payloads are stored (vs. residency-only tracking).
    pub fn stores_data(&self) -> bool {
        self.frames.is_some()
    }

    /// Reader handle to the direct-map index (`slot + 1` encoding), for
    /// lock-free concurrent probes validated by an external epoch.
    pub fn reader_index(&self) -> SlotsView {
        self.index.view()
    }

    /// Reader handle to the frame slab, if payload storage is enabled.
    pub fn reader_frames(&self) -> Option<ArenaView> {
        self.frames.as_ref().map(SharedArena::view)
    }

    /// The occupied slot holding a logical page, if buffered. Pages
    /// outside the indexed logical space are never buffered.
    #[inline]
    fn slot_of(&self, logical: u64) -> Option<usize> {
        if (logical as usize) < self.index.len() {
            match self.index.get(logical as usize) {
                IDX_EMPTY => None,
                entry => Some(entry as usize - 1),
            }
        } else {
            None
        }
    }

    /// Whether a logical page is buffered.
    #[inline]
    pub fn contains(&self, logical: u64) -> bool {
        self.slot_of(logical).is_some()
    }

    /// Insert a page at the FIFO head and expose its frame.
    ///
    /// This is the combined insert-and-fill entry point for the
    /// copy-on-write path: one index probe claims the frame, and the
    /// caller writes the Flash original plus the host bytes straight into
    /// the returned frame. The frame's contents are **unspecified** — the
    /// caller must overwrite the whole page or [`FrameMut::fill`] it.
    /// Returns `Ok(None)` when payload storage is disabled.
    ///
    /// # Errors
    ///
    /// [`InsertError::BufferFull`] or [`InsertError::AlreadyBuffered`].
    ///
    /// # Panics
    ///
    /// Panics if `logical` is outside the indexed logical page space.
    pub fn insert_frame(
        &mut self,
        logical: u64,
        origin: Option<u32>,
    ) -> Result<Option<FrameMut<'_>>, InsertError> {
        assert!(
            (logical as usize) < self.index.len(),
            "logical page within the indexed space"
        );
        if self.index.get(logical as usize) != IDX_EMPTY {
            return Err(InsertError::AlreadyBuffered);
        }
        if self.len == self.capacity {
            return Err(InsertError::BufferFull);
        }
        let slot = self.free.pop().expect("free list tracks occupancy");
        self.slots[slot] = Some(BufferedPage { logical, origin });
        self.fifo.push_back(slot);
        self.len += 1;
        self.index.set(logical as usize, slot as u32 + 1);
        Ok(self.frames.as_mut().map(|arena| FrameMut {
            arena,
            base: slot * self.page_bytes,
            len: self.page_bytes,
        }))
    }

    /// Insert a page at the FIFO head.
    ///
    /// `initial` seeds the frame contents (the Flash copy made by
    /// copy-on-write); `None` seeds erased (0xFF) bytes. Ignored when
    /// payload storage is disabled.
    ///
    /// # Errors
    ///
    /// [`InsertError::BufferFull`] if the buffer is full — the caller
    /// must flush first — or [`InsertError::AlreadyBuffered`] (re-writes
    /// go through [`WriteBuffer::write`], not a second insert).
    pub fn insert(
        &mut self,
        logical: u64,
        origin: Option<u32>,
        initial: Option<&[u8]>,
    ) -> Result<(), InsertError> {
        if let Some(mut frame) = self.insert_frame(logical, origin)? {
            match initial {
                Some(initial) => frame.copy_from_slice(initial),
                None => frame.fill(0xFF),
            }
        }
        Ok(())
    }

    /// Write bytes into a buffered page.
    ///
    /// Returns `false` if the page is not buffered. With payload storage
    /// disabled this only confirms residency.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds the page size.
    pub fn write(&mut self, logical: u64, offset: usize, bytes: &[u8]) -> bool {
        assert!(
            offset + bytes.len() <= self.page_bytes,
            "write exceeds page bounds"
        );
        let Some(slot) = self.slot_of(logical) else {
            return false;
        };
        if let Some(arena) = &mut self.frames {
            arena.write_bytes(slot * self.page_bytes + offset, bytes);
        }
        true
    }

    /// Read bytes from a buffered page.
    ///
    /// Returns `false` if the page is not buffered.
    ///
    /// # Panics
    ///
    /// Panics if `offset + buf.len()` exceeds the page size.
    pub fn read(&self, logical: u64, offset: usize, buf: &mut [u8]) -> bool {
        self.read_into(logical, offset, buf).is_some()
    }

    /// Read bytes from a buffered page, reporting in one probe both
    /// residency and whether payload bytes were copied.
    ///
    /// Returns `None` if the page is not buffered, `Some(true)` if `buf`
    /// was filled from the frame, and `Some(false)` if the buffer tracks
    /// residency only (payload storage disabled — the caller substitutes
    /// erased bytes).
    ///
    /// # Panics
    ///
    /// Panics if `offset + buf.len()` exceeds the page size.
    pub fn read_into(&self, logical: u64, offset: usize, buf: &mut [u8]) -> Option<bool> {
        assert!(
            offset + buf.len() <= self.page_bytes,
            "read exceeds page bounds"
        );
        let slot = self.slot_of(logical)?;
        match &self.frames {
            Some(arena) => {
                arena.read_bytes(slot * self.page_bytes + offset, buf);
                Some(true)
            }
            None => Some(false),
        }
    }

    /// A buffered page's whole frame as the source of an arena-to-arena
    /// copy (the flush into Flash). `None` if the page is not buffered or
    /// payload storage is disabled.
    pub fn frame_span(&self, logical: u64) -> Option<ArenaSpan<'_>> {
        // Payload presence first: a residency-only buffer answers
        // without probing the index.
        let arena = self.frames.as_ref()?;
        let slot = self.slot_of(logical)?;
        Some(arena.span(slot * self.page_bytes, self.page_bytes))
    }

    /// Borrow a buffered page's metadata.
    pub fn get(&self, logical: u64) -> Option<&BufferedPage> {
        self.slot_of(logical)
            .and_then(|slot| self.slots[slot].as_ref())
    }

    /// The oldest page (next flush candidate) without removing it.
    pub fn peek_tail(&self) -> Option<&BufferedPage> {
        self.fifo
            .front()
            .and_then(|&slot| self.slots[slot].as_ref())
    }

    /// Remove and return the oldest page.
    pub fn pop_tail(&mut self) -> Option<BufferedPage> {
        let slot = self.fifo.pop_front()?;
        let page = self.slots[slot].take().expect("fifo tracks live slots");
        self.index.set(page.logical as usize, IDX_EMPTY);
        self.free.push(slot);
        self.len -= 1;
        Some(page)
    }

    /// Remove a specific page (used when a cleaned/rolled-back page must
    /// leave the buffer out of FIFO order).
    pub fn remove(&mut self, logical: u64) -> Option<BufferedPage> {
        let slot = self.slot_of(logical)?;
        let page = self.slots[slot].take().expect("index tracks live slots");
        self.index.set(logical as usize, IDX_EMPTY);
        self.fifo.retain(|&s| s != slot);
        self.free.push(slot);
        self.len -= 1;
        Some(page)
    }

    /// Iterate over buffered pages in FIFO order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &BufferedPage> {
        self.fifo
            .iter()
            .filter_map(move |&slot| self.slots[slot].as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_insertion_order() {
        let mut b = WriteBuffer::new(4, 8, 64, false);
        for lp in [10, 20, 30] {
            b.insert(lp, None, None).unwrap();
        }
        assert_eq!(b.pop_tail().unwrap().logical, 10);
        assert_eq!(b.pop_tail().unwrap().logical, 20);
        assert_eq!(b.pop_tail().unwrap().logical, 30);
        assert_eq!(b.pop_tail(), None);
    }

    #[test]
    fn rewrite_does_not_change_fifo_position() {
        let mut b = WriteBuffer::new(4, 8, 64, true);
        b.insert(1, None, None).unwrap();
        b.insert(2, None, None).unwrap();
        assert!(b.write(1, 0, &[42])); // rewrite of oldest page
        assert_eq!(b.peek_tail().unwrap().logical, 1);
    }

    #[test]
    fn insert_full_fails() {
        let mut b = WriteBuffer::new(2, 8, 64, false);
        b.insert(1, None, None).unwrap();
        b.insert(2, None, None).unwrap();
        assert!(b.is_full());
        assert_eq!(b.insert(3, None, None), Err(InsertError::BufferFull));
    }

    #[test]
    fn duplicate_insert_fails() {
        let mut b = WriteBuffer::new(4, 8, 64, false);
        b.insert(1, None, None).unwrap();
        assert_eq!(b.insert(1, None, None), Err(InsertError::AlreadyBuffered));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn duplicate_insert_reported_even_when_full() {
        // AlreadyBuffered takes precedence over BufferFull: a re-write of
        // a buffered page must never look like a capacity problem.
        let mut b = WriteBuffer::new(2, 8, 64, false);
        b.insert(1, None, None).unwrap();
        b.insert(2, None, None).unwrap();
        assert_eq!(b.insert(1, None, None), Err(InsertError::AlreadyBuffered));
    }

    #[test]
    fn data_roundtrip_with_seed() {
        let mut b = WriteBuffer::new(2, 4, 64, true);
        b.insert(5, Some(9), Some(&[1, 2, 3, 4])).unwrap();
        b.write(5, 1, &[9, 9]);
        let mut out = [0; 4];
        assert!(b.read(5, 0, &mut out));
        assert_eq!(out, [1, 9, 9, 4]);
        let page = b.get(5).unwrap();
        assert_eq!(page.origin, Some(9));
    }

    #[test]
    fn insert_frame_exposes_writable_frame() {
        let mut b = WriteBuffer::new(2, 4, 64, true);
        let mut frame = b.insert_frame(3, Some(1)).unwrap().unwrap();
        frame.copy_from_slice(&[7, 8, 9, 10]);
        let mut out = [0; 4];
        assert_eq!(b.read_into(3, 0, &mut out), Some(true));
        assert_eq!(out, [7, 8, 9, 10]);
        assert_eq!(b.get(3).unwrap().origin, Some(1));
    }

    #[test]
    fn insert_frame_stateless_returns_no_frame() {
        let mut b = WriteBuffer::new(2, 4, 64, false);
        assert!(b.insert_frame(3, None).unwrap().is_none());
        assert!(b.contains(3));
    }

    #[test]
    fn insert_seeds_erased_bytes_over_reused_frames() {
        // A reused frame slot holds stale contents; an insert with no
        // seed must still read back erased.
        let mut b = WriteBuffer::new(1, 4, 64, true);
        b.insert(1, None, Some(&[1, 2, 3, 4])).unwrap();
        b.pop_tail().unwrap();
        b.insert(2, None, None).unwrap();
        let mut out = [0; 4];
        assert_eq!(b.read_into(2, 0, &mut out), Some(true));
        assert_eq!(out, [0xFF; 4]);
    }

    #[test]
    fn read_write_missing_page() {
        let mut b = WriteBuffer::new(2, 4, 64, true);
        assert!(!b.write(7, 0, &[0]));
        let mut out = [0; 1];
        assert!(!b.read(7, 0, &mut out));
        assert_eq!(b.read_into(7, 0, &mut out), None);
    }

    #[test]
    fn read_into_reports_payload_presence() {
        let mut b = WriteBuffer::new(2, 4, 64, false);
        b.insert(1, None, None).unwrap();
        let mut out = [0xAB; 2];
        // Residency-only mode: buffered, but no payload was copied.
        assert_eq!(b.read_into(1, 0, &mut out), Some(false));
        assert_eq!(out, [0xAB; 2]);
    }

    #[test]
    fn remove_out_of_order_keeps_fifo_consistent() {
        let mut b = WriteBuffer::new(4, 8, 64, false);
        for lp in [1, 2, 3] {
            b.insert(lp, None, None).unwrap();
        }
        let removed = b.remove(2).unwrap();
        assert_eq!(removed.logical, 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop_tail().unwrap().logical, 1);
        assert_eq!(b.pop_tail().unwrap().logical, 3);
        // Slot can be reused.
        b.insert(9, None, None).unwrap();
        assert!(b.contains(9));
    }

    #[test]
    fn slots_recycle_under_churn() {
        let mut b = WriteBuffer::new(3, 8, 256, true);
        for round in 0..100u64 {
            b.insert(round, None, None).unwrap();
            if b.is_full() {
                b.pop_tail();
            }
        }
        assert!(b.len() <= 3);
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut b = WriteBuffer::new(4, 8, 64, false);
        for lp in [5, 6, 7] {
            b.insert(lp, None, None).unwrap();
        }
        let order: Vec<u64> = b.iter().map(|p| p.logical).collect();
        assert_eq!(order, vec![5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "exceeds page bounds")]
    fn write_past_page_end_panics() {
        let mut b = WriteBuffer::new(1, 4, 64, true);
        b.insert(1, None, None).unwrap();
        b.write(1, 3, &[0, 0]);
    }

    #[test]
    fn stateless_mode_tracks_residency_only() {
        let mut b = WriteBuffer::new(2, 8, 64, false);
        assert!(!b.stores_data());
        b.insert(1, Some(0), None).unwrap();
        assert!(b.write(1, 0, &[1, 2]));
        let mut out = [0u8; 2];
        assert_eq!(b.read_into(1, 0, &mut out), Some(false));
    }

    #[test]
    fn out_of_space_pages_are_never_buffered() {
        let b = WriteBuffer::new(2, 8, 64, false);
        // Probes beyond the indexed logical space are cheap misses, not
        // panics (the engine bounds-checks before inserting).
        assert!(!b.contains(64));
        assert!(!b.contains(u64::MAX));
    }

    #[test]
    fn reader_handles_track_writer_state() {
        let mut b = WriteBuffer::new(2, 4, 64, true);
        let idx = b.reader_index();
        let frames = b.reader_frames().unwrap();
        b.insert(5, None, Some(&[1, 2, 3, 4])).unwrap();
        let slot = idx.get(5) as usize - 1;
        let mut out = [0u8; 4];
        frames.read_bytes(slot * 4, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        b.pop_tail().unwrap();
        assert_eq!(idx.get(5), 0);
    }
}
