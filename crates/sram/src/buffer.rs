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
//! The buffer is addressed by frame, not by logical page: the page table
//! is the one map from a logical page to where it lives, Flash page or
//! SRAM frame, as in the paper's controller. The buffer keeps no
//! logical-page index of its own, so it costs host memory per frame, not
//! per logical page, and an SRAM hit is one page-table load.

use envy_sync::ByteArena;

/// Metadata for a page held in the SRAM write buffer. Payload bytes (when
/// stored) live in the buffer's frame arena, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferedPage {
    /// Logical page number.
    pub logical: u64,
    /// Origin segment (or partition, under the hybrid policy) recorded at
    /// copy-on-write time; `None` for pages that never lived in Flash.
    pub origin: Option<u32>,
}

/// An insert was refused because every frame is occupied — the caller
/// must flush first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferFull;

impl std::fmt::Display for BufferFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "write buffer is full")
    }
}

impl std::error::Error for BufferFull {}

/// FIFO write buffer of page frames.
///
/// Frames are stored in a fixed slab so that a buffered page's contents
/// can be updated in place (that is the buffer's purpose) while FIFO order
/// is tracked separately. Steady-state copy-on-write/flush cycles never
/// allocate: frames are recycled by index.
///
/// Every frame-taking method expects an occupied frame, one that
/// [`WriteBuffer::insert_frame`] returned and nothing has removed since:
/// the caller (the page table) knows which frame holds which page.
///
/// # Example
///
/// ```
/// use envy_sram::WriteBuffer;
///
/// let mut buf = WriteBuffer::new(2, 16, false);
/// let frame = buf.insert_frame(7, Some(3)).unwrap();
/// buf.insert_frame(9, None).unwrap();
/// assert!(buf.is_full());
/// assert_eq!(buf.get(frame).unwrap().logical, 7);
/// let oldest = buf.pop_tail().unwrap();
/// assert_eq!(oldest.logical, 7); // FIFO: first in, first out
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    page_bytes: usize,
    len: usize,
    frames: Vec<Option<BufferedPage>>,
    free: Vec<u32>,
    fifo: std::collections::VecDeque<u32>,
    /// Page payload slab: frame `f` occupies bytes
    /// `f * page_bytes .. (f + 1) * page_bytes`. `None` when payload
    /// storage is disabled (residency-only mode).
    payload: Option<ByteArena>,
}

impl WriteBuffer {
    /// Create a buffer of `capacity` page frames of `page_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `page_bytes` is zero, or if `capacity`
    /// overflows the `u32` frame number.
    pub fn new(capacity: usize, page_bytes: usize, store_data: bool) -> WriteBuffer {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        assert!(page_bytes > 0, "page size must be non-zero");
        assert!(
            capacity <= u32::MAX as usize,
            "buffer capacity overflows the frame number"
        );
        WriteBuffer {
            capacity,
            page_bytes,
            len: 0,
            frames: (0..capacity).map(|_| None).collect(),
            free: (0..capacity as u32).rev().collect(),
            fifo: std::collections::VecDeque::with_capacity(capacity),
            payload: store_data.then(|| ByteArena::new(capacity * page_bytes, 0xFF)),
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
        self.payload.is_some()
    }

    #[inline]
    fn frame_offset(&self, frame: u32) -> usize {
        debug_assert!(
            self.frames[frame as usize].is_some(),
            "frame {frame} is not occupied"
        );
        frame as usize * self.page_bytes
    }

    /// Insert a page at the FIFO head and return the frame that holds it.
    ///
    /// The frame's contents are **unspecified** — the caller fills the
    /// whole page through [`WriteBuffer::frame_mut`] (the Flash original
    /// of a copy-on-write, or erased bytes) before relying on any byte.
    /// The caller also guarantees the page is not buffered already:
    /// re-writes go through [`WriteBuffer::write`], not a second insert.
    ///
    /// # Errors
    ///
    /// [`BufferFull`] if every frame is occupied.
    pub fn insert_frame(&mut self, logical: u64, origin: Option<u32>) -> Result<u32, BufferFull> {
        let frame = self.free.pop().ok_or(BufferFull)?;
        self.frames[frame as usize] = Some(BufferedPage { logical, origin });
        self.fifo.push_back(frame);
        self.len += 1;
        Ok(frame)
    }

    /// An occupied frame's whole page, writable. `None` when payload
    /// storage is disabled.
    pub fn frame_mut(&mut self, frame: u32) -> Option<&mut [u8]> {
        let (offset, page_bytes) = (self.frame_offset(frame), self.page_bytes);
        self.payload
            .as_mut()
            .map(|arena| arena.span_mut(offset, page_bytes))
    }

    /// An occupied frame's whole page as the source of a copy (the flush
    /// into Flash). `None` when payload storage is disabled.
    pub fn frame_span(&self, frame: u32) -> Option<&[u8]> {
        let offset = self.frame_offset(frame);
        self.payload
            .as_ref()
            .map(|arena| arena.span(offset, self.page_bytes))
    }

    /// Write bytes into an occupied frame. With payload storage disabled
    /// this does nothing.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds the page size.
    pub fn write(&mut self, frame: u32, offset: usize, bytes: &[u8]) {
        assert!(
            offset + bytes.len() <= self.page_bytes,
            "write exceeds page bounds"
        );
        let base = self.frame_offset(frame);
        if let Some(arena) = &mut self.payload {
            arena.write_bytes(base + offset, bytes);
        }
    }

    /// Read bytes from an occupied frame. Returns `true` if `buf` was
    /// filled, `false` if the buffer tracks residency only (payload
    /// storage disabled — the caller substitutes erased bytes).
    ///
    /// # Panics
    ///
    /// Panics if `offset + buf.len()` exceeds the page size.
    #[inline]
    pub fn read_into(&self, frame: u32, offset: usize, buf: &mut [u8]) -> bool {
        assert!(
            offset + buf.len() <= self.page_bytes,
            "read exceeds page bounds"
        );
        let base = self.frame_offset(frame);
        match &self.payload {
            Some(arena) => {
                arena.read_bytes(base + offset, buf);
                true
            }
            None => false,
        }
    }

    /// The page a frame holds, if it is occupied.
    pub fn get(&self, frame: u32) -> Option<&BufferedPage> {
        self.frames.get(frame as usize)?.as_ref()
    }

    /// The oldest page (next flush candidate) and its frame, without
    /// removing it.
    pub fn peek_tail(&self) -> Option<(u32, &BufferedPage)> {
        let &frame = self.fifo.front()?;
        self.frames[frame as usize]
            .as_ref()
            .map(|page| (frame, page))
    }

    /// Remove and return the oldest page.
    pub fn pop_tail(&mut self) -> Option<BufferedPage> {
        let frame = self.fifo.pop_front()?;
        let page = self.frames[frame as usize]
            .take()
            .expect("fifo tracks live frames");
        self.free.push(frame);
        self.len -= 1;
        Some(page)
    }

    /// Remove the page a frame holds, out of FIFO order (a rolled-back or
    /// stale page). `None` if the frame is not occupied.
    pub fn remove(&mut self, frame: u32) -> Option<BufferedPage> {
        let page = self.frames.get_mut(frame as usize)?.take()?;
        self.fifo.retain(|&f| f != frame);
        self.free.push(frame);
        self.len -= 1;
        Some(page)
    }

    /// Iterate over buffered pages and their frames in FIFO order (oldest
    /// first).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &BufferedPage)> {
        self.fifo.iter().filter_map(move |&frame| {
            self.frames[frame as usize]
                .as_ref()
                .map(|page| (frame, page))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Insert a page and seed its frame (erased when `initial` is `None`).
    fn insert(b: &mut WriteBuffer, logical: u64, initial: Option<&[u8]>) -> u32 {
        let frame = b.insert_frame(logical, None).unwrap();
        if let Some(page) = b.frame_mut(frame) {
            match initial {
                Some(initial) => page.copy_from_slice(initial),
                None => page.fill(0xFF),
            }
        }
        frame
    }

    #[test]
    fn fifo_order_is_insertion_order() {
        let mut b = WriteBuffer::new(4, 8, false);
        for lp in [10, 20, 30] {
            insert(&mut b, lp, None);
        }
        assert_eq!(b.pop_tail().unwrap().logical, 10);
        assert_eq!(b.pop_tail().unwrap().logical, 20);
        assert_eq!(b.pop_tail().unwrap().logical, 30);
        assert_eq!(b.pop_tail(), None);
    }

    #[test]
    fn rewrite_does_not_change_fifo_position() {
        let mut b = WriteBuffer::new(4, 8, true);
        let first = insert(&mut b, 1, None);
        insert(&mut b, 2, None);
        b.write(first, 0, &[42]); // rewrite of oldest page
        let (tail, page) = b.peek_tail().unwrap();
        assert_eq!((tail, page.logical), (first, 1));
    }

    #[test]
    fn insert_full_fails() {
        let mut b = WriteBuffer::new(2, 8, false);
        insert(&mut b, 1, None);
        insert(&mut b, 2, None);
        assert!(b.is_full());
        assert_eq!(b.insert_frame(3, None), Err(BufferFull));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn data_roundtrip_with_seed() {
        let mut b = WriteBuffer::new(2, 4, true);
        let frame = b.insert_frame(5, Some(9)).unwrap();
        b.frame_mut(frame).unwrap().copy_from_slice(&[1, 2, 3, 4]);
        b.write(frame, 1, &[9, 9]);
        let mut out = [0; 4];
        assert!(b.read_into(frame, 0, &mut out));
        assert_eq!(out, [1, 9, 9, 4]);
        let page = b.get(frame).unwrap();
        assert_eq!(page.logical, 5);
        assert_eq!(page.origin, Some(9));
    }

    #[test]
    fn insert_frame_exposes_writable_frame() {
        let mut b = WriteBuffer::new(2, 4, true);
        let frame = b.insert_frame(3, Some(1)).unwrap();
        b.frame_mut(frame).unwrap().copy_from_slice(&[7, 8, 9, 10]);
        let mut out = [0; 4];
        assert!(b.read_into(frame, 0, &mut out));
        assert_eq!(out, [7, 8, 9, 10]);
        assert_eq!(b.get(frame).unwrap().origin, Some(1));
    }

    #[test]
    fn insert_frame_stateless_returns_no_frame() {
        let mut b = WriteBuffer::new(2, 4, false);
        let frame = b.insert_frame(3, None).unwrap();
        assert!(b.frame_mut(frame).is_none());
        assert_eq!(b.frame_span(frame), None);
        assert_eq!(b.get(frame).unwrap().logical, 3);
    }

    #[test]
    fn insert_seeds_erased_bytes_over_reused_frames() {
        // A reused frame holds stale contents; an insert seeded erased
        // must still read back erased.
        let mut b = WriteBuffer::new(1, 4, true);
        insert(&mut b, 1, Some(&[1, 2, 3, 4]));
        b.pop_tail().unwrap();
        let frame = insert(&mut b, 2, None);
        let mut out = [0; 4];
        assert!(b.read_into(frame, 0, &mut out));
        assert_eq!(out, [0xFF; 4]);
    }

    #[test]
    fn read_into_reports_payload_presence() {
        let mut b = WriteBuffer::new(2, 4, false);
        let frame = insert(&mut b, 1, None);
        let mut out = [0xAB; 2];
        // Residency-only mode: buffered, but no payload was copied.
        assert!(!b.read_into(frame, 0, &mut out));
        assert_eq!(out, [0xAB; 2]);
    }

    #[test]
    fn remove_out_of_order_keeps_fifo_consistent() {
        let mut b = WriteBuffer::new(4, 8, false);
        let frames: Vec<u32> = [1, 2, 3]
            .iter()
            .map(|&lp| insert(&mut b, lp, None))
            .collect();
        let removed = b.remove(frames[1]).unwrap();
        assert_eq!(removed.logical, 2);
        assert_eq!(b.remove(frames[1]), None);
        assert_eq!(b.get(frames[1]), None);
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop_tail().unwrap().logical, 1);
        assert_eq!(b.pop_tail().unwrap().logical, 3);
        // The frame can be reused.
        let again = insert(&mut b, 9, None);
        assert_eq!(b.get(again).unwrap().logical, 9);
    }

    #[test]
    fn slots_recycle_under_churn() {
        let mut b = WriteBuffer::new(3, 8, true);
        for round in 0..100u64 {
            let frame = insert(&mut b, round, None);
            assert!(frame < 3);
            if b.is_full() {
                b.pop_tail();
            }
        }
        assert!(b.len() <= 3);
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut b = WriteBuffer::new(4, 8, false);
        let frames: Vec<u32> = [5, 6, 7]
            .iter()
            .map(|&lp| insert(&mut b, lp, None))
            .collect();
        let order: Vec<(u32, u64)> = b.iter().map(|(f, p)| (f, p.logical)).collect();
        assert_eq!(order, vec![(frames[0], 5), (frames[1], 6), (frames[2], 7)]);
    }

    #[test]
    #[should_panic(expected = "exceeds page bounds")]
    fn write_past_page_end_panics() {
        let mut b = WriteBuffer::new(1, 4, true);
        let frame = insert(&mut b, 1, None);
        b.write(frame, 3, &[0, 0]);
    }

    #[test]
    fn stateless_mode_tracks_residency_only() {
        let mut b = WriteBuffer::new(2, 8, false);
        assert!(!b.stores_data());
        let frame = b.insert_frame(1, Some(0)).unwrap();
        b.write(frame, 0, &[1, 2]);
        let mut out = [0u8; 2];
        assert!(!b.read_into(frame, 0, &mut out));
        assert_eq!(b.get(frame).unwrap().origin, Some(0));
    }

    #[test]
    fn out_of_space_pages_are_never_buffered() {
        let mut b = WriteBuffer::new(2, 8, false);
        insert(&mut b, 1, None);
        // Frames beyond the capacity are cheap misses, not panics.
        assert_eq!(b.get(2), None);
        assert_eq!(b.get(u32::MAX), None);
        assert_eq!(b.remove(u32::MAX), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn frame_span_tracks_writer_state() {
        let mut b = WriteBuffer::new(2, 4, true);
        let frame = insert(&mut b, 5, Some(&[1, 2, 3, 4]));
        assert_eq!(b.frame_span(frame), Some(&[1, 2, 3, 4][..]));
        b.write(frame, 2, &[9]);
        assert_eq!(b.frame_span(frame), Some(&[1, 2, 9, 4][..]));
    }
}
