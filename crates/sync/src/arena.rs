//! Byte-addressed arena over `AtomicU64` words.
//!
//! Page payloads (flash array contents, SRAM buffer frames) live here so the
//! single writer can mutate them while readers copy concurrently without a
//! data race. Every *store*, and every *reader-side* load, is a relaxed
//! word-granular atomic — on mainstream hardware these compile to plain
//! loads/stores — and cross-word consistency is the epoch's job, not the
//! arena's. The *owner* ([`SharedArena`]) is the only handle that can store,
//! and it can only do so through `&mut self`; its reads therefore race with
//! nothing but other loads and are plain `memcpy`s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORD: usize = 8;

/// Fixed-size byte arena backed by atomic 64-bit words.
///
/// Writer-side methods (`write_bytes`, `fill`) assume a **single writer**:
/// sub-word edges are handled with load/merge/store, which would lose
/// updates under concurrent writers. Readers may call `read_bytes` at any
/// time; a read that races a write returns a possibly mixed byte string,
/// which the caller must discard via epoch validation.
#[derive(Debug)]
pub struct AtomicArena {
    words: Box<[AtomicU64]>,
    len: usize,
}

/// The words under one byte range, cut at word boundaries so each access
/// slices the word storage (and bounds-checks) once.
struct Cut<'a> {
    /// The partially covered first word, if the range starts unaligned.
    head: &'a [AtomicU64],
    /// Byte position of the range's start within `head`.
    head_at: usize,
    /// Bytes of the range that fall in `head`.
    head_len: usize,
    /// The fully covered words.
    body: &'a [AtomicU64],
    /// The partially covered last word (covered from its byte 0), if any.
    tail: &'a [AtomicU64],
    /// Bytes of the range that fall in `tail`.
    tail_len: usize,
}

impl Cut<'_> {
    /// Split a caller buffer of the range's length the same way.
    fn split<'b>(&self, bytes: &'b [u8]) -> (&'b [u8], &'b [u8], &'b [u8]) {
        let (head, rest) = bytes.split_at(self.head_len);
        let (body, tail) = rest.split_at(self.body.len() * WORD);
        (head, body, tail)
    }

    /// [`Cut::split`] for a destination buffer.
    fn split_mut<'b>(&self, bytes: &'b mut [u8]) -> (&'b mut [u8], &'b mut [u8], &'b mut [u8]) {
        let (head, rest) = bytes.split_at_mut(self.head_len);
        let (body, tail) = rest.split_at_mut(self.body.len() * WORD);
        (head, body, tail)
    }
}

/// Overwrite `bytes.len()` bytes of `word` starting at byte `at`, keeping
/// the rest (load/merge/store — single writer only).
fn merge(word: &AtomicU64, at: usize, bytes: &[u8]) {
    let mut w = word.load(Ordering::Relaxed).to_le_bytes();
    w[at..at + bytes.len()].copy_from_slice(bytes);
    word.store(u64::from_le_bytes(w), Ordering::Relaxed);
}

impl AtomicArena {
    /// New arena of `len` bytes, filled with `fill` in every byte.
    pub fn new(len: usize, fill: u8) -> Self {
        let word = u64::from_le_bytes([fill; WORD]);
        let words = (0..len.div_ceil(WORD))
            .map(|_| AtomicU64::new(word))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { words, len }
    }

    /// Arena length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the arena holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `offset..offset + len` lies inside the arena. Readers use
    /// this to reject ranges computed from stale metadata before touching
    /// the arena (then retry via the epoch), rather than panicking.
    pub fn in_bounds(&self, offset: usize, len: usize) -> bool {
        offset.checked_add(len).is_some_and(|end| end <= self.len)
    }

    /// Cut the (in-bounds) range `offset..offset + len` at word boundaries.
    fn cut(&self, offset: usize, len: usize) -> Cut<'_> {
        let head_at = offset % WORD;
        let head_len = ((WORD - head_at) % WORD).min(len);
        let body_words = (len - head_len) / WORD;
        let head_words = usize::from(head_len != 0);
        let tail_len = (len - head_len) % WORD;
        let tail_words = usize::from(tail_len != 0);
        let first = offset / WORD;
        let words = &self.words[first..first + head_words + body_words + tail_words];
        let (head, rest) = words.split_at(head_words);
        let (body, tail) = rest.split_at(body_words);
        Cut {
            head,
            head_at,
            head_len,
            body,
            tail,
            tail_len,
        }
    }

    /// Copy `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// Panics if the range is out of bounds; callers on the optimistic read
    /// path must pre-check with [`AtomicArena::in_bounds`].
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        assert!(
            self.in_bounds(offset, buf.len()),
            "arena read out of bounds"
        );
        let cut = self.cut(offset, buf.len());
        let (head, body, tail) = cut.split_mut(buf);
        for word in cut.head {
            let w = word.load(Ordering::Relaxed).to_le_bytes();
            head.copy_from_slice(&w[cut.head_at..cut.head_at + head.len()]);
        }
        for (chunk, word) in body.chunks_exact_mut(WORD).zip(cut.body) {
            chunk.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        for word in cut.tail {
            let w = word.load(Ordering::Relaxed).to_le_bytes();
            tail.copy_from_slice(&w[..tail.len()]);
        }
    }

    /// Write `bytes` starting at `offset`. Single-writer only.
    pub fn write_bytes(&self, offset: usize, bytes: &[u8]) {
        assert!(
            self.in_bounds(offset, bytes.len()),
            "arena write out of bounds"
        );
        let cut = self.cut(offset, bytes.len());
        let (head, body, tail) = cut.split(bytes);
        for word in cut.head {
            merge(word, cut.head_at, head);
        }
        for (chunk, word) in body.chunks_exact(WORD).zip(cut.body) {
            let w = chunk.try_into().expect("chunks_exact yields whole words");
            word.store(u64::from_le_bytes(w), Ordering::Relaxed);
        }
        for word in cut.tail {
            merge(word, 0, tail);
        }
    }

    /// Fill `offset..offset + len` with `value`. Single-writer only.
    pub fn fill(&self, offset: usize, len: usize, value: u8) {
        assert!(self.in_bounds(offset, len), "arena fill out of bounds");
        let cut = self.cut(offset, len);
        let pattern = [value; WORD];
        for word in cut.head {
            merge(word, cut.head_at, &pattern[..cut.head_len]);
        }
        for word in cut.body {
            word.store(u64::from_le_bytes(pattern), Ordering::Relaxed);
        }
        for word in cut.tail {
            merge(word, 0, &pattern[..cut.tail_len]);
        }
    }

    /// Independent copy of the current contents.
    pub fn deep_copy(&self) -> Self {
        let words = self
            .words
            .iter()
            .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            words,
            len: self.len,
        }
    }

    /// `offset..offset + len` as plain bytes, for a `memcpy`-speed read.
    /// Little-endian only: words are stored as `from_le_bytes`, so memory
    /// holds the arena's bytes in arena order only on such a target.
    ///
    /// Panics if the range is out of bounds.
    ///
    /// # Safety
    ///
    /// For as long as the returned slice is live, nothing may store to a
    /// word overlapping the range (concurrent loads are fine).
    #[cfg(target_endian = "little")]
    unsafe fn plain_bytes(&self, offset: usize, len: usize) -> &[u8] {
        assert!(self.in_bounds(offset, len), "arena read out of bounds");
        // SAFETY: `AtomicU64` has the in-memory representation of `u64`, so
        // the boxed words are `words.len() * WORD >= self.len` contiguous
        // initialised bytes, the asserted range lies inside them, and `u8`
        // needs no alignment. The caller rules out stores for the slice's
        // lifetime; the loads other threads may issue meanwhile are reads,
        // and two reads never race.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>().add(offset), len) }
    }
}

/// Copy `len` bytes from `src` at `src_offset` to `dst` at `dst_offset`
/// (which may be the same arena). Panics if either range is out of bounds.
///
/// # Safety
///
/// During the call nothing but this copy may store to `src`, and the words
/// this copy stores to (`dst`'s range, widened to word boundaries) must not
/// overlap the source range.
unsafe fn copy_bytes(
    dst: &AtomicArena,
    dst_offset: usize,
    src: &AtomicArena,
    src_offset: usize,
    len: usize,
) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the caller's contract is exactly `plain_bytes`'s — the
        // only stores during the borrow are `write_bytes`'s below, and
        // those stay off the source range.
        let bytes = unsafe { src.plain_bytes(src_offset, len) };
        dst.write_bytes(dst_offset, bytes);
    }
    #[cfg(target_endian = "big")]
    copy_by_words(dst, dst_offset, src, src_offset, len);
}

/// [`copy_bytes`] without the plain view: atomic word loads staged through
/// a stack chunk. The big-endian build's copy path; compiled for tests
/// everywhere so it is exercised on the hosts CI actually has.
#[cfg(any(test, target_endian = "big"))]
fn copy_by_words(
    dst: &AtomicArena,
    dst_offset: usize,
    src: &AtomicArena,
    src_offset: usize,
    len: usize,
) {
    let mut chunk = [0u8; 32 * WORD];
    let mut done = 0;
    while done < len {
        let n = (len - done).min(chunk.len());
        src.read_bytes(src_offset + done, &mut chunk[..n]);
        dst.write_bytes(dst_offset + done, &chunk[..n]);
        done += n;
    }
}

/// Owner handle to an [`AtomicArena`], held by the writer-side structure.
///
/// The owner is the arena's **only** source of stores, and every storing
/// method takes `&mut self`: while a `&SharedArena` exists nothing can be
/// writing the arena, so owner-side reads (and the source side of a
/// [`SharedArena::copy_from`]) are plain copies, not per-word atomics.
/// Readers holding an [`ArenaView`] only ever load, atomically, because
/// *they* do race the owner's stores.
///
/// `Clone` deep-copies the contents (fork semantics); use
/// [`SharedArena::view`] to hand readers a cheap shared handle instead.
#[derive(Debug)]
pub struct SharedArena {
    inner: Arc<AtomicArena>,
}

/// A borrowed byte range of an owner's arena: the source of an
/// arena-to-arena copy ([`SharedArena::copy_from`]). Holding it keeps the
/// source arena shared-borrowed, hence unwritten.
#[derive(Debug, Clone, Copy)]
pub struct ArenaSpan<'a> {
    arena: &'a SharedArena,
    offset: usize,
    len: usize,
}

impl ArenaSpan<'_> {
    /// Span length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first `len` bytes of the span.
    ///
    /// Panics if `len` exceeds the span.
    pub fn prefix(self, len: usize) -> Self {
        assert!(len <= self.len, "prefix longer than the span");
        Self { len, ..self }
    }
}

impl SharedArena {
    /// New arena of `len` bytes filled with `fill`.
    pub fn new(len: usize, fill: u8) -> Self {
        Self {
            inner: Arc::new(AtomicArena::new(len, fill)),
        }
    }

    /// Arena length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the arena holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Copy `buf.len()` bytes starting at `offset` into `buf` — a plain
    /// `memcpy` (see the type docs for why the owner needs no atomics).
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: every store to this arena goes through a `&mut self`
            // method of this handle — `inner` is private, `ArenaView`
            // exposes loads only, and a clone owns fresh storage — so no
            // store can overlap this `&self` borrow.
            let bytes = unsafe { self.inner.plain_bytes(offset, buf.len()) };
            buf.copy_from_slice(bytes);
        }
        #[cfg(target_endian = "big")]
        self.inner.read_bytes(offset, buf);
    }

    /// See [`AtomicArena::write_bytes`].
    pub fn write_bytes(&mut self, offset: usize, bytes: &[u8]) {
        self.inner.write_bytes(offset, bytes);
    }

    /// See [`AtomicArena::fill`].
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) {
        self.inner.fill(offset, len, value);
    }

    /// Borrow `offset..offset + len` as the source of a copy into another
    /// arena.
    ///
    /// Panics if the range is out of bounds.
    pub fn span(&self, offset: usize, len: usize) -> ArenaSpan<'_> {
        assert!(
            self.inner.in_bounds(offset, len),
            "arena span out of bounds"
        );
        ArenaSpan {
            arena: self,
            offset,
            len,
        }
    }

    /// Copy the bytes of `src` (a span of another owner's arena) to
    /// `offset..offset + src.len()`: one pass, plain loads from the source
    /// and atomic word stores here, no intermediate buffer.
    ///
    /// Panics if the destination range is out of bounds.
    pub fn copy_from(&mut self, offset: usize, src: ArenaSpan<'_>) {
        // SAFETY: `src` holds its arena shared-borrowed, so (as in
        // `read_bytes`) nothing stores to it during the call; `&mut self`
        // cannot alias that borrow, so the two arenas are distinct and the
        // stores land in other storage.
        unsafe { copy_bytes(&self.inner, offset, &src.arena.inner, src.offset, src.len) }
    }

    /// Copy `len` bytes from `src_offset` to `dst_offset` within this arena
    /// (a Flash page to another Flash page).
    ///
    /// Panics if either range is out of bounds, or if the destination,
    /// widened to word boundaries, overlaps the source — edge words are
    /// stored whole, so such a copy would rewrite source bytes mid-copy.
    pub fn copy_within(&mut self, src_offset: usize, dst_offset: usize, len: usize) {
        assert!(
            self.inner.in_bounds(src_offset, len) && self.inner.in_bounds(dst_offset, len),
            "arena copy out of bounds"
        );
        let dst_start = dst_offset - dst_offset % WORD;
        let dst_end = (dst_offset + len).next_multiple_of(WORD);
        assert!(
            len == 0 || src_offset + len <= dst_start || dst_end <= src_offset,
            "arena copy ranges overlap"
        );
        // SAFETY: `&mut self` excludes every other store to the arena, and
        // the assertion above keeps this copy's own stores (whole words of
        // the widened destination) off the source range.
        unsafe { copy_bytes(&self.inner, dst_offset, &self.inner, src_offset, len) }
    }

    /// Cheap reader handle sharing this arena's storage.
    pub fn view(&self) -> ArenaView {
        ArenaView {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Clone for SharedArena {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::new(self.inner.deep_copy()),
        }
    }
}

/// Reader handle to a [`SharedArena`]. Cheap to clone; read-only.
#[derive(Debug, Clone)]
pub struct ArenaView {
    inner: Arc<AtomicArena>,
}

impl ArenaView {
    /// Arena length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the arena holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// See [`AtomicArena::in_bounds`].
    pub fn in_bounds(&self, offset: usize, len: usize) -> bool {
        self.inner.in_bounds(offset, len)
    }

    /// See [`AtomicArena::read_bytes`].
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        self.inner.read_bytes(offset, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unaligned() {
        let a = AtomicArena::new(64, 0xFF);
        let mut buf = [0u8; 64];
        a.read_bytes(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xFF));

        let payload: Vec<u8> = (0..23).collect();
        a.write_bytes(3, &payload);
        let mut got = vec![0u8; 23];
        a.read_bytes(3, &mut got);
        assert_eq!(got, payload);
        // Neighbours untouched.
        let mut edge = [0u8; 3];
        a.read_bytes(0, &mut edge);
        assert_eq!(edge, [0xFF; 3]);
        let mut tail = [0u8; 8];
        a.read_bytes(26, &mut tail);
        assert_eq!(tail, [0xFF; 8]);
    }

    #[test]
    fn fill_partial_words() {
        let a = AtomicArena::new(32, 0x00);
        a.fill(5, 17, 0xAB);
        let mut buf = [0u8; 32];
        a.read_bytes(0, &mut buf);
        for (i, &b) in buf.iter().enumerate() {
            let want = if (5..22).contains(&i) { 0xAB } else { 0x00 };
            assert_eq!(b, want, "byte {i}");
        }
    }

    #[test]
    fn odd_length_arena() {
        let a = AtomicArena::new(13, 0x11);
        let mut buf = [0u8; 13];
        a.read_bytes(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0x11));
        a.write_bytes(8, &[1, 2, 3, 4, 5]);
        a.read_bytes(0, &mut buf);
        assert_eq!(&buf[8..], &[1, 2, 3, 4, 5]);
        assert!(!a.in_bounds(8, 6));
        assert!(a.in_bounds(8, 5));
        assert!(!a.in_bounds(usize::MAX, 2));
    }

    #[test]
    fn shared_clone_is_deep() {
        let mut owner = SharedArena::new(16, 0);
        let view = owner.view();
        let fork = owner.clone();
        owner.write_bytes(0, &[9; 16]);
        let mut buf = [0u8; 16];
        view.read_bytes(0, &mut buf);
        assert_eq!(buf, [9; 16]); // view shares the original
        fork.read_bytes(0, &mut buf);
        assert_eq!(buf, [0; 16]); // fork is independent
    }

    /// The big-endian copy path agrees with the plain-view one on every
    /// alignment of a range that straddles its staging chunk.
    #[test]
    fn word_staged_copy_matches_plain_copy() {
        let bytes: Vec<u8> = (0..700u32).map(|i| (i * 7 + 1) as u8).collect();
        let src = AtomicArena::new(bytes.len(), 0);
        src.write_bytes(0, &bytes);
        for (src_offset, dst_offset, len) in [(0, 0, 700), (3, 5, 600), (9, 2, 257), (1, 1, 0)] {
            let dst = AtomicArena::new(bytes.len() + 8, 0xEE);
            copy_by_words(&dst, dst_offset, &src, src_offset, len);
            let mut got = vec![0u8; dst.len()];
            dst.read_bytes(0, &mut got);
            let mut want = vec![0xEE; dst.len()];
            want[dst_offset..dst_offset + len]
                .copy_from_slice(&bytes[src_offset..src_offset + len]);
            assert_eq!(got, want, "src {src_offset} dst {dst_offset} len {len}");
        }
    }
}
