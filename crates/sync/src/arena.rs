//! A fixed-size byte arena over one `Vec<u8>`.

use std::ops::Range;

/// Fixed-size byte arena: page payloads (Flash array contents, SRAM
/// buffer frames). Every method panics if its range leaves the arena.
///
/// `Clone` copies the contents (fork semantics).
#[derive(Debug, Clone)]
pub struct ByteArena {
    bytes: Vec<u8>,
}

impl ByteArena {
    /// New arena of `len` bytes, filled with `fill` in every byte.
    pub fn new(len: usize, fill: u8) -> Self {
        Self {
            bytes: vec![fill; len],
        }
    }

    /// Arena length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the arena holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// `offset..offset + len`, checked against the arena.
    fn range(&self, offset: usize, len: usize) -> Range<usize> {
        match offset.checked_add(len) {
            Some(end) if end <= self.bytes.len() => offset..end,
            _ => panic!("arena range {offset}+{len} out of bounds"),
        }
    }

    /// Borrow `offset..offset + len`, e.g. as the source of a copy into
    /// another arena.
    pub fn span(&self, offset: usize, len: usize) -> &[u8] {
        &self.bytes[self.range(offset, len)]
    }

    /// Borrow `offset..offset + len` mutably.
    pub fn span_mut(&mut self, offset: usize, len: usize) -> &mut [u8] {
        let range = self.range(offset, len);
        &mut self.bytes[range]
    }

    /// Copy `buf.len()` bytes starting at `offset` into `buf`.
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(self.span(offset, buf.len()));
    }

    /// Write `bytes` starting at `offset`.
    pub fn write_bytes(&mut self, offset: usize, bytes: &[u8]) {
        self.span_mut(offset, bytes.len()).copy_from_slice(bytes);
    }

    /// Fill `offset..offset + len` with `value`.
    pub fn fill(&mut self, offset: usize, len: usize, value: u8) {
        self.span_mut(offset, len).fill(value);
    }

    /// Copy `len` bytes from `src_offset` to `dst_offset` within this
    /// arena (a Flash page to another Flash page). The ranges may
    /// overlap.
    pub fn copy_within(&mut self, src_offset: usize, dst_offset: usize, len: usize) {
        let src = self.range(src_offset, len);
        self.range(dst_offset, len);
        self.bytes.copy_within(src, dst_offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unaligned() {
        let mut a = ByteArena::new(64, 0xFF);
        let mut buf = [0u8; 64];
        a.read_bytes(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xFF));

        let payload: Vec<u8> = (0..23).collect();
        a.write_bytes(3, &payload);
        assert_eq!(a.span(3, 23), &payload[..]);
        // Neighbours untouched.
        assert_eq!(a.span(0, 3), [0xFF; 3]);
        assert_eq!(a.span(26, 8), [0xFF; 8]);
    }

    #[test]
    fn fill_partial_words() {
        let mut a = ByteArena::new(32, 0x00);
        a.fill(5, 17, 0xAB);
        for (i, &b) in a.span(0, 32).iter().enumerate() {
            let want = if (5..22).contains(&i) { 0xAB } else { 0x00 };
            assert_eq!(b, want, "byte {i}");
        }
    }

    #[test]
    fn odd_length_arena() {
        let mut a = ByteArena::new(13, 0x11);
        assert!(a.span(0, 13).iter().all(|&b| b == 0x11));
        a.write_bytes(8, &[1, 2, 3, 4, 5]);
        assert_eq!(a.span(8, 5), &[1, 2, 3, 4, 5]);
        assert_eq!(a.len(), 13);
    }

    #[test]
    fn shared_clone_is_deep() {
        let mut owner = ByteArena::new(16, 0);
        let fork = owner.clone();
        owner.write_bytes(0, &[9; 16]);
        assert_eq!(owner.span(0, 16), [9; 16]);
        assert_eq!(fork.span(0, 16), [0; 16]); // fork is independent
    }
}
