//! Address arithmetic: logical byte addresses, logical pages, and physical
//! Flash locations.

/// A logical page number in the host-visible linear array.
pub type LogicalPage = u64;

/// A physical page location in the Flash array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashLocation {
    /// Physical segment index.
    pub segment: u32,
    /// Page index within the segment.
    pub page: u32,
}

/// Where a logical page's current (authoritative) copy lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Never written: reads observe erased (0xFF) bytes.
    Unmapped,
    /// The live copy is in Flash.
    Flash(FlashLocation),
    /// The live copy is in this frame of the SRAM write buffer.
    Sram(u32),
}

/// Splits byte addresses into (page, offset) pairs for a given page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrMap {
    page_bytes: u64,
    /// `log2(page_bytes)` when the page size is a power of two (every
    /// shipped geometry), so the per-access page/offset split is a
    /// shift/mask instead of two 64-bit divisions on the timed hot path.
    shift: Option<u32>,
}

impl AddrMap {
    /// Create a map for `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn new(page_bytes: u32) -> AddrMap {
        assert!(page_bytes > 0, "page size must be non-zero");
        AddrMap {
            page_bytes: page_bytes as u64,
            shift: page_bytes
                .is_power_of_two()
                .then(|| page_bytes.trailing_zeros()),
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// The logical page containing `addr`.
    #[inline]
    pub fn page_of(&self, addr: u64) -> LogicalPage {
        match self.shift {
            Some(s) => addr >> s,
            None => addr / self.page_bytes,
        }
    }

    /// Byte offset of `addr` within its page.
    #[inline]
    pub fn offset_of(&self, addr: u64) -> usize {
        match self.shift {
            Some(_) => (addr & (self.page_bytes - 1)) as usize,
            None => (addr % self.page_bytes) as usize,
        }
    }

    /// Split `[addr, addr + len)` into per-page `(page, offset, len)`
    /// chunks, in address order.
    pub fn chunks(&self, addr: u64, len: usize) -> ChunkIter {
        ChunkIter {
            map: *self,
            addr,
            remaining: len,
        }
    }
}

/// Iterator over per-page chunks of a byte range. See [`AddrMap::chunks`].
#[derive(Debug, Clone)]
pub struct ChunkIter {
    map: AddrMap,
    addr: u64,
    remaining: usize,
}

/// One per-page piece of a byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Logical page.
    pub page: LogicalPage,
    /// Offset within the page.
    pub offset: usize,
    /// Length of this piece.
    pub len: usize,
}

impl Iterator for ChunkIter {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.remaining == 0 {
            return None;
        }
        let page = self.map.page_of(self.addr);
        let offset = self.map.offset_of(self.addr);
        let room = self.map.page_bytes as usize - offset;
        let len = room.min(self.remaining);
        self.addr += len as u64;
        self.remaining -= len;
        Some(Chunk { page, offset, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_and_offset() {
        let m = AddrMap::new(256);
        assert_eq!(m.page_of(0), 0);
        assert_eq!(m.page_of(255), 0);
        assert_eq!(m.page_of(256), 1);
        assert_eq!(m.offset_of(257), 1);
        assert_eq!(m.page_bytes(), 256);
    }

    #[test]
    fn chunks_within_one_page() {
        let m = AddrMap::new(256);
        let chunks: Vec<Chunk> = m.chunks(10, 20).collect();
        assert_eq!(
            chunks,
            vec![Chunk {
                page: 0,
                offset: 10,
                len: 20
            }]
        );
    }

    #[test]
    fn chunks_spanning_pages() {
        let m = AddrMap::new(16);
        let chunks: Vec<Chunk> = m.chunks(12, 24).collect();
        assert_eq!(
            chunks,
            vec![
                Chunk {
                    page: 0,
                    offset: 12,
                    len: 4
                },
                Chunk {
                    page: 1,
                    offset: 0,
                    len: 16
                },
                Chunk {
                    page: 2,
                    offset: 0,
                    len: 4
                },
            ]
        );
        let total: usize = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn zero_length_chunks() {
        let m = AddrMap::new(16);
        assert_eq!(m.chunks(5, 0).count(), 0);
    }

    #[test]
    fn chunk_boundaries_are_exact() {
        let m = AddrMap::new(8);
        let chunks: Vec<Chunk> = m.chunks(8, 8).collect();
        assert_eq!(
            chunks,
            vec![Chunk {
                page: 1,
                offset: 0,
                len: 8
            }]
        );
    }
}
