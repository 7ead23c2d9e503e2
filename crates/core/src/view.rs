//! Lock-free concurrent read path: a cloneable, `Send + Sync` snapshot
//! handle over a live [`EnvyStore`](crate::EnvyStore).
//!
//! A [`ReadView`] holds cheap atomic views of the structures a read
//! touches — the packed forward page table, the SRAM buffer index and
//! frame arena, and the Flash payload arena — plus the store's seqlock
//! epoch. Reads are *optimistic*: the view snapshots the epoch, copies
//! the bytes it needs with relaxed atomic loads, then validates that no
//! writer ran in between. On conflict the attempt is discarded and
//! retried, so a reader can never observe a torn page-table entry or a
//! half-relocated page; it only ever returns states the single writer has
//! published (even epoch).
//!
//! The view is untimed by design: it bypasses the latency model, MMU
//! cache counters and statistics entirely, which is what makes it safe
//! to run from any thread without the store lock — and what makes it
//! fast. Timed reads stay on the writer thread.

use crate::addr::AddrMap;
use crate::engine::Engine;
use crate::error::EnvyError;
use crate::memory::check_range;
use crate::page_table::fwd_decode;
use envy_sync::{ArenaView, EpochView, SharedEpoch, SlotsView, WordsView};

/// Outcome of a single optimistic read attempt.
enum Attempt {
    /// The copy validated against the epoch.
    Done,
    /// A writer ran during the copy (or the snapshot raced a relocation);
    /// retry.
    Conflict,
}

/// A lock-free reader handle over an [`EnvyStore`](crate::EnvyStore).
///
/// Cloneable and `Send + Sync`: hand one to each reader thread. All
/// clones observe the same live store; reads issued while the writer is
/// between mutating operations return exactly what the single-threaded
/// [`EnvyStore::read`](crate::EnvyStore::read) would.
///
/// Obtained from [`EnvyStore::read_view`](crate::EnvyStore::read_view).
#[derive(Debug, Clone)]
pub struct ReadView {
    epoch: EpochView,
    /// Packed forward page table (one atomic word per logical page).
    forward: WordsView,
    /// SRAM buffer index: `slot + 1` per buffered logical page, 0 empty.
    sram_index: SlotsView,
    /// SRAM frame payload arena (absent when the store is stateless).
    sram_frames: Option<ArenaView>,
    /// Flash page payload arena (absent when the store is stateless).
    flash_payload: Option<ArenaView>,
    addr_map: AddrMap,
    page_bytes: usize,
    pages_per_segment: u32,
    segments: u32,
    size: u64,
}

impl ReadView {
    pub(crate) fn new(engine: &Engine, epoch: &SharedEpoch) -> ReadView {
        let geo = engine.flash.geometry();
        ReadView {
            epoch: epoch.view(),
            forward: engine.page_table.reader_forward(),
            sram_index: engine.buffer.reader_index(),
            sram_frames: engine.buffer.reader_frames(),
            flash_payload: engine.flash.payload_view(),
            addr_map: engine.addr_map,
            page_bytes: geo.page_bytes() as usize,
            pages_per_segment: geo.pages_per_segment(),
            segments: geo.segments(),
            size: engine.config().logical_bytes(),
        }
    }

    /// Size of the logical array in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// One optimistic attempt at a single in-page chunk.
    ///
    /// Every byte lands in `buf` between the epoch snapshot and the
    /// validation, so a `Done` return is a consistent published state.
    /// Index values read under a stale snapshot can be arbitrary (a
    /// relocation may have moved the page mid-copy), so location and
    /// bounds failures are conflicts, never panics.
    fn read_chunk(&self, lp: u64, offset: usize, buf: &mut [u8]) -> Attempt {
        let Some(snap) = self.epoch.optimistic_read() else {
            return Attempt::Conflict;
        };
        let word = self.forward.get(lp as usize);
        match fwd_decode(word) {
            crate::addr::Location::Unmapped => buf.fill(0xFF),
            crate::addr::Location::Sram => match &self.sram_frames {
                Some(frames) => {
                    let slot = self.sram_index.get(lp as usize);
                    if slot == 0 {
                        // Forward map and index disagree: raced a flush.
                        return Attempt::Conflict;
                    }
                    let base = (slot as usize - 1) * self.page_bytes + offset;
                    if !frames.in_bounds(base, buf.len()) {
                        return Attempt::Conflict;
                    }
                    frames.read_bytes(base, buf);
                }
                // Stateless store: buffered pages carry no payload and
                // read as erased, matching `WriteBuffer::read_into`.
                None => buf.fill(0xFF),
            },
            crate::addr::Location::Flash(loc) => match &self.flash_payload {
                Some(payload) => {
                    if loc.segment >= self.segments || loc.page >= self.pages_per_segment {
                        return Attempt::Conflict;
                    }
                    let page =
                        loc.segment as usize * self.pages_per_segment as usize + loc.page as usize;
                    let base = page * self.page_bytes + offset;
                    if !payload.in_bounds(base, buf.len()) {
                        return Attempt::Conflict;
                    }
                    payload.read_bytes(base, buf);
                }
                None => buf.fill(0xFF),
            },
        }
        if self.epoch.validate(snap) {
            Attempt::Done
        } else {
            Attempt::Conflict
        }
    }

    /// Read a byte range, retrying each page-sized chunk until it
    /// validates. Returns the number of retries taken (0 on a clean run)
    /// for observability.
    ///
    /// The backoff spins briefly and then yields to the scheduler: on a
    /// loaded single-core host the writer holds the epoch odd until it is
    /// next scheduled, so a pure spin would burn the reader's whole
    /// timeslice.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`] if the range exceeds the logical array.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<u64, EnvyError> {
        check_range(addr, buf.len(), self.size)?;
        let mut retries = 0u64;
        let mut cursor = 0usize;
        for c in self.addr_map.chunks(addr, buf.len()) {
            let dst = &mut buf[cursor..cursor + c.len];
            let mut spins = 0u32;
            while let Attempt::Conflict = self.read_chunk(c.page, c.offset, dst) {
                retries += 1;
                spins += 1;
                if spins < 16 {
                    std::hint::spin_loop();
                } else {
                    spins = 0;
                    std::thread::yield_now();
                }
            }
            cursor += c.len;
        }
        Ok(retries)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::EnvyConfig;
    use crate::store::EnvyStore;

    fn assert_send_sync<T: Send + Sync + Clone>() {}

    #[test]
    fn view_is_send_sync_clone() {
        assert_send_sync::<super::ReadView>();
    }

    #[test]
    fn view_matches_store_reads() {
        let mut store = EnvyStore::new(EnvyConfig::small_test()).unwrap();
        store.prefill().unwrap();
        let view = store.read_view();
        let pb = store.config().geometry.page_bytes() as u64;
        // Straddle SRAM-buffered, Flash-resident and unmapped pages.
        store.write(3, b"abcdef").unwrap();
        store.write(pb * 2 - 2, b"straddle").unwrap();
        store.flush_all().unwrap();
        store.write(pb * 5 + 17, b"buffered").unwrap();
        for addr in [0u64, 3, pb * 2 - 2, pb * 5, pb * 5 + 17] {
            let mut a = [0u8; 32];
            let mut b = [0u8; 32];
            store.read(addr, &mut a).unwrap();
            let retries = view.read(addr, &mut b).unwrap();
            assert_eq!(a, b, "addr {addr}");
            assert_eq!(retries, 0, "no writer ran concurrently");
        }
    }

    #[test]
    fn view_rejects_out_of_bounds() {
        let store = EnvyStore::new(EnvyConfig::small_test()).unwrap();
        let view = store.read_view();
        let mut buf = [0u8; 8];
        assert!(view.read(store.size(), &mut buf).is_err());
        assert!(view.read(store.size() - 4, &mut buf).is_err());
    }

    #[test]
    fn view_rejects_ranges_ending_past_u64_max() {
        let store = EnvyStore::new(EnvyConfig::small_test()).unwrap();
        assert!(store
            .read_view()
            .read(u64::MAX - 3, &mut [0u8; 16])
            .is_err());
    }

    #[test]
    fn stateless_view_reads_erased() {
        let mut cfg = EnvyConfig::small_test();
        cfg.store_data = false;
        let mut store = EnvyStore::new(cfg).unwrap();
        store.write(100, b"dropped").unwrap();
        let view = store.read_view();
        let mut buf = [0u8; 7];
        view.read(100, &mut buf).unwrap();
        assert_eq!(buf, [0xFF; 7]);
    }
}
