//! An untimed, side-effect-free view of a store's bytes.
//!
//! [`EnvyStore::read`](crate::EnvyStore::read) counts host words and the
//! Flash array counts page reads; a [`ReadView`] only copies bytes. It
//! borrows the store, so nothing can change the store while it is in use.
//! The next benchmark change deletes it: it survives only because
//! `benchmark/` times `core.view_read_ns` through it.

use crate::addr::Location;
use crate::error::EnvyError;
use crate::memory::check_range;
use crate::store::EnvyStore;

/// A borrowed, read-only view of an [`EnvyStore`]'s logical bytes.
///
/// Obtained from [`EnvyStore::read_view`]. It holds nothing but the
/// borrow, so the borrow ends at the view's last use.
#[derive(Debug, Clone, Copy)]
pub struct ReadView<'a> {
    store: &'a EnvyStore,
}

impl<'a> ReadView<'a> {
    pub(crate) fn new(store: &'a EnvyStore) -> ReadView<'a> {
        ReadView { store }
    }

    /// Copy `buf.len()` bytes at `addr` into `buf`: the bytes
    /// [`EnvyStore::read`] returns, without touching statistics, the MMU
    /// or the clock. Returns `Ok(0)`.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`] if the range exceeds the logical array.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<u64, EnvyError> {
        let engine = self.store.engine();
        check_range(addr, buf.len(), self.store.size())?;
        let mut cursor = 0;
        for c in engine.addr_map.chunks(addr, buf.len()) {
            let dst = &mut buf[cursor..cursor + c.len];
            let copied = match engine.page_table.lookup(c.page) {
                Location::Unmapped => false,
                // A payload-less frame (store_data off) reads as erased.
                Location::Sram(frame) => engine.buffer.read_into(frame, c.offset, dst),
                Location::Flash(loc) => match engine.flash.page_payload(loc.segment, loc.page) {
                    Some(page) => {
                        dst.copy_from_slice(&page[c.offset..c.offset + c.len]);
                        true
                    }
                    None => false,
                },
            };
            if !copied {
                dst.fill(0xFF);
            }
            cursor += c.len;
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::EnvyConfig;
    use crate::store::EnvyStore;

    fn assert_send_sync<T: Send + Sync + Clone>() {}

    #[test]
    fn view_is_send_sync_clone() {
        assert_send_sync::<super::ReadView<'static>>();
    }

    #[test]
    fn view_matches_store_reads() {
        let mut store = EnvyStore::new(EnvyConfig::small_test()).unwrap();
        store.prefill().unwrap();
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
            assert_eq!(store.read_view().read(addr, &mut b), Ok(0));
            assert_eq!(a, b, "addr {addr}");
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
