//! Host-visible read and write paths (§3.1–3.2): transparent in-place
//! update semantics via copy-on-write and page remapping.

use crate::addr::{Location, LogicalPage};
use crate::engine::Engine;
use crate::error::EnvyError;
use crate::timing::BgOp;

/// Where a host read was serviced from (drives the latency model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// The page was in the SRAM write buffer.
    Sram,
    /// The page was read from Flash.
    Flash {
        /// The bank accessed (for suspension modeling).
        bank: u32,
    },
    /// The page was never written; erased (0xFF) bytes were returned.
    Unmapped,
}

/// What a host write did (drives the latency model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// The page was already in SRAM; the write was absorbed in place.
    SramHit,
    /// A copy-on-write pulled the page from Flash into SRAM (§3.1–3.2).
    CopyOnWrite {
        /// The bank the original page was read from.
        bank: u32,
    },
    /// First write to a never-written page: a fresh SRAM page was
    /// allocated with erased contents.
    Fresh,
}

/// Outcome of a host write at page granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteResult {
    /// What the write did.
    pub kind: WriteKind,
}

impl Engine {
    fn check_page(&self, lp: LogicalPage, offset: usize, len: usize) -> Result<(), EnvyError> {
        let pb = self.addr_map.page_bytes() as usize;
        debug_assert!(offset + len <= pb, "chunk exceeds page bounds");
        if lp >= self.config.logical_pages {
            return Err(EnvyError::OutOfBounds {
                addr: lp * pb as u64 + offset as u64,
                size: self.config.logical_bytes(),
            });
        }
        Ok(())
    }

    /// Read bytes from within one logical page.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`] if the page is outside the logical
    /// array.
    #[inline]
    pub fn read_page_bytes(
        &mut self,
        lp: LogicalPage,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<ReadSource, EnvyError> {
        self.check_page(lp, offset, buf.len())?;
        match self.page_table.lookup(lp) {
            Location::Sram(frame) => {
                // A payload-less frame (store_data off) reads as erased.
                if !self.buffer.read_into(frame, offset, buf) {
                    buf.fill(0xFF);
                }
                Ok(ReadSource::Sram)
            }
            Location::Flash(loc) => {
                // Zero-copy: the sub-page range lands straight in the
                // caller's slice, not a page-sized staging buffer.
                self.flash
                    .read_page_into(loc.segment, loc.page, offset, buf)?;
                Ok(ReadSource::Flash {
                    bank: self.flash.bank_of(loc.segment),
                })
            }
            Location::Unmapped => {
                buf.fill(0xFF);
                Ok(ReadSource::Unmapped)
            }
        }
    }

    /// Refuse a write that would cross transaction isolation, and
    /// validate a transactional writer's id. The write-set rule: a page
    /// owned by an open transaction may only be written by that
    /// transaction; everyone else — another transaction or a plain
    /// write — gets [`EnvyError::TxnConflict`], an abort decision rather
    /// than a silent join or a busy wait.
    fn check_txn_isolation(
        &mut self,
        lp: LogicalPage,
        writer: Option<u64>,
    ) -> Result<(), EnvyError> {
        if let Some(txn) = writer {
            if !self.open_txns.contains(&txn) {
                return Err(EnvyError::NoSuchTxn { txn });
            }
        }
        if let Some(holder) = self.txn_owner_of(lp) {
            if writer != Some(holder) {
                self.stats.txn_conflict_refusals.incr();
                return Err(EnvyError::TxnConflict { holder });
            }
        }
        Ok(())
    }

    /// Claim a buffer frame for a page that is not buffered yet; the
    /// caller has flushed until there is room, and maps the page to the
    /// returned frame.
    pub(super) fn buffer_insert(&mut self, lp: LogicalPage, origin: Option<u32>) -> u32 {
        // The buffer keeps no logical-page index: a second frame for the
        // same page is caught here, and by the frame bijection in
        // `check_invariants`.
        debug_assert!(
            self.buffer.iter().all(|(_, p)| p.logical != lp),
            "logical page {lp} is already buffered"
        );
        self.buffer
            .insert_frame(lp, origin)
            .expect("buffer has space after flushing")
    }

    /// Write bytes within one logical page, with transparent in-place
    /// update semantics: a Flash-resident page is copied into SRAM first
    /// (copy-on-write, §3.1), and the page table is repointed atomically.
    /// Any flushing or cleaning this triggers is appended to `ops`.
    ///
    /// `writer` is the transaction performing the write (`None` for a
    /// plain host write). A transactional first write pins the page's
    /// pre-image into the writer's write set; a plain write never does —
    /// and either kind is refused with [`EnvyError::TxnConflict`] when
    /// the page already belongs to a *different* open transaction.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`]; [`EnvyError::NoSuchTxn`] for an
    /// unknown `writer`; [`EnvyError::TxnConflict`] on a write-set hit;
    /// or a propagated cleaning error.
    pub fn write_page_bytes(
        &mut self,
        lp: LogicalPage,
        offset: usize,
        bytes: &[u8],
        writer: Option<u64>,
        ops: &mut Vec<BgOp>,
    ) -> Result<WriteResult, EnvyError> {
        self.check_page(lp, offset, bytes.len())?;
        if writer.is_some() || !self.open_txns.is_empty() {
            self.check_txn_isolation(lp, writer)?;
            // A transactional write to an SRAM-resident page it does not
            // own yet has no Flash pre-image to pin (a plain write pulled
            // the page into SRAM after the transaction began). Drain the
            // buffer so the page is Flash-resident and the copy-on-write
            // below yields a durable shadow.
            if writer.is_some()
                && self.txn_owner_of(lp).is_none()
                && matches!(self.page_table.lookup(lp), Location::Sram(_))
            {
                self.flush_all(ops)?;
            }
        }
        match self.page_table.lookup(lp) {
            Location::Sram(frame) => {
                // §3.2: "Changes can be made directly in SRAM."
                self.buffer.write(frame, offset, bytes);
                self.stats.sram_write_hits.incr();
                self.trace.emit(crate::trace::TraceEvent::BufferHit { lp });
                Ok(WriteResult {
                    kind: WriteKind::SramHit,
                })
            }
            Location::Flash(loc) => {
                // Copy-on-write (§3.2, Figure 3): make room, copy the
                // original Flash page to SRAM, apply the write, update the
                // page table, invalidate the old copy.
                while self.buffer.is_full() {
                    self.flush_tail(ops)?;
                }
                let origin = self.pos_of[loc.segment as usize];
                debug_assert_ne!(origin, crate::engine::POS_NONE, "live data in the spare");
                // The Flash original moves into the claimed SRAM frame in
                // one copy (the wide datapath), then the host bytes land
                // on top.
                let frame = self.buffer_insert(lp, Some(origin));
                let original = self.flash.read_page_span(loc.segment, loc.page)?;
                if let Some(page) = self.buffer.frame_mut(frame) {
                    match original {
                        Some(original) => page.copy_from_slice(original),
                        None => page.fill(0xFF),
                    }
                    page[offset..offset + bytes.len()].copy_from_slice(bytes);
                }
                // §6: the invalidated original is a free shadow copy —
                // pinned only for a *transactional* writer. A plain write
                // leaves no shadow and joins no transaction.
                if let Some(txn) = writer {
                    if self.shadows.insert_if_absent(lp, loc, txn) {
                        self.stats.shadow_pages_pinned.incr();
                    }
                }
                self.flash.invalidate_page(loc.segment, loc.page)?;
                self.page_table.map_sram(lp, frame);
                self.mmu.invalidate(lp);
                self.stats.cow_ops.incr();
                self.trace.emit(crate::trace::TraceEvent::Cow {
                    lp,
                    segment: loc.segment,
                });
                let bank = self.flash.bank_of(loc.segment);
                self.maybe_flush(ops)?;
                Ok(WriteResult {
                    kind: WriteKind::CopyOnWrite { bank },
                })
            }
            Location::Unmapped => {
                while self.buffer.is_full() {
                    self.flush_tail(ops)?;
                }
                // A page born inside a transaction has no Flash shadow;
                // rollback must return it to the unmapped state. It joins
                // the writer's write set — a plain fresh write joins none.
                if let Some(txn) = writer {
                    self.txn_fresh.insert(lp, txn);
                }
                let frame = self.buffer_insert(lp, None);
                if let Some(page) = self.buffer.frame_mut(frame) {
                    page.fill(0xFF);
                    page[offset..offset + bytes.len()].copy_from_slice(bytes);
                }
                self.page_table.map_sram(lp, frame);
                self.mmu.invalidate(lp);
                self.stats.fresh_allocs.incr();
                self.trace.emit(crate::trace::TraceEvent::FreshAlloc { lp });
                self.maybe_flush(ops)?;
                Ok(WriteResult {
                    kind: WriteKind::Fresh,
                })
            }
        }
    }
}
