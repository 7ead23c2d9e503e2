//! Hardware atomic-transaction support (§6).
//!
//! "eNVy automatically copies all modified data from Flash to SRAM as part
//! of its copy-on-write mechanism. The original data in Flash is not
//! destroyed, and it can be used to provide a free shadow copy. An
//! application can roll back a transaction simply by copying data back
//! from Flash."
//!
//! The controller keeps a slot table of up to
//! [`crate::EnvyConfig::txn_slots`] concurrently open transactions,
//! isolated by per-page *write sets*: the shadow directory (the
//! [`ShadowTable`], keyed by page and owner) plus the fresh-page map. A
//! write to a page inside another open transaction's write set is refused
//! with [`crate::EnvyError::TxnConflict`] — an abort decision for the
//! caller, never a silent join or a busy wait — and that rule applies to
//! plain non-transactional writes too. Shadows are protected across
//! cleaning and wear leveling (relocated, not lost); commit journals a
//! durable commit record and then forgets that transaction's shadows;
//! abort repoints the page table at them. After a power failure,
//! [`Engine::recover`] resolves every in-flight transaction independently
//! to all-or-nothing: each journaled commit record finishes its commit,
//! each open uncommitted transaction rolls back. The full lifecycle, the
//! per-crash-point debris catalog, and the wire-level rules live in
//! `docs/TRANSACTIONS.md`.
//!
//! The public entry points are the [`crate::EnvyStore`] wrappers:
//!
//! ```
//! use envy_core::{EnvyConfig, EnvyStore};
//!
//! let mut store = EnvyStore::new(EnvyConfig::small_test()).unwrap();
//! store.prefill().unwrap();
//! let before = store.stats().txn_commits.get();
//!
//! let txn = store.txn_begin().unwrap();
//! store.txn_write(txn, 0, &[7u8; 16]).unwrap(); // captures a shadow copy
//! store.txn_write(txn, 4096, &[9u8; 16]).unwrap();
//! store.txn_commit(txn).unwrap(); // both pages durable, atomically
//!
//! let mut buf = [0u8; 16];
//! store.read(0, &mut buf).unwrap();
//! assert_eq!(buf, [7u8; 16]);
//! assert_eq!(store.stats().txn_commits.get(), before + 1);
//! ```

use crate::addr::{FlashLocation, Location, LogicalPage};
use crate::engine::{Engine, InjectionPoint};
use crate::error::EnvyError;
use crate::timing::BgOp;
use std::collections::HashMap;

/// Directory of shadow copies for open transactions.
#[derive(Debug, Clone, Default)]
pub struct ShadowTable {
    entries: HashMap<LogicalPage, (FlashLocation, u64)>,
}

impl ShadowTable {
    /// Number of shadow pages currently protected.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no shadows are protected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record the pre-transaction location of `lp`, keeping only the
    /// first (oldest) shadow per page within a transaction. Returns
    /// whether a new shadow was pinned (`false` when the page already
    /// has one).
    pub(crate) fn insert_if_absent(
        &mut self,
        lp: LogicalPage,
        loc: FlashLocation,
        txn: u64,
    ) -> bool {
        let mut inserted = false;
        self.entries.entry(lp).or_insert_with(|| {
            inserted = true;
            (loc, txn)
        });
        inserted
    }

    /// The shadow pages located in `segment`, in page order.
    pub(crate) fn residents_of(&self, segment: u32) -> Vec<(u32, LogicalPage)> {
        let mut v: Vec<(u32, LogicalPage)> = self
            .entries
            .iter()
            .filter(|(_, (loc, _))| loc.segment == segment)
            .map(|(&lp, (loc, _))| (loc.page, lp))
            .collect();
        v.sort_unstable();
        v
    }

    /// Update a shadow's location after the cleaner moved it.
    pub(crate) fn relocate(&mut self, lp: LogicalPage, loc: FlashLocation) {
        if let Some((old, _)) = self.entries.get_mut(&lp) {
            *old = loc;
        }
    }

    /// The open transaction whose write set contains `lp`, if any.
    pub(crate) fn owner_of(&self, lp: LogicalPage) -> Option<u64> {
        self.entries.get(&lp).map(|&(_, txn)| txn)
    }

    /// Remove every shadow whose transaction is not in the `open` slot
    /// table — bookkeeping left behind when power failed between a
    /// commit point and the release. Returns how many were released.
    pub(crate) fn release_stale(&mut self, open: &[u64]) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, (_, txn)| open.contains(txn));
        (before - self.entries.len()) as u64
    }

    /// Drop all shadows belonging to `txn` in place (no allocation —
    /// this is the commit hot path). Returns how many were released.
    pub(crate) fn release_txn(&mut self, txn: u64) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|_, (_, t)| *t != txn);
        (before - self.entries.len()) as u64
    }

    /// Collect the shadows belonging to `txn` into `out` (cleared
    /// first), sorted by logical page so rollback order is
    /// deterministic. Entries are *not* removed — the rollback removes
    /// each one only once its page is restored, so a crash mid-rollback
    /// leaves the directory describing exactly the unrestored remainder.
    pub(crate) fn pages_of_into(&self, txn: u64, out: &mut Vec<(LogicalPage, FlashLocation)>) {
        out.clear();
        out.extend(
            self.entries
                .iter()
                .filter(|(_, (_, t))| *t == txn)
                .map(|(&lp, (loc, _))| (lp, *loc)),
        );
        out.sort_unstable_by_key(|&(lp, _)| lp);
    }

    /// Remove a single shadow entry (its page has been restored).
    pub(crate) fn remove(&mut self, lp: LogicalPage) {
        self.entries.remove(&lp);
    }

    /// Verify every shadow references an invalid Flash page (the state
    /// the copy-on-write left it in).
    pub(crate) fn check(&self, flash: &envy_flash::FlashArray) -> Result<(), String> {
        for (&lp, (loc, _)) in &self.entries {
            if flash.page_state(loc.segment, loc.page) != envy_flash::PageState::Invalid {
                return Err(format!(
                    "shadow for logical page {lp} at ({}, {}) is not invalid",
                    loc.segment, loc.page
                ));
            }
        }
        Ok(())
    }
}

impl Engine {
    /// Open a transaction. The write buffer is drained first so every
    /// logical page is Flash-resident and the copy-on-write of each
    /// subsequent write yields a durable shadow copy.
    ///
    /// Up to [`crate::EnvyConfig::txn_slots`] transactions may be open at
    /// once (the paper's hardware mechanism is a single controller
    /// facility; the slot table is the §6 extension), isolated by
    /// per-page write sets.
    ///
    /// # Errors
    ///
    /// [`EnvyError::TxnSlotsFull`] if every slot is occupied; cleaning
    /// errors from the drain; [`EnvyError::PowerLoss`] at an armed
    /// injection point.
    pub fn txn_begin(&mut self, ops: &mut Vec<BgOp>) -> Result<u64, EnvyError> {
        if self.open_txns.len() >= self.config.txn_slots as usize {
            return Err(EnvyError::TxnSlotsFull {
                slots: self.config.txn_slots,
            });
        }
        self.flush_all(ops)?;
        self.crash_point(InjectionPoint::BeginAfterDrain)?;
        let id = self.next_txn_id;
        self.next_txn_id += self.txn_id_stride;
        self.open_txns.push(id);
        self.stats.open_txns.add(1);
        self.crash_point(InjectionPoint::BeginAfterOpen)?;
        Ok(id)
    }

    /// Partition the transaction-id space for multi-controller
    /// deployments: the next transaction gets id `first` and each
    /// subsequent one advances by `stride`. Giving every controller a
    /// distinct residue (`first = index + 1`, `stride = controllers`)
    /// makes ids globally unique across controllers, so an id presented
    /// to the wrong controller can never match its open transaction —
    /// it is refused with [`EnvyError::NoSuchTxn`] instead of silently
    /// joining a foreign transaction.
    ///
    /// Ids only identify a transaction while it is open; re-seeding may
    /// reuse ids of already-resolved transactions, which is harmless.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is open, if `stride` is zero, or if
    /// `first` is zero (id 0 is reserved as "never a transaction").
    pub fn seed_txn_ids(&mut self, first: u64, stride: u64) {
        assert!(
            self.open_txns.is_empty(),
            "cannot re-seed transaction ids while a transaction is open"
        );
        assert!(stride > 0, "transaction id stride must be nonzero");
        assert!(first > 0, "transaction ids start at 1");
        self.next_txn_id = first;
        self.txn_id_stride = stride;
    }

    /// Commit: make the transaction durable, then release its shadow
    /// pages (they become ordinary invalid data for the cleaner to
    /// reclaim).
    ///
    /// The atomic commit point is writing the commit record into the
    /// persistent transaction journal (battery-backed SRAM, the same
    /// replay machinery as §3.4 cleaning). A power failure before it
    /// leaves the transaction open — [`Engine::recover`] rolls it back;
    /// one after it leaves a durable commit record — recovery finishes
    /// the release and the transaction stays committed. Either way the
    /// multi-page write set is all-or-nothing.
    ///
    /// # Errors
    ///
    /// [`EnvyError::NoSuchTxn`] if `txn` is not an open transaction;
    /// [`EnvyError::PowerLoss`] at an armed injection point.
    pub fn txn_commit(&mut self, txn: u64) -> Result<(), EnvyError> {
        if !self.open_txns.contains(&txn) {
            return Err(EnvyError::NoSuchTxn { txn });
        }
        self.crash_point(InjectionPoint::CommitBefore)?;
        // The durable commit point: once this record is journaled,
        // recovery completes this transaction's commit instead of
        // rolling it back — independently of any other open transaction.
        self.txn_journal.push(txn);
        self.crash_point(InjectionPoint::CommitAfterJournal)?;
        self.finish_commit(txn);
        self.crash_point(InjectionPoint::CommitAfterPoint)?;
        Ok(())
    }

    /// Release a journaled commit: drop the transaction's shadow
    /// directory entries in place, forget its fresh pages, free its
    /// slot, and clear its commit record. Other open transactions are
    /// untouched. Called from [`Engine::txn_commit`] and, after a crash
    /// that left the record behind, from [`Engine::recover`].
    pub(crate) fn finish_commit(&mut self, txn: u64) {
        self.shadows.release_txn(txn);
        self.txn_fresh.retain(|_, t| *t != txn);
        self.open_txns.retain(|&t| t != txn);
        self.txn_journal.retain(|&t| t != txn);
        self.stats.txn_commits.add(1);
    }

    /// Abort: restore every written page to its shadow copy by repointing
    /// the page table back at the original Flash data (§6 rollback).
    ///
    /// # Errors
    ///
    /// [`EnvyError::NoSuchTxn`] if `txn` is not an open transaction;
    /// [`EnvyError::PowerLoss`] at an armed injection point (the
    /// rollback then completes inside [`Engine::recover`]).
    pub fn txn_abort(&mut self, txn: u64) -> Result<(), EnvyError> {
        if !self.open_txns.contains(&txn) {
            return Err(EnvyError::NoSuchTxn { txn });
        }
        self.crash_point(InjectionPoint::AbortBefore)?;
        self.rollback_open(txn)
    }

    /// Roll the open transaction `txn` back page by page and close it.
    /// Shared by [`Engine::txn_abort`] and [`Engine::recover`] (an
    /// uncommitted transaction found open after a crash); idempotent
    /// under re-execution, so a crash at any point inside simply leaves
    /// the remainder for recovery. Only `txn`'s write set is touched —
    /// other open transactions keep their slots and shadows.
    pub(crate) fn rollback_open(&mut self, txn: u64) -> Result<(), EnvyError> {
        let mut scratch = std::mem::take(&mut self.txn_scratch);
        self.shadows.pages_of_into(txn, &mut scratch);
        let mut outcome = Ok(());
        for &(lp, shadow) in &scratch {
            if let Err(e) = self.rollback_page(lp, shadow) {
                outcome = Err(e);
                break;
            }
            // The page is restored; only now does its directory entry
            // go away, so a crash below leaves exactly the unrestored
            // remainder for recovery to finish.
            self.shadows.remove(lp);
            if let Err(e) = self.crash_point(InjectionPoint::AbortMidRollback) {
                outcome = Err(e);
                break;
            }
        }
        scratch.clear();
        self.txn_scratch = scratch;
        outcome?;
        // Pages born inside the transaction return to the unmapped state
        // (reads observe erased bytes again). Sorted so a mid-rollback
        // crash is deterministic under a replayed fault plan.
        let mut fresh: Vec<LogicalPage> = self
            .txn_fresh
            .iter()
            .filter(|&(_, t)| *t == txn)
            .map(|(&lp, _)| lp)
            .collect();
        fresh.sort_unstable();
        for lp in fresh {
            match self.page_table.lookup(lp) {
                Location::Sram(frame) => {
                    self.buffer.remove(frame);
                }
                Location::Flash(cur) => {
                    self.flash.invalidate_page(cur.segment, cur.page)?;
                }
                Location::Unmapped => {}
            }
            self.page_table.unmap(lp);
            self.mmu.invalidate(lp);
            self.txn_fresh.remove(&lp);
            self.crash_point(InjectionPoint::AbortMidRollback)?;
        }
        self.crash_point(InjectionPoint::AbortAfterRollback)?;
        self.open_txns.retain(|&t| t != txn);
        self.stats.txn_aborts.add(1);
        Ok(())
    }

    /// Restore one page to its pre-transaction shadow copy.
    fn rollback_page(&mut self, lp: LogicalPage, shadow: FlashLocation) -> Result<(), EnvyError> {
        match self.page_table.lookup(lp) {
            Location::Sram(frame) => {
                self.buffer.remove(frame);
            }
            Location::Flash(cur) => {
                // The dirty version was flushed during the
                // transaction; discard it.
                self.flash.invalidate_page(cur.segment, cur.page)?;
            }
            Location::Unmapped => unreachable!("shadowed page cannot be unmapped"),
        }
        self.flash.revalidate_page(shadow.segment, shadow.page)?;
        self.page_table.map_flash(lp, shadow);
        self.mmu.invalidate(lp);
        Ok(())
    }

    /// The currently open transactions, in begin order.
    pub fn open_txns(&self) -> &[u64] {
        &self.open_txns
    }

    /// The open transaction (if any) whose write set contains the page.
    pub fn txn_owner_of(&self, lp: LogicalPage) -> Option<u64> {
        self.shadows
            .owner_of(lp)
            .or_else(|| self.txn_fresh.get(&lp).copied())
    }

    /// The journaled-but-unreleased commit records, in commit order.
    /// Non-empty only in the window between a transaction's durable
    /// commit point and its shadow release — the state a crash at
    /// [`InjectionPoint::CommitAfterJournal`] leaves behind.
    pub fn commit_records(&self) -> &[u64] {
        &self.txn_journal
    }

    /// Number of protected shadow pages.
    pub fn shadow_pages(&self) -> usize {
        self.shadows.len()
    }
}
