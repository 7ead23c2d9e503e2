//! Crash and power-failure recovery.
//!
//! Everything the controller needs is in persistent memory: the Flash
//! array (inherently non-volatile), the battery-backed SRAM write buffer
//! and page table, the transaction state, and the cleaning journal
//! (§3.4: "The state of the cleaning process is kept in persistent
//! memory so the controller can recover quickly after a failure").
//! Volatile state — the MMU mapping cache and in-flight
//! background-operation timing — is discarded by
//! [`Engine::power_failure`] and rebuilt here.
//!
//! [`Engine::recover`] restores the invariants in five steps, each
//! matched to the debris one class of crash leaves behind (the full
//! catalog is in `docs/CRASH_CONSISTENCY.md` and, for transactions,
//! `docs/TRANSACTIONS.md`):
//!
//! 1. release shadow bookkeeping of transactions that already passed
//!    their commit point (crash between commit point and release);
//! 2. scavenge *orphans* — valid flash pages no logical page references
//!    (a flush or copy that programmed, possibly torn, but never
//!    repointed the page table);
//! 3. drop buffered pages whose logical page no longer maps to SRAM (a
//!    flush that repointed the page table but never popped the buffer);
//! 4. replay the clean journal, completing any interrupted clean or
//!    wear relocation (this also relocates pinned transaction shadows
//!    off the victim);
//! 5. resolve every in-flight transaction to all-or-nothing,
//!    independently: each journaled commit record finishes its commit
//!    (release that transaction's shadows, clear its record); each open
//!    uncommitted transaction rolls back to its pre-transaction page
//!    images, in begin order.

use crate::addr::Location;
use crate::engine::Engine;
use crate::error::EnvyError;
use crate::timing::BgOp;
use envy_flash::PageState;

/// Persistent record of an in-progress clean or wear relocation (victim,
/// destination and position); copied pages are recoverable from the page
/// table itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanJournal {
    /// The position being cleaned.
    pub pos: u32,
    /// The physical victim segment.
    pub victim: u32,
    /// The physical destination (the spare at clean start).
    pub dest: u32,
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A mid-clean journal was found and the clean was completed.
    pub resumed_clean: bool,
    /// Pages that survived in the battery-backed write buffer.
    pub buffered_pages: usize,
    /// Shadow pages still protected for an open transaction.
    pub shadow_pages: usize,
    /// Orphaned valid flash pages invalidated (torn or unmapped
    /// programs cut by the failure).
    pub scavenged_pages: u64,
    /// Buffered pages discarded because their logical page already
    /// mapped to flash (the flush completed; only the pop was lost).
    pub dropped_buffer_pages: u64,
    /// Shadow entries released because their transaction had already
    /// passed its commit point.
    pub released_shadows: u64,
    /// Journaled commit records found, in commit order; each commit was
    /// completed (that transaction's writes are durable and visible).
    pub txn_completed: Vec<u64>,
    /// Open, uncommitted transactions found, in begin order; each was
    /// rolled back to its pre-transaction page images (its writes are
    /// gone).
    pub txn_rolled_back: Vec<u64>,
}

impl Engine {
    /// Simulate a power failure: volatile state is lost; Flash, the
    /// battery-backed buffer, page table, transaction ids and clean
    /// journal survive.
    ///
    /// Volatile state means the MMU mapping cache and the in-progress
    /// flag of a wear swap (page copies move arena to arena, so the
    /// controller holds no copy buffer to lose).
    /// Callers holding un-replayed [`BgOp`]s must drop them — the timed
    /// store does this in [`crate::store::EnvyStore::power_failure`].
    pub fn power_failure(&mut self) {
        self.mmu.invalidate_all();
        self.wear_in_progress = false;
    }

    /// Recover after a power failure: rebuild volatile state, clear the
    /// debris of the interrupted operation, complete any journaled clean
    /// and verify consistency. See the module docs for the step-by-step
    /// contract.
    ///
    /// # Errors
    ///
    /// [`EnvyError::CorruptState`] if the persistent structures are
    /// inconsistent after repair (use [`Engine::check_invariants`] for
    /// details); cleaning errors while completing an interrupted clean.
    pub fn recover(&mut self, ops: &mut Vec<BgOp>) -> Result<RecoveryReport, EnvyError> {
        self.mmu.invalidate_all();
        // 1. Transactions past their commit point: the shadow directory
        // and fresh-page map may still hold entries for them; release
        // everything not owned by a still-open transaction.
        let released_shadows = self.shadows.release_stale(&self.open_txns);
        self.stats.recovery_stale_shadows.add(released_shadows);
        let open = std::mem::take(&mut self.open_txns);
        self.txn_fresh.retain(|_, t| open.contains(t));
        self.open_txns = open;
        // 2–3. Flush/copy debris.
        let scavenged_pages = self.scavenge_orphans()?;
        let dropped_buffer_pages = self.drop_stale_buffer_entries();
        // 4. Journal replay.
        let resumed_clean = if let Some(journal) = self.journal {
            self.finish_clean(journal, ops)?;
            true
        } else {
            false
        };
        // 5. Resolve every in-flight transaction to all-or-nothing,
        // independently. This runs after the clean replay so any shadows
        // the interrupted clean was relocating have already landed at
        // their final locations. A journaled commit record wins — that
        // transaction passed its durable commit point, so finish its
        // release; every remaining open transaction never committed and
        // rolls back, in begin order.
        let txn_completed: Vec<u64> = self.txn_journal.clone();
        for &txn in &txn_completed {
            self.finish_commit(txn);
        }
        let txn_rolled_back: Vec<u64> = self.open_txns.clone();
        for &txn in &txn_rolled_back {
            self.rollback_open(txn)?;
        }
        self.check_invariants()
            .map_err(|_| EnvyError::CorruptState)?;
        Ok(RecoveryReport {
            resumed_clean,
            buffered_pages: self.buffer.len(),
            shadow_pages: self.shadows.len(),
            scavenged_pages,
            dropped_buffer_pages,
            released_shadows,
            txn_completed,
            txn_rolled_back,
        })
    }

    /// Invalidate every valid flash page that no logical page
    /// references: the debris of a program (whole or torn) whose page-
    /// table update was cut off. Shadow pages are untouched — they are
    /// already invalid in the array.
    fn scavenge_orphans(&mut self) -> Result<u64, EnvyError> {
        let segments = self.config.geometry.segments();
        let pps = self.config.geometry.pages_per_segment();
        let mut referenced = vec![false; (segments as usize) * (pps as usize)];
        for lp in 0..self.page_table.logical_pages() {
            if let Location::Flash(loc) = self.page_table.lookup(lp) {
                referenced[(loc.segment * pps + loc.page) as usize] = true;
            }
        }
        let mut scavenged = 0u64;
        for seg in 0..segments {
            for page in 0..pps {
                if self.flash.page_state(seg, page) == PageState::Valid
                    && !referenced[(seg * pps + page) as usize]
                {
                    self.flash.invalidate_page(seg, page)?;
                    scavenged += 1;
                }
            }
        }
        self.stats.recovery_scavenged.add(scavenged);
        Ok(scavenged)
    }

    /// Drop buffered pages whose logical page does not map to SRAM: the
    /// flush already made the flash copy the page of record; only the
    /// buffer pop was lost.
    fn drop_stale_buffer_entries(&mut self) -> u64 {
        let stale: Vec<u32> = self
            .buffer
            .iter()
            .filter(|&(frame, p)| self.page_table.lookup(p.logical) != Location::Sram(frame))
            .map(|(frame, _)| frame)
            .collect();
        let dropped = stale.len() as u64;
        for frame in stale {
            self.buffer.remove(frame);
        }
        self.stats.recovery_dropped_buffer.add(dropped);
        dropped
    }

    /// Complete an interrupted clean: pages already copied were remapped
    /// before the crash, so the page table's remaining residents of the
    /// victim are exactly the uncopied pages. Re-executing the tail is
    /// idempotent — at worst the victim is erased a second time (one
    /// extra cycle) when the crash hit after the erase.
    fn finish_clean(
        &mut self,
        journal: CleanJournal,
        ops: &mut Vec<BgOp>,
    ) -> Result<(), EnvyError> {
        let CleanJournal { pos, victim, dest } = journal;
        for (page, lp) in self.page_table.residents_of(victim) {
            let t = self.copy_flash_page(
                crate::addr::FlashLocation {
                    segment: victim,
                    page,
                },
                dest,
                lp,
                None,
            )?;
            self.stats.clean_programs.incr();
            ops.push(BgOp::once(
                self.flash.bank_of(dest),
                crate::timing::BgKind::CleanCopy,
                t,
            ));
        }
        self.complete_clean_tail(pos, victim, dest, ops)?;
        self.stats.cleans.incr();
        Ok(())
    }

    /// Whether a clean is recorded as in progress (test support).
    pub fn clean_in_progress(&self) -> bool {
        self.journal.is_some()
    }
}
