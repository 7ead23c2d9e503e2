//! Wear leveling (§4.3).
//!
//! "eNVy keeps statistics on the number of program/erase cycles each
//! segment has been exposed to and when the oldest segment gets over 100
//! cycles older than the youngest, a cleaning operation is initiated that
//! swaps the data in the two areas. This leads to an even wearing of the
//! segments."

use crate::engine::recovery::CleanJournal;
use crate::engine::{Engine, InjectionPoint};
use crate::error::EnvyError;
use crate::timing::{BgKind, BgOp};

impl Engine {
    /// Check the wear spread and swap the most- and least-worn segments'
    /// data if it exceeds the configured threshold. Called after every
    /// erase; re-entry during a swap is suppressed.
    pub(crate) fn maybe_wear_level(&mut self, ops: &mut Vec<BgOp>) -> Result<(), EnvyError> {
        if self.wear_in_progress || self.config.wear_threshold == u64::MAX {
            return Ok(());
        }
        let segments = self.config.geometry.segments();
        let (mut worn, mut young) = (0u32, 0u32);
        let (mut max_c, mut min_c) = (0u64, u64::MAX);
        for seg in 0..segments {
            let c = self.flash.erase_cycles(seg);
            if c > max_c {
                max_c = c;
                worn = seg;
            }
            if c < min_c {
                min_c = c;
                young = seg;
            }
        }
        if max_c - min_c <= self.config.wear_threshold {
            return Ok(());
        }
        // The most-worn segment may already be resting under cold data
        // from a previous swap; swapping it again would only add cycles.
        // It becomes eligible again once normal cleaning recycles it.
        if self.wear_parked == Some(worn) {
            return Ok(());
        }
        self.wear_in_progress = true;
        let result = self.wear_swap(worn, young, ops);
        self.wear_in_progress = false;
        result?;
        self.wear_parked = Some(worn);
        self.stats.wear_swaps.incr();
        self.trace
            .emit(crate::trace::TraceEvent::WearSwap { worn, young });
        Ok(())
    }

    /// Swap the data of the most-worn and least-worn segments so the worn
    /// one rests under cold data (or as the spare). The paper calls the
    /// swap "a cleaning operation", and it is built as one or two
    /// journaled [`Engine::wear_relocate`] steps so a power failure at
    /// any point is recovered by the same journal replay as a clean.
    fn wear_swap(&mut self, worn: u32, young: u32, ops: &mut Vec<BgOp>) -> Result<(), EnvyError> {
        if young == self.spare {
            // The least-worn segment is the (empty) spare: park the worn
            // segment's data there and let the worn segment rest as the
            // spare.
            self.wear_relocate(worn, young, ops)
        } else if worn == self.spare {
            // The most-worn segment is the spare: give it the youngest
            // segment's (cold, rarely cleaned) data so it stops cycling.
            self.wear_relocate(young, worn, ops)
        } else {
            // General case: rotate through the spare. The worn segment's
            // (hot) data moves to the spare; the young segment's (cold)
            // data moves onto the worn segment (the spare after the first
            // step); the young segment becomes the new spare and absorbs
            // future cycles. A crash between the two steps abandons the
            // second — the wear spread is still over threshold, so the
            // next erase re-triggers it.
            self.wear_relocate(worn, self.spare, ops)?;
            self.wear_relocate(young, worn, ops)
        }
    }

    /// One journaled wear relocation: move `victim`'s data (live and
    /// shadow pages) onto the erased spare `dest`, erase the victim and
    /// rotate it into the spare role. Structurally identical to the
    /// data-moving half of a clean, so the persistent [`CleanJournal`]
    /// covers it and [`Engine::recover`] completes it after a crash.
    fn wear_relocate(
        &mut self,
        victim: u32,
        dest: u32,
        ops: &mut Vec<BgOp>,
    ) -> Result<(), EnvyError> {
        debug_assert_eq!(dest, self.spare, "wear relocations fill the spare");
        let pos = self.pos_of[victim as usize];
        self.journal = Some(CleanJournal { pos, victim, dest });
        self.crash_point(InjectionPoint::WearAfterJournal)?;
        self.move_segment_data(victim, dest, ops)?;
        self.complete_clean_tail(pos, victim, dest, ops)
    }

    /// Copy every live page and shadow page of `from` into the (erased)
    /// segment `to`, preserving order.
    fn move_segment_data(
        &mut self,
        from: u32,
        to: u32,
        ops: &mut Vec<BgOp>,
    ) -> Result<(), EnvyError> {
        // Same batched shape as `clean_inner`: reuse the persistent scan
        // buffer and coalesce the per-page WearCopy stream; early exits
        // still flush the batch and hand the buffer back.
        let residents = {
            let mut buf = std::mem::take(&mut self.resident_scan);
            self.page_table.residents_into(from, &mut buf);
            buf
        };
        let mut batch = crate::timing::BgBatcher::new();
        let mut failure = None;
        for &(page, lp) in &residents {
            let t = match self.copy_flash_page(
                crate::addr::FlashLocation {
                    segment: from,
                    page,
                },
                to,
                lp,
                Some(InjectionPoint::WearDuringCopy),
            ) {
                Ok(t) => t,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            self.stats.wear_programs.incr();
            batch.add(self.flash.bank_of(to), BgKind::WearCopy, t, ops);
            if let Err(e) = self.crash_point(InjectionPoint::WearAfterCopy) {
                failure = Some(e);
                break;
            }
        }
        batch.finish(ops);
        self.resident_scan = residents;
        if let Some(e) = failure {
            return Err(e);
        }
        for (page, lp) in self.shadows.residents_of(from) {
            self.flash.read_page(from, page, None)?;
            let data = envy_flash::PageData::Page {
                segment: from,
                page,
            };
            let (t, to_page) = self.program_retrying(to, data)?;
            self.flash.invalidate_page(to, to_page)?;
            self.shadows.relocate(
                lp,
                crate::addr::FlashLocation {
                    segment: to,
                    page: to_page,
                },
            );
            self.stats.wear_programs.incr();
            ops.push(BgOp::once(self.flash.bank_of(to), BgKind::WearCopy, t));
            self.crash_point(InjectionPoint::WearAfterCopy)?;
        }
        Ok(())
    }
}
