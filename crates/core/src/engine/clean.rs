//! The cleaning driver (§3.4, §4).
//!
//! Cleaning copies a segment's live data, in page order, to the erased
//! spare segment, then erases the victim, which becomes the new spare.
//! Under locality gathering, some pages are diverted ("shed") to
//! neighbouring partitions instead, re-apportioning free space. Shadow
//! pages owned by open transactions are relocated along with live data
//! (§6: the controller "has to keep track of the location of the shadow
//! copies and protect them from being cleaned").

use crate::addr::{FlashLocation, LogicalPage};
use crate::engine::policy::{LgPlan, ShedPlan};
use crate::engine::recovery::CleanJournal;
use crate::engine::{Engine, InjectionPoint, POS_NONE};
use crate::error::EnvyError;
use crate::timing::{BgBatcher, BgKind, BgOp};
use envy_flash::{FlashError, PageData};
use envy_sim::time::Ns;

impl Engine {
    /// Clean the segment at `pos`: shed per the locality-gathering plan,
    /// copy remaining live data to the spare, erase, and swap the spare
    /// into the position. Exposed publicly for maintenance-style forced
    /// cleaning (e.g. draining invalid space before a planned shutdown).
    ///
    /// # Errors
    ///
    /// Propagates Flash errors (engine bugs) and [`EnvyError::ArrayFull`]
    /// from pathological utilization.
    pub fn clean_position(&mut self, pos: u32, ops: &mut Vec<BgOp>) -> Result<(), EnvyError> {
        let mut shed = match self.lg_plan(pos) {
            LgPlan::Shed(s) => s,
            LgPlan::None => ShedPlan::default(),
        };
        let victim = self.order[pos as usize];
        // A 100%-live victim cannot yield space by cleaning in place:
        // divert pages somewhere else or fail.
        if shed.total == 0
            && self.flash.valid_pages(victim) == self.config.geometry.pages_per_segment()
        {
            shed = self.forced_shed_plan(pos);
        }
        self.clean_inner(pos, shed, None, ops)
    }

    /// Test/recovery hook: run a clean but stop after `after_copies` page
    /// copies, leaving the persistent clean journal set, as if power
    /// failed mid-clean. [`Engine::recover`] completes it.
    ///
    /// # Errors
    ///
    /// As [`Engine::clean_position`].
    pub fn clean_interrupted(
        &mut self,
        pos: u32,
        after_copies: u32,
        ops: &mut Vec<BgOp>,
    ) -> Result<(), EnvyError> {
        self.clean_inner(pos, ShedPlan::default(), Some(after_copies), ops)
    }

    fn clean_inner(
        &mut self,
        pos: u32,
        plan: ShedPlan,
        interrupt_after: Option<u32>,
        ops: &mut Vec<BgOp>,
    ) -> Result<(), EnvyError> {
        assert!(
            interrupt_after.is_none() || plan.total == 0,
            "interrupted cleans do not support redistribution"
        );
        let victim = self.order[pos as usize];
        let dest = self.spare;
        debug_assert_eq!(
            self.flash.erased_pages(dest),
            self.config.geometry.pages_per_segment(),
            "spare must be fully erased"
        );
        // §3.4: "The state of the cleaning process is kept in persistent
        // memory so the controller can recover quickly after a failure."
        self.journal = Some(CleanJournal { pos, victim, dest });
        self.crash_point(InjectionPoint::CleanAfterJournal)?;

        // Reuse the engine's persistent scan buffer — at paper scale a
        // victim holds up to 65 536 residents, and a fresh Vec per clean
        // is measurable allocator traffic.
        let residents = {
            let mut buf = std::mem::take(&mut self.resident_scan);
            self.page_table.residents_into(victim, &mut buf);
            buf
        };
        let n = residents.len();
        self.trace.emit(crate::trace::TraceEvent::CleanStart {
            position: pos,
            victim,
            live_pages: n as u32,
        });
        let shed_n = (plan.total as usize).min(n);
        // §4.3: pages headed for a higher-numbered (colder) partition are
        // taken from the beginning (the cold end); pages headed lower are
        // taken from the end (the hot end).
        let shed_range = if plan.from_head {
            0..shed_n
        } else {
            n - shed_n..n
        };
        let mut shed_slots = plan
            .dests
            .iter()
            .flat_map(|&(pos, count)| std::iter::repeat_n(pos, count as usize));

        // Copies to one destination all cost the same program time, so
        // the op stream coalesces into one batch per destination run.
        // Early exits (injected crash, simulated interruption) must still
        // flush the batch and hand the scan buffer back, hence the
        // deferred-outcome shape instead of `?`/`return` in the loop.
        let mut batch = BgBatcher::new();
        let mut outcome: Result<bool, EnvyError> = Ok(false);
        let mut copied = 0u32;
        for (i, &(page, lp)) in residents.iter().enumerate() {
            let (to_seg, is_shed) = if shed_range.contains(&i) {
                let slot = shed_slots.next().expect("plan covers shed range");
                (self.order[slot as usize], true)
            } else {
                (dest, false)
            };
            let t = match self.copy_flash_page(
                FlashLocation {
                    segment: victim,
                    page,
                },
                to_seg,
                lp,
                Some(InjectionPoint::CleanDuringCopy),
            ) {
                Ok(t) => t,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            };
            self.stats.clean_programs.incr();
            if is_shed {
                self.stats.shed_programs.incr();
                self.trace.emit(crate::trace::TraceEvent::Shed {
                    lp,
                    to_segment: to_seg,
                });
            }
            batch.add(self.flash.bank_of(to_seg), BgKind::CleanCopy, t, ops);
            if let Err(e) = self.crash_point(InjectionPoint::CleanAfterCopy) {
                outcome = Err(e);
                break;
            }
            copied += 1;
            if interrupt_after == Some(copied) {
                // Simulated mid-clean power failure: journal stays set.
                outcome = Ok(true);
                break;
            }
        }
        batch.finish(ops);
        self.resident_scan = residents;
        match outcome {
            Ok(false) => {}
            Ok(true) => return Ok(()),
            Err(e) => return Err(e),
        }
        self.complete_clean_tail(pos, victim, dest, ops)?;
        self.stats.cleans.incr();
        self.trace
            .emit(crate::trace::TraceEvent::CleanEnd { victim });
        Ok(())
    }

    /// Copy one live Flash page (read on the wide datapath, program the
    /// first erased page of `to_seg`, invalidate the source, atomically
    /// repoint the page table).
    ///
    /// Injected program faults are retried on the next erased page of
    /// the destination (see [`Engine::program_retrying`]). When
    /// `torn` names an armed injection point the program is cut
    /// mid-transfer and [`EnvyError::PowerLoss`] returned: the source
    /// stays valid and mapped, so recovery merely scavenges the torn
    /// destination page.
    pub(crate) fn copy_flash_page(
        &mut self,
        from: FlashLocation,
        to_seg: u32,
        lp: LogicalPage,
        torn: Option<InjectionPoint>,
    ) -> Result<Ns, EnvyError> {
        self.flash.read_page(from.segment, from.page, None)?;
        let data = PageData::Page {
            segment: from.segment,
            page: from.page,
        };
        if let Some(point) = torn {
            if self.crash_armed(point) {
                let chips = self.torn_chips();
                let page = self.write_cursor(to_seg);
                self.flash.program_page_torn(to_seg, page, data, chips)?;
                return Err(EnvyError::PowerLoss);
            }
        }
        let (t, to_page) = self.program_retrying(to_seg, data)?;
        self.flash.invalidate_page(from.segment, from.page)?;
        self.page_table.map_flash(
            lp,
            FlashLocation {
                segment: to_seg,
                page: to_page,
            },
        );
        self.mmu.invalidate(lp);
        Ok(t)
    }

    /// Program `data` (the Flash page being copied; ignored when payloads
    /// are not stored) into the first erased page of `seg`, retrying on
    /// the next erased page after an injected verify failure. Returns the
    /// program time and the page that finally took the data.
    ///
    /// # Errors
    ///
    /// [`EnvyError::ArrayFull`] if injected faults exhaust the segment's
    /// erased pages — copy destinations are sized for the fault-free
    /// case, so a cleaning destination can in principle overflow under
    /// heavy injected faults; callers surface the error.
    pub(crate) fn program_retrying(
        &mut self,
        seg: u32,
        data: PageData<'_>,
    ) -> Result<(Ns, u32), EnvyError> {
        loop {
            if !self.has_space(seg) {
                return Err(EnvyError::ArrayFull);
            }
            let page = self.write_cursor(seg);
            match self.flash.program_page(seg, page, data) {
                Ok(t) => return Ok((t, page)),
                Err(FlashError::ProgramFailed { .. }) => {
                    self.stats.program_faults.incr();
                    self.stats.program_retries.incr();
                    self.trace
                        .emit(crate::trace::TraceEvent::ProgramFault { segment: seg });
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Erase a segment, reissuing the erase after an injected verify
    /// failure (a failed erase leaves every page indeterminate, which
    /// the array models as invalid — exactly the precondition for the
    /// retry). Only the successful pulse's time is returned.
    pub(crate) fn erase_retrying(&mut self, seg: u32) -> Result<Ns, EnvyError> {
        loop {
            match self.flash.erase_segment(seg) {
                Ok(t) => return Ok(t),
                Err(FlashError::EraseFailed { .. }) => {
                    self.stats.erase_faults.incr();
                    self.stats.erase_retries.incr();
                    self.trace
                        .emit(crate::trace::TraceEvent::EraseFault { segment: seg });
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Shared tail of a clean: relocate shadow pages, erase the victim,
    /// rotate the spare, and run the wear-leveling check. Also the tail
    /// of a journaled wear relocation and of journal replay, so every
    /// step is idempotent under re-execution after a crash (the
    /// `cleans` statistic is counted by the callers, not here, so wear
    /// relocations do not inflate it).
    pub(crate) fn complete_clean_tail(
        &mut self,
        pos: u32,
        victim: u32,
        dest: u32,
        ops: &mut Vec<BgOp>,
    ) -> Result<(), EnvyError> {
        // Relocate transaction shadow copies (§6). They are invalid pages
        // in the array but their contents must survive the erase.
        for (page, lp) in self.shadows.residents_of(victim) {
            self.flash.read_page(victim, page, None)?;
            let data = PageData::Page {
                segment: victim,
                page,
            };
            if self.crash_armed(InjectionPoint::CleanDuringShadowCopy) {
                // Torn shadow relocation: the original shadow survives in
                // the victim; the torn destination page becomes garbage
                // for recovery to scavenge.
                let chips = self.torn_chips();
                let to_page = self.write_cursor(dest);
                self.flash.program_page_torn(dest, to_page, data, chips)?;
                return Err(EnvyError::PowerLoss);
            }
            let (t, to_page) = self.program_retrying(dest, data)?;
            // The shadow is not live data: return it to the invalid state
            // and update the shadow directory.
            self.flash.invalidate_page(dest, to_page)?;
            self.shadows.relocate(
                lp,
                FlashLocation {
                    segment: dest,
                    page: to_page,
                },
            );
            self.stats.clean_programs.incr();
            self.stats.shadow_programs.incr();
            ops.push(BgOp::once(self.flash.bank_of(dest), BgKind::CleanCopy, t));
        }
        self.crash_point(InjectionPoint::CleanBeforeErase)?;

        if self.wear_parked == Some(victim) {
            self.wear_parked = None;
        }
        if self.crash_armed(InjectionPoint::CleanDuringErase) {
            // Torn erase: every page of the victim left indeterminate;
            // recovery's journal replay reissues the erase.
            self.flash.erase_segment_torn(victim)?;
            return Err(EnvyError::PowerLoss);
        }
        let t = self.erase_retrying(victim)?;
        self.trace.emit(crate::trace::TraceEvent::Erase {
            segment: victim,
            cycles: self.flash.erase_cycles(victim),
        });
        ops.push(BgOp::once(self.flash.bank_of(victim), BgKind::Erase, t));
        self.crash_point(InjectionPoint::CleanAfterErase)?;
        self.order[pos as usize] = dest;
        self.pos_of[dest as usize] = pos;
        self.pos_of[victim as usize] = POS_NONE;
        self.spare = victim;
        self.stats.erases.incr();
        self.crash_point(InjectionPoint::CleanAfterRotate)?;
        self.journal = None;
        self.maybe_wear_level(ops)
    }
}
