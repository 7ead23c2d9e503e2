//! Flushing pages from the SRAM write buffer into Flash (§3.2, §3.4).

use crate::addr::FlashLocation;
use crate::engine::{Engine, InjectionPoint};
use crate::error::EnvyError;
use crate::timing::{BgKind, BgOp};
use envy_flash::{FlashError, PageData};

impl Engine {
    /// Flush from the tail until the buffer is back at the threshold
    /// (§3.2: "Pages are flushed from the buffer when their number
    /// exceeds a certain threshold").
    ///
    /// # Errors
    ///
    /// Propagates cleaning errors.
    pub(crate) fn maybe_flush(&mut self, ops: &mut Vec<BgOp>) -> Result<(), EnvyError> {
        while self.buffer.len() > self.config.flush_threshold {
            self.flush_tail(ops)?;
        }
        Ok(())
    }

    /// Drain the buffer completely (used by transaction begin and
    /// shutdown).
    ///
    /// # Errors
    ///
    /// Propagates cleaning errors.
    pub fn flush_all(&mut self, ops: &mut Vec<BgOp>) -> Result<(), EnvyError> {
        while !self.buffer.is_empty() {
            self.flush_tail(ops)?;
        }
        Ok(())
    }

    /// Flush the oldest buffered page to Flash, cleaning first if the
    /// policy's target segment has no space.
    ///
    /// Crash-safe ordering: the page is programmed and the page table
    /// repointed *before* the buffered copy is popped, so at every
    /// injection point the page of record (battery-backed SRAM until the
    /// map update, Flash afterwards) survives a power cut. An injected
    /// `program_error` is retried on the next erased page of the target
    /// segment, remapping to a fresh target if retries exhaust it.
    ///
    /// # Errors
    ///
    /// Propagates cleaning errors and armed power failures
    /// ([`EnvyError::PowerLoss`]); does nothing on an empty buffer.
    pub(crate) fn flush_tail(&mut self, ops: &mut Vec<BgOp>) -> Result<(), EnvyError> {
        let Some(tail) = self.buffer.peek_tail() else {
            return Ok(());
        };
        let origin = tail.origin;
        let logical = tail.logical;
        // Resolve the destination first — it may trigger a clean, which
        // never touches the buffer.
        let pos = self.policy_flush_target(origin, ops)?;
        let mut phys = self.order[pos as usize];
        self.crash_point(InjectionPoint::FlushBeforeProgram)?;
        if self.crash_armed(InjectionPoint::FlushDuringProgram) {
            // Torn program: a prefix of the bank's chips latch their
            // byte, then the power cuts. The SRAM copy is still the page
            // of record; recovery scavenges the orphan.
            let chips = self.torn_chips();
            let pg = self.write_cursor(phys);
            // The frame itself is the program's source: it stays live
            // until the pop.
            let data = self
                .buffer
                .frame_span(logical)
                .map_or(PageData::None, PageData::Bytes);
            self.flash.program_page_torn(phys, pg, data, chips)?;
            return Err(EnvyError::PowerLoss);
        }
        // Program with retry-then-remap on an injected verify failure: a
        // failed page is dead (invalid until erased), so retry on the
        // next erased page; if failures exhaust the segment, re-resolve
        // a fresh target (which may clean).
        let (t, pg) = loop {
            if !self.has_space(phys) {
                let npos = self.policy_flush_target(origin, ops)?;
                let exhausted = phys;
                phys = self.order[npos as usize];
                self.stats.program_remaps.incr();
                self.trace
                    .emit(crate::trace::TraceEvent::Remap { segment: exhausted });
            }
            let pg = self.write_cursor(phys);
            let data = self
                .buffer
                .frame_span(logical)
                .map_or(PageData::None, PageData::Bytes);
            match self.flash.program_page(phys, pg, data) {
                Ok(t) => break (t, pg),
                Err(FlashError::ProgramFailed { .. }) => {
                    self.stats.program_faults.incr();
                    self.stats.program_retries.incr();
                    self.trace
                        .emit(crate::trace::TraceEvent::ProgramFault { segment: phys });
                }
                Err(e) => return Err(e.into()),
            }
        };
        self.crash_point(InjectionPoint::FlushAfterProgram)?;
        self.page_table.map_flash(
            logical,
            FlashLocation {
                segment: phys,
                page: pg,
            },
        );
        self.mmu.invalidate(logical);
        self.crash_point(InjectionPoint::FlushAfterMap)?;
        self.buffer.pop_tail().expect("peeked above");
        self.stats.pages_flushed.incr();
        self.trace.emit(crate::trace::TraceEvent::Flush {
            lp: logical,
            segment: phys,
        });
        self.flush_clock += 1;
        self.seg_last_write[phys as usize] = self.flush_clock;
        ops.push(BgOp::once(self.flash.bank_of(phys), BgKind::Flush, t));
        Ok(())
    }
}
