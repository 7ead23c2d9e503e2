//! The eNVy controller engine: state and logical operations.
//!
//! The engine owns the Flash array, the SRAM write buffer, the page table
//! and the cleaning-policy state, and implements every state transition of
//! the system — copy-on-write, flushing, cleaning, wear leveling,
//! transactions and recovery — as *logical* operations that also report
//! the device time each step would cost (as [`crate::timing::BgOp`]s).
//! The timing layer in [`crate::store`] replays that time against the
//! simulated clock.
//!
//! # Segment positions
//!
//! Cleaning policies reason about stable *positions* (the paper's segment
//! numbering for locality gathering), while physical segments rotate
//! through the spare role. `order[position] = physical segment` and
//! `pos_of[physical] = position` maintain the indirection; exactly one
//! physical segment — the spare — has no position and is always erased
//! (§3.4: "eNVy must always keep one segment completely erased").

mod clean;
mod faults;
mod flush;
mod host;
mod policy;
mod recovery;
#[cfg(test)]
mod tests;
mod txn;
mod wear;

pub use faults::{FaultPlan, InjectionPoint};
pub use host::{ReadSource, WriteKind, WriteResult};
pub use policy::PolicyState;
pub use recovery::{CleanJournal, RecoveryReport};
pub use txn::ShadowTable;

use crate::addr::AddrMap;
use crate::config::EnvyConfig;
use crate::error::EnvyError;
use crate::mmu::Mmu;
use crate::page_table::PageTable;
use crate::stats::EnvyStats;
use envy_flash::{FlashArray, PageData};
use envy_sram::WriteBuffer;

/// Marker for "this physical segment has no position" (it is the spare).
pub(crate) const POS_NONE: u32 = u32::MAX;

/// The eNVy controller state machine.
///
/// Most users interact through [`crate::store::EnvyStore`], which adds
/// byte-granularity addressing and the timing model on top. The engine
/// is `Clone`: every field is plain owned state, so a clone is an exact,
/// independent snapshot — the basis of [`Engine::fork`].
#[derive(Debug, Clone)]
pub struct Engine {
    pub(crate) config: EnvyConfig,
    pub(crate) addr_map: AddrMap,
    pub(crate) flash: FlashArray,
    pub(crate) buffer: WriteBuffer,
    pub(crate) page_table: PageTable,
    pub(crate) mmu: Mmu,
    pub(crate) policy: PolicyState,
    /// `order[position] = physical segment`.
    pub(crate) order: Vec<u32>,
    /// `pos_of[physical segment] = position`, [`POS_NONE`] for the spare.
    pub(crate) pos_of: Vec<u32>,
    /// The always-erased physical segment.
    pub(crate) spare: u32,
    pub(crate) stats: EnvyStats,
    pub(crate) shadows: ShadowTable,
    /// Pages first created (fresh-allocated) inside an open transaction,
    /// mapped to their writer: they have no Flash shadow, and rollback
    /// returns them to unmapped. Together with the shadow directory this
    /// is the per-transaction write set.
    pub(crate) txn_fresh: std::collections::HashMap<crate::addr::LogicalPage, u64>,
    /// Slot table of open transactions, in begin order. Capacity is
    /// [`crate::EnvyConfig::txn_slots`]; recovery rolls back survivors
    /// in this order.
    pub(crate) open_txns: Vec<u64>,
    pub(crate) next_txn_id: u64,
    /// Increment between successive transaction ids (see
    /// [`Engine::seed_txn_ids`]); 1 for a standalone controller.
    pub(crate) txn_id_stride: u64,
    /// Durable commit records (battery-backed SRAM, §6 + §3.4): a record
    /// is pushed at the atomic commit point of [`Engine::txn_commit`] and
    /// removed once that transaction's shadow release completes.
    /// [`Engine::recover`] treats each surviving record as "committed"
    /// and finishes the release independently.
    pub(crate) txn_journal: Vec<u64>,
    /// Scratch rollback list reused by abort/recovery so a rollback
    /// does not allocate per transaction.
    pub(crate) txn_scratch: Vec<(crate::addr::LogicalPage, crate::addr::FlashLocation)>,
    pub(crate) journal: Option<CleanJournal>,
    pub(crate) wear_in_progress: bool,
    /// Segment parked with cold data by the last wear swap; ineligible
    /// for another swap until normal cleaning recycles it.
    pub(crate) wear_parked: Option<u32>,
    /// Flush-sequence number of the most recent write into each physical
    /// segment — the age input of the cost-benefit baseline policy.
    pub(crate) seg_last_write: Vec<u64>,
    /// Logical clock advanced by every page flush. Policies measure
    /// segment age and cleaning frequency against this clock; unlike the
    /// `pages_flushed` statistic it is never reset (see [`Engine::fork`]),
    /// so it stays coherent with `seg_last_write`.
    pub(crate) flush_clock: u64,
    /// Persistent resident-scan buffer reused by cleaning and wear
    /// leveling, so a paper-scale clean does not allocate a fresh list of
    /// up to 65 536 residents per victim.
    pub(crate) resident_scan: Vec<(u32, crate::addr::LogicalPage)>,
    /// Armed fault-injection state ([`FaultPlan`]); `None` when running
    /// clean. Boxed so the unarmed fast path carries one pointer.
    pub(crate) faults: Option<Box<faults::FaultState>>,
    /// Structured event trace ([`crate::trace::TraceRing`]); disabled by
    /// default and behavior-neutral when enabled.
    pub(crate) trace: crate::trace::TraceRing,
}

impl Engine {
    /// Build a controller from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EnvyError::BadConfig`] if the configuration is invalid.
    pub fn new(config: EnvyConfig) -> Result<Engine, EnvyError> {
        config.validate()?;
        let geo = config.geometry;
        let flash = FlashArray::new(geo, config.timings, config.store_data);
        let buffer = WriteBuffer::new(
            config.buffer_pages,
            geo.page_bytes() as usize,
            config.store_data,
        );
        let page_table = PageTable::new(config.logical_pages, &geo);
        let mmu = Mmu::new(config.mmu_entries);
        let positions = geo.segments() - 1;
        let order: Vec<u32> = (0..positions).collect();
        let mut pos_of = vec![POS_NONE; geo.segments() as usize];
        for (pos, &phys) in order.iter().enumerate() {
            pos_of[phys as usize] = pos as u32;
        }
        let spare = positions; // the last physical segment starts as spare
        let policy = PolicyState::new(&config, positions);
        Ok(Engine {
            addr_map: AddrMap::new(geo.page_bytes()),
            resident_scan: Vec::new(),
            config,
            flash,
            buffer,
            page_table,
            mmu,
            policy,
            order,
            pos_of,
            spare,
            stats: EnvyStats::default(),
            shadows: ShadowTable::default(),
            txn_fresh: std::collections::HashMap::new(),
            open_txns: Vec::new(),
            next_txn_id: 1,
            txn_id_stride: 1,
            txn_journal: Vec::new(),
            txn_scratch: Vec::new(),
            journal: None,
            wear_in_progress: false,
            wear_parked: None,
            seg_last_write: vec![0; geo.segments() as usize],
            flush_clock: 0,
            faults: None,
            trace: crate::trace::TraceRing::default(),
        })
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EnvyConfig {
        &self.config
    }

    /// Resize the transaction slot table. The capacity only gates
    /// [`Engine::txn_begin`], so resizing an existing engine (e.g. a
    /// fork of a churned baseline) is safe at any point where no more
    /// than `slots` transactions are already open.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or below the number of currently open
    /// transactions.
    pub fn set_txn_slots(&mut self, slots: u32) {
        assert!(slots >= 1, "at least one transaction slot");
        assert!(
            self.open_txns.len() <= slots as usize,
            "cannot shrink the slot table below {} open transactions",
            self.open_txns.len()
        );
        self.config.txn_slots = slots;
    }

    /// Snapshot the engine for an independent experiment run: the clone
    /// carries the full device state (Flash contents and wear, buffered
    /// pages, page table, policy state) but starts measuring from zero —
    /// controller, MMU and Flash operation counters are all reset.
    ///
    /// This lets a sweep build and warm one baseline system, then fork it
    /// per point instead of repeating the prefill/churn for every point.
    #[must_use]
    pub fn fork(&self) -> Engine {
        let mut forked = self.clone();
        forked.stats = EnvyStats::default();
        forked.mmu.reset_stats();
        forked.flash.reset_stats();
        forked.disarm_faults();
        forked.trace.clear();
        forked
    }

    /// Controller statistics.
    pub fn stats(&self) -> &EnvyStats {
        &self.stats
    }

    /// The structured event trace (disabled by default).
    pub fn trace(&self) -> &crate::trace::TraceRing {
        &self.trace
    }

    /// Mutable trace access (enable/disable, timestamp advance).
    pub fn trace_mut(&mut self) -> &mut crate::trace::TraceRing {
        &mut self.trace
    }

    /// MMU hit/miss accounting.
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// The Flash substrate (wear and operation counters).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Number of pages currently in the SRAM write buffer.
    pub fn buffered_pages(&self) -> usize {
        self.buffer.len()
    }

    /// Number of segment positions (segments minus the spare).
    pub fn positions(&self) -> u32 {
        self.order.len() as u32
    }

    /// The physical segment currently occupying a position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn segment_at(&self, pos: u32) -> u32 {
        self.order[pos as usize]
    }

    /// First erased page index of a physical segment (pages are written
    /// sequentially from the head, so erased pages form the tail).
    pub(crate) fn write_cursor(&self, phys: u32) -> u32 {
        self.config.geometry.pages_per_segment() - self.flash.erased_pages(phys)
    }

    /// Whether a physical segment has room for another page.
    pub(crate) fn has_space(&self, phys: u32) -> bool {
        self.flash.erased_pages(phys) > 0
    }

    /// Pre-populate the logical array: every logical page is programmed
    /// directly into Flash, sequentially, leaving each segment at the
    /// configured utilization. This is the steady-state starting point for
    /// the paper's experiments (a freshly loaded database).
    ///
    /// # Errors
    ///
    /// Propagates Flash errors (which indicate an engine bug) and
    /// [`EnvyError::ArrayFull`] if the logical space cannot fit.
    pub fn prefill(&mut self) -> Result<(), EnvyError> {
        let pps = self.config.geometry.pages_per_segment() as u64;
        let positions = self.order.len() as u64;
        let logical = self.config.logical_pages;
        // Spread logical pages evenly across positions, sequentially:
        // position 0 gets pages [0, per), position 1 [per, 2*per), etc.
        let per = logical.div_ceil(positions);
        if per > pps {
            return Err(EnvyError::ArrayFull);
        }
        // One erased frame shared by every programmed page (the array
        // copies it in), instead of an allocation per page.
        let erased = self
            .config
            .store_data
            .then(|| vec![0xFF; self.addr_map.page_bytes() as usize]);
        let mut lp: u64 = 0;
        'outer: for pos in 0..positions {
            let phys = self.order[pos as usize];
            for _ in 0..per {
                if lp >= logical {
                    break 'outer;
                }
                let page = self.write_cursor(phys);
                let data = erased.as_deref().map_or(PageData::None, PageData::Bytes);
                self.flash.program_page(phys, page, data)?;
                self.page_table.map_flash(
                    lp,
                    crate::addr::FlashLocation {
                        segment: phys,
                        page,
                    },
                );
                lp += 1;
            }
        }
        Ok(())
    }

    /// Verify every cross-structure invariant; used by tests and
    /// [`Engine::recover`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.page_table.check_consistency()?;
        let geo = &self.config.geometry;
        // The spare is fully erased and has no position.
        if self.flash.erased_pages(self.spare) != geo.pages_per_segment() {
            return Err(format!("spare segment {} is not fully erased", self.spare));
        }
        if self.pos_of[self.spare as usize] != POS_NONE {
            return Err("spare segment has a position".into());
        }
        // order/pos_of are mutually inverse and cover all non-spare
        // segments.
        for (pos, &phys) in self.order.iter().enumerate() {
            if self.pos_of[phys as usize] != pos as u32 {
                return Err(format!("order/pos_of mismatch at position {pos}"));
            }
        }
        let placed = self.pos_of.iter().filter(|&&p| p != POS_NONE).count();
        if placed != self.order.len() {
            return Err("pos_of count does not match order".into());
        }
        // Valid page counts match page-table residency plus nothing else:
        // every Valid flash page must be referenced by the page table.
        for seg in 0..geo.segments() {
            let resident = self.page_table.resident_count(seg);
            let valid = self.flash.valid_pages(seg);
            if resident != valid {
                return Err(format!(
                    "segment {seg}: {valid} valid pages but {resident} page-table residents"
                ));
            }
            // Erased pages form the tail (sequential-write invariant).
            let cursor = self.write_cursor(seg);
            for page in cursor..geo.pages_per_segment() {
                if self.flash.page_state(seg, page) != envy_flash::PageState::Erased {
                    return Err(format!(
                        "segment {seg} page {page} behind the write cursor is not erased"
                    ));
                }
            }
        }
        // Buffer frames and SRAM mappings are a bijection: every
        // occupied frame's page maps back to that frame, and every SRAM
        // mapping names an occupied frame holding that page.
        for (frame, page) in self.buffer.iter() {
            let at = self.page_table.lookup(page.logical);
            if at != crate::addr::Location::Sram(frame) {
                return Err(format!(
                    "frame {frame} holds logical page {} but the page maps to {at:?}",
                    page.logical
                ));
            }
        }
        for lp in 0..self.page_table.logical_pages() {
            if let crate::addr::Location::Sram(frame) = self.page_table.lookup(lp) {
                if self.buffer.get(frame).map(|p| p.logical) != Some(lp) {
                    return Err(format!(
                        "logical page {lp} maps to SRAM frame {frame}, which does not hold it"
                    ));
                }
            }
        }
        // Shadow pages reference invalid flash pages.
        self.shadows.check(&self.flash)?;
        Ok(())
    }
}
