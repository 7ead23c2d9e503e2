//! The MMU mapping cache (§5.1).
//!
//! "A memory-management unit (MMU) acts as a cache of recently used
//! mappings to make this translation faster." A hit overlaps translation
//! with the access; a miss pays one SRAM page-table read.
//!
//! The cache is direct-mapped (the paper's controller is simple hardware).
//! It caches only *residency* — the controller consults the page table for
//! the physical address on the datapath in parallel — so entries are just
//! tags; what matters for timing is hit vs. miss, and for correctness that
//! remaps invalidate stale entries.

use crate::addr::LogicalPage;
use envy_sim::stats::Counter;
use envy_sync::SharedWords;

/// Tag value for an empty MMU slot. Logical page numbers are bounded far
/// below `u64::MAX` by the configuration's logical array size, so the
/// sentinel can never collide with a real tag; packing tags as bare `u64`
/// halves the table versus `Option<u64>` and drops the discriminant
/// compare from the per-access hit check.
pub(crate) const TAG_EMPTY: u64 = u64::MAX;

/// Direct-mapped translation cache with hit/miss accounting.
///
/// A zero-entry cache is legal and misses on every access (used to
/// quantify the MMU's benefit in ablation runs).
#[derive(Debug, Clone)]
pub struct Mmu {
    /// Tag words, shared with concurrent readers (a reader probing the
    /// cache only needs residency hints; hit/miss *accounting* stays on
    /// the writer, whose timing model is single-threaded by design).
    tags: SharedWords,
    /// `entries - 1` when the slot count is a power of two (every shipped
    /// configuration), so the per-access slot computation is a mask
    /// instead of a 64-bit modulo. The mapping is identical either way.
    mask: Option<u64>,
    hits: Counter,
    misses: Counter,
}

impl Mmu {
    /// Create a cache with `entries` direct-mapped slots.
    pub fn new(entries: usize) -> Mmu {
        Mmu {
            tags: SharedWords::new(entries, TAG_EMPTY),
            mask: (entries.is_power_of_two()).then(|| entries as u64 - 1),
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    /// Number of slots.
    pub fn entries(&self) -> usize {
        self.tags.len()
    }

    #[inline]
    fn slot(&self, lp: LogicalPage) -> usize {
        match self.mask {
            Some(m) => (lp & m) as usize,
            None => (lp % self.tags.len() as u64) as usize,
        }
    }

    /// Look up a translation; records and returns whether it hit, and
    /// fills the slot on a miss.
    #[inline]
    pub fn access(&mut self, lp: LogicalPage) -> bool {
        if self.tags.is_empty() {
            self.misses.incr();
            return false;
        }
        debug_assert_ne!(lp, TAG_EMPTY, "logical page collides with the empty tag");
        let slot = self.slot(lp);
        if self.tags.get(slot) == lp {
            self.hits.incr();
            true
        } else {
            self.tags.set(slot, lp);
            self.misses.incr();
            false
        }
    }

    /// Non-mutating residency probe: whether `lp` currently hits, without
    /// touching the tag array or the hit/miss counters. This is the
    /// reader-thread variant of [`Mmu::access`] — concurrent readers may
    /// consult the cache but only the writer trains it.
    #[inline]
    pub fn peek(&self, lp: LogicalPage) -> bool {
        !self.tags.is_empty() && self.tags.get(self.slot(lp)) == lp
    }

    /// Drop a translation after its mapping changed (copy-on-write, flush,
    /// or cleaning moved the page).
    pub fn invalidate(&mut self, lp: LogicalPage) {
        if self.tags.is_empty() {
            return;
        }
        let slot = self.slot(lp);
        if self.tags.get(slot) == lp {
            self.tags.set(slot, TAG_EMPTY);
        }
    }

    /// Drop every translation (power failure: the MMU is volatile).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(TAG_EMPTY);
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Zero the hit/miss counters; cached tags are kept, so a warmed
    /// cache can be measured from a clean slate.
    pub fn reset_stats(&mut self) {
        self.hits = Counter::default();
        self.misses = Counter::default();
    }

    /// Hit fraction (0 if no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut m = Mmu::new(16);
        assert!(!m.access(5));
        assert!(m.access(5));
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 1);
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflicting_tags_evict() {
        let mut m = Mmu::new(4);
        assert!(!m.access(1));
        assert!(!m.access(5)); // same slot (1 % 4 == 5 % 4)
        assert!(!m.access(1)); // evicted
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut m = Mmu::new(8);
        m.access(3);
        m.invalidate(3);
        assert!(!m.access(3));
    }

    #[test]
    fn invalidate_wrong_page_is_noop() {
        let mut m = Mmu::new(8);
        m.access(3);
        m.invalidate(11); // same slot, different tag: must not clobber
        assert!(m.access(3));
    }

    #[test]
    fn invalidate_all_clears() {
        let mut m = Mmu::new(8);
        m.access(1);
        m.access(2);
        m.invalidate_all();
        assert!(!m.access(1));
        assert!(!m.access(2));
    }

    #[test]
    fn zero_entry_cache_always_misses() {
        let mut m = Mmu::new(0);
        assert!(!m.access(1));
        assert!(!m.access(1));
        assert_eq!(m.hit_rate(), 0.0);
        m.invalidate(1);
        m.invalidate_all();
    }
}
