//! Controller configuration.

use crate::error::EnvyError;
use envy_flash::{FlashGeometry, FlashTimings};
use envy_sim::time::Ns;

/// Which cleaning policy the controller runs (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Clean the segment with the most invalid data; writes fill the
    /// newly cleaned segment (§4.2).
    Greedy,
    /// Sprite LFS's cost-benefit victim selection (Rosenblum &
    /// Ousterhout \[13\]): clean the segment maximizing
    /// `age × (1 − u) / 2u`. The paper considered and rejected this
    /// policy for eNVy (§4.1); it is implemented here as a baseline so
    /// that decision can be quantified.
    CostBenefit,
    /// Clean segments in round-robin order. The paper notes FIFO has the
    /// same steady-state cost as greedy but is simpler hardware (§4.4).
    Fifo,
    /// Locality gathering: flush-to-origin plus free-space redistribution
    /// that equalizes (cleaning frequency × cleaning cost) (§4.3).
    LocalityGathering,
    /// The hybrid: locality gathering between partitions of adjoining
    /// segments, FIFO within a partition (§4.4). The paper's optimum for
    /// a 128-segment array is 16 segments per partition.
    Hybrid {
        /// Number of adjoining segments per partition.
        segments_per_partition: u32,
    },
}

impl PolicyKind {
    /// The paper's production choice: hybrid with 16-segment partitions.
    pub fn paper_default() -> PolicyKind {
        PolicyKind::Hybrid {
            segments_per_partition: 16,
        }
    }
}

/// Full configuration of an eNVy storage system.
///
/// Construct via [`EnvyConfig::paper_2gb`], [`EnvyConfig::small_test`] or
/// [`EnvyConfig::scaled`], then adjust with the `with_*` methods:
///
/// ```
/// use envy_core::{EnvyConfig, PolicyKind};
///
/// let cfg = EnvyConfig::small_test()
///     .with_policy(PolicyKind::Greedy)
///     .with_utilization(0.5);
/// assert_eq!(cfg.policy, PolicyKind::Greedy);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnvyConfig {
    /// Flash array shape.
    pub geometry: FlashGeometry,
    /// Flash device timings.
    pub timings: FlashTimings,
    /// Whether page payloads are stored (functional mode) or only page
    /// state is tracked (large timing studies).
    pub store_data: bool,
    /// Size of the host-visible linear array, in pages. The paper caps
    /// live data at 80 % of the Flash array (Figure 6 rationale).
    pub logical_pages: u64,
    /// SRAM write-buffer capacity in pages. The paper sizes it at one
    /// segment (§5.1).
    pub buffer_pages: usize,
    /// Flush when the buffer holds more than this many pages (§3.2).
    pub flush_threshold: usize,
    /// Cleaning policy.
    pub policy: PolicyKind,
    /// Wear-leveling trigger: swap data when the oldest segment exceeds
    /// the youngest by more than this many erase cycles (§4.3; the paper
    /// uses 100).
    pub wear_threshold: u64,
    /// Host-side word size in bytes (the host bus is 32 or 64 bits,
    /// Figure 11); byte ranges are split into word accesses for timing.
    pub word_bytes: u32,
    /// Propagation/control overhead added to every host access (§5.1:
    /// "60ns is added to each access").
    pub bus_overhead: Ns,
    /// Extra latency a host access pays when it must suspend an
    /// in-progress program/erase on its bank.
    pub suspend_penalty: Ns,
    /// How long the controller waits after a suspension before resuming
    /// the long operation ("waits a few microseconds", §3.4). The exact
    /// value is not published; 1.5 µs calibrates the simulated system's
    /// saturation point to the paper's ~30 000 TPS (see EXPERIMENTS.md).
    pub resume_gap: Ns,
    /// Entries in the MMU mapping cache (§5.1).
    pub mmu_entries: usize,
    /// Concurrent program/erase operations (§6 extension; 1 = the base
    /// system evaluated in §5).
    pub parallel_ops: u32,
    /// Ablation switch: locality gathering's free-space redistribution
    /// between partitions (§4.3). On by default.
    pub lg_redistribute: bool,
    /// Ablation switch: flush pages back to their partition of origin
    /// (§4.3: "Care must be taken to prevent flushes from the SRAM write
    /// buffer from destroying locality"). On by default.
    pub lg_flush_to_origin: bool,
    /// Concurrent-transaction slots per controller (§6 extension). The
    /// paper's hardware facility is a single slot; raising this lets N
    /// transactions be open at once, isolated by per-page write sets
    /// (`docs/TRANSACTIONS.md`). 1 by default — the paper-faithful
    /// configuration every digest anchor runs under.
    pub txn_slots: u32,
}

impl EnvyConfig {
    /// The paper's simulated system (Figure 12): 2 GB of Flash in 128
    /// segments of 16 MB across 8 banks, 256-byte pages, a 16 MB
    /// (one-segment) SRAM write buffer, hybrid(16) cleaning, 80 %
    /// utilization.
    pub fn paper_2gb() -> EnvyConfig {
        let geometry = FlashGeometry::paper_2gb();
        let total_pages = geometry.total_pages();
        let buffer_pages = geometry.pages_per_segment() as usize;
        EnvyConfig {
            geometry,
            timings: FlashTimings::paper(),
            store_data: false,
            logical_pages: (total_pages as f64 * 0.8) as u64,
            buffer_pages,
            flush_threshold: buffer_pages / 2,
            policy: PolicyKind::paper_default(),
            wear_threshold: 100,
            word_bytes: 4,
            bus_overhead: Ns::from_nanos(60),
            suspend_penalty: Ns::from_nanos(150),
            resume_gap: Ns::from_nanos(1_500),
            mmu_entries: 4096,
            parallel_ops: 1,
            lg_redistribute: true,
            lg_flush_to_origin: true,
            txn_slots: 1,
        }
    }

    /// A small functional-test configuration with payload storage: 4 banks,
    /// 16 segments of 64 × 256-byte pages (256 KB), 50 % utilization.
    pub fn small_test() -> EnvyConfig {
        EnvyConfig::scaled(4, 16, 64, 256).with_utilization(0.5)
    }

    /// A scaled-down array with the paper's timings and policy defaults.
    /// The buffer is one segment and utilization defaults to 80 %.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see
    /// [`FlashGeometry::new`]).
    pub fn scaled(
        banks: u32,
        segments: u32,
        pages_per_segment: u32,
        page_bytes: u32,
    ) -> EnvyConfig {
        let geometry = FlashGeometry::new(banks, segments, pages_per_segment, page_bytes)
            .expect("scaled geometry must be valid");
        let total_pages = geometry.total_pages();
        let buffer_pages = pages_per_segment as usize;
        EnvyConfig {
            geometry,
            timings: FlashTimings::paper(),
            store_data: true,
            logical_pages: (total_pages as f64 * 0.8) as u64,
            buffer_pages,
            flush_threshold: buffer_pages / 2,
            policy: PolicyKind::paper_default(),
            wear_threshold: 100,
            word_bytes: 4,
            bus_overhead: Ns::from_nanos(60),
            suspend_penalty: Ns::from_nanos(150),
            resume_gap: Ns::from_nanos(1_500),
            mmu_entries: 256,
            parallel_ops: 1,
            lg_redistribute: true,
            lg_flush_to_origin: true,
            txn_slots: 1,
        }
    }

    /// A [`scaled`](EnvyConfig::scaled) array for timing runs: state
    /// only (no payload bytes), a 64-bit host bus (Figure 11), and the
    /// erase time scaled with the segment size, so that erase work per
    /// reclaimed page stays the paper's 50 ms / 65 536.
    ///
    /// # Panics
    ///
    /// As [`scaled`](EnvyConfig::scaled).
    pub fn scaled_timing(
        banks: u32,
        segments: u32,
        pages_per_segment: u32,
        page_bytes: u32,
    ) -> EnvyConfig {
        let mut config = EnvyConfig::scaled(banks, segments, pages_per_segment, page_bytes);
        config.store_data = false;
        config.word_bytes = 8;
        config.timings.erase = Ns::from_nanos(50_000_000 * u64::from(pages_per_segment) / 65_536);
        config
    }

    /// Set the cleaning policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> EnvyConfig {
        self.policy = policy;
        self
    }

    /// Size the logical array to a fraction of the physical array.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < utilization < 1.0`.
    pub fn with_utilization(mut self, utilization: f64) -> EnvyConfig {
        assert!(
            utilization > 0.0 && utilization < 1.0,
            "utilization must be in (0, 1)"
        );
        self.logical_pages = (self.geometry.total_pages() as f64 * utilization) as u64;
        self
    }

    /// Set the write-buffer capacity (and scale the flush threshold to
    /// half of it).
    pub fn with_buffer_pages(mut self, pages: usize) -> EnvyConfig {
        self.buffer_pages = pages;
        self.flush_threshold = pages / 2;
        self
    }

    /// Set the flush threshold directly.
    pub fn with_flush_threshold(mut self, threshold: usize) -> EnvyConfig {
        self.flush_threshold = threshold;
        self
    }

    /// Enable or disable payload storage.
    pub fn with_store_data(mut self, store: bool) -> EnvyConfig {
        self.store_data = store;
        self
    }

    /// Set the wear-leveling trigger threshold.
    pub fn with_wear_threshold(mut self, cycles: u64) -> EnvyConfig {
        self.wear_threshold = cycles;
        self
    }

    /// Set the §6 parallel-operation count.
    pub fn with_parallel_ops(mut self, ops: u32) -> EnvyConfig {
        self.parallel_ops = ops;
        self
    }

    /// Set the MMU mapping-cache size (0 disables the cache).
    pub fn with_mmu_entries(mut self, entries: usize) -> EnvyConfig {
        self.mmu_entries = entries;
        self
    }

    /// Set the number of concurrent-transaction slots (1 = the paper's
    /// single hardware facility).
    pub fn with_txn_slots(mut self, slots: u32) -> EnvyConfig {
        self.txn_slots = slots;
        self
    }

    /// The logical array size in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_pages * self.geometry.page_bytes() as u64
    }

    /// Ratio of logical (live) pages to physical pages.
    pub fn target_utilization(&self) -> f64 {
        self.logical_pages as f64 / self.geometry.total_pages() as f64
    }

    /// SRAM required for the page table, using the paper's 6 bytes per
    /// mapping (§3.3).
    pub fn page_table_sram_bytes(&self) -> u64 {
        self.logical_pages * 6
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`EnvyError::BadConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), EnvyError> {
        let pps = self.geometry.pages_per_segment() as u64;
        let total = self.geometry.total_pages();
        if self.geometry.segments() < 2 {
            return Err(EnvyError::BadConfig(
                "at least two segments required (one is always kept erased)",
            ));
        }
        if self.logical_pages == 0 {
            return Err(EnvyError::BadConfig("logical array must be non-empty"));
        }
        // The spare segment never holds steady-state data, and cleaning a
        // 100%-utilized array livelocks; insist on headroom beyond the
        // spare.
        if self.logical_pages > total - pps - (total - pps) / 50 {
            return Err(EnvyError::BadConfig(
                "logical array oversubscribed: leave at least one spare segment plus 2% slack",
            ));
        }
        if self.buffer_pages == 0 {
            return Err(EnvyError::BadConfig("write buffer must be non-empty"));
        }
        if !crate::page_table::fits_u32(
            self.logical_pages,
            &self.geometry,
            self.buffer_pages as u64,
        ) {
            return Err(EnvyError::BadConfig(
                "page table exceeds its 32-bit words: Flash pages plus buffer frames too many",
            ));
        }
        if self.flush_threshold >= self.buffer_pages {
            return Err(EnvyError::BadConfig(
                "flush threshold must be below buffer capacity",
            ));
        }
        if self.word_bytes == 0 || !self.geometry.page_bytes().is_multiple_of(self.word_bytes) {
            return Err(EnvyError::BadConfig(
                "word size must be non-zero and divide the page size",
            ));
        }
        if self.parallel_ops == 0 {
            return Err(EnvyError::BadConfig("parallel_ops must be at least 1"));
        }
        if self.txn_slots == 0 {
            return Err(EnvyError::BadConfig("txn_slots must be at least 1"));
        }
        if let PolicyKind::Hybrid {
            segments_per_partition,
        } = self.policy
        {
            if segments_per_partition == 0 {
                return Err(EnvyError::BadConfig(
                    "hybrid partitions must contain at least one segment",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_figure_12() {
        let c = EnvyConfig::paper_2gb();
        c.validate().unwrap();
        assert_eq!(c.geometry.segments(), 128);
        assert_eq!(c.buffer_pages, 65_536); // 16 MB / 256 B = one segment
        assert!((c.target_utilization() - 0.8).abs() < 1e-6);
        // §3.3: 24 MB of page-table SRAM per GB of Flash. 80% of 2 GB
        // logical → 6.7M mappings × 6 B ≈ 38.4 MB.
        let mb = c.page_table_sram_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb > 30.0 && mb < 48.0, "page table SRAM {mb} MB");
    }

    #[test]
    fn small_test_is_valid() {
        EnvyConfig::small_test().validate().unwrap();
    }

    #[test]
    fn oversubscription_rejected() {
        let mut c = EnvyConfig::small_test();
        c.logical_pages = c.geometry.total_pages(); // no spare
        assert!(matches!(c.validate(), Err(EnvyError::BadConfig(_))));
    }

    #[test]
    fn page_table_word_overflow_refused_before_allocation() {
        // 2^16 segments of 2^16 pages take every 32-bit word for Flash
        // pages, leaving none for buffer frames. Only `validate` runs:
        // building this array would allocate 2^32 page states first.
        let c = EnvyConfig::scaled(8, 65_536, 65_536, 256);
        assert!(matches!(c.validate(), Err(EnvyError::BadConfig(_))));
        // Half the segments leave room for the buffer; one frame too many
        // tips it over.
        let c = EnvyConfig::scaled(8, 32_768, 65_536, 256);
        c.validate().unwrap();
        let c = c.with_buffer_pages(1 << 31);
        assert!(matches!(c.validate(), Err(EnvyError::BadConfig(_))));
    }

    #[test]
    fn bad_threshold_rejected() {
        let c = EnvyConfig::small_test().with_flush_threshold(10_000_000);
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_word_size_rejected() {
        let mut c = EnvyConfig::small_test();
        c.word_bytes = 7; // does not divide 256
        assert!(c.validate().is_err());
        c.word_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_parallel_ops_rejected() {
        let mut c = EnvyConfig::small_test();
        c.parallel_ops = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_txn_slots_rejected() {
        let c = EnvyConfig::small_test().with_txn_slots(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn hybrid_zero_partition_rejected() {
        let c = EnvyConfig::small_test().with_policy(PolicyKind::Hybrid {
            segments_per_partition: 0,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_utilization_resizes_logical_space() {
        let c = EnvyConfig::small_test().with_utilization(0.25);
        let total = c.geometry.total_pages();
        assert_eq!(c.logical_pages, total / 4);
    }

    #[test]
    #[should_panic(expected = "utilization must be in (0, 1)")]
    fn with_utilization_rejects_one() {
        EnvyConfig::small_test().with_utilization(1.0);
    }

    #[test]
    fn builder_chaining() {
        let c = EnvyConfig::small_test()
            .with_policy(PolicyKind::Fifo)
            .with_buffer_pages(32)
            .with_wear_threshold(10)
            .with_parallel_ops(4)
            .with_mmu_entries(0)
            .with_txn_slots(4)
            .with_store_data(false);
        assert_eq!(c.policy, PolicyKind::Fifo);
        assert_eq!(c.buffer_pages, 32);
        assert_eq!(c.flush_threshold, 16);
        assert_eq!(c.wear_threshold, 10);
        assert_eq!(c.parallel_ops, 4);
        assert_eq!(c.mmu_entries, 0);
        assert_eq!(c.txn_slots, 4);
        assert!(!c.store_data);
    }

    #[test]
    fn paper_default_policy_is_hybrid_16() {
        assert_eq!(
            PolicyKind::paper_default(),
            PolicyKind::Hybrid {
                segments_per_partition: 16
            }
        );
    }
}
