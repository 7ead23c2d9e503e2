//! The paper's technology constants (Figure 1) and system cost model
//! (§3.3, §5.1).

use envy_sim::time::Ns;

/// Battery-backed SRAM access time in the simulation (Figure 12): a word
/// of a buffered or unmapped page, a word written into the buffer, and
/// the page-table lookup an MMU miss costs.
pub(crate) const SRAM_ACCESS: Ns = Ns::from_nanos(100);

/// One row of the paper's Figure 1 storage-technology comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Technology name.
    pub name: &'static str,
    /// Read access time in nanoseconds (disk times are milliseconds-scale
    /// and expressed in ns here).
    pub read_ns: u64,
    /// Write/program access time in nanoseconds (Flash program is the
    /// 4–10 µs byte program; we list the paper's 4 µs figure).
    pub write_ns: u64,
    /// 1994 cost per megabyte in dollars.
    pub cost_per_mb: f64,
    /// Standby current per gigabyte in amps for data retention.
    pub retention_amps_per_gb: f64,
}

/// Figure 1: feature comparison of storage technologies.
pub const TECHNOLOGIES: [Technology; 4] = [
    Technology {
        name: "Disk",
        read_ns: 8_300_000,
        write_ns: 8_300_000,
        cost_per_mb: 1.00,
        retention_amps_per_gb: 0.0,
    },
    Technology {
        name: "DRAM",
        read_ns: 60,
        write_ns: 60,
        cost_per_mb: 35.00,
        retention_amps_per_gb: 1.0,
    },
    Technology {
        name: "Low Power SRAM",
        read_ns: 85,
        write_ns: 85,
        cost_per_mb: 120.00,
        retention_amps_per_gb: 0.002,
    },
    Technology {
        name: "Flash",
        read_ns: 85,
        write_ns: 4_000,
        cost_per_mb: 30.00,
        retention_amps_per_gb: 0.0,
    },
];

/// Estimated component costs of an eNVy system, using Figure 1 prices.
///
/// §5.1: "The total cost of such a system … is estimated to be about
/// $70,000 … about one quarter of a pure SRAM system of the same size
/// ($250,000)."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Dollars of Flash.
    pub flash_dollars: f64,
    /// Dollars of battery-backed SRAM (write buffer + page table).
    pub sram_dollars: f64,
}

impl CostEstimate {
    /// Estimate the memory cost of a system with the given sizes in bytes.
    pub fn for_sizes(flash_bytes: u64, sram_bytes: u64) -> CostEstimate {
        const MB: f64 = 1024.0 * 1024.0;
        CostEstimate {
            flash_dollars: flash_bytes as f64 / MB * 30.0,
            sram_dollars: sram_bytes as f64 / MB * 120.0,
        }
    }

    /// Total memory cost in dollars.
    pub fn total(&self) -> f64 {
        self.flash_dollars + self.sram_dollars
    }

    /// Cost of a pure-SRAM system with the same usable capacity.
    pub fn pure_sram_equivalent(flash_bytes: u64) -> f64 {
        const MB: f64 = 1024.0 * 1024.0;
        flash_bytes as f64 / MB * 120.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_flash_is_cheapest_memory() {
        let flash = &TECHNOLOGIES[3];
        assert_eq!(flash.name, "Flash");
        for other in &TECHNOLOGIES[1..3] {
            assert!(flash.cost_per_mb < other.cost_per_mb);
        }
    }

    #[test]
    fn figure_1_flash_needs_no_retention_power() {
        assert_eq!(TECHNOLOGIES[3].retention_amps_per_gb, 0.0);
        assert_eq!(TECHNOLOGIES[0].retention_amps_per_gb, 0.0); // disk too
    }

    #[test]
    fn paper_cost_estimates_reproduce_5_1() {
        const GB: u64 = 1024 * 1024 * 1024;
        // 2 GB Flash + 64 MB SRAM (16 write buffer + 48 page table).
        let est = CostEstimate::for_sizes(2 * GB, 64 * 1024 * 1024);
        // "about $70,000"
        assert!(
            (est.total() - 69_120.0).abs() < 1.0,
            "total {}",
            est.total()
        );
        // "one quarter of a pure SRAM system of the same size ($250,000)"
        let sram_only = CostEstimate::pure_sram_equivalent(2 * GB);
        assert!((sram_only - 245_760.0).abs() < 1.0);
        assert!(sram_only / est.total() > 3.5);
    }

    #[test]
    fn per_gigabyte_page_table_cost_matches_3_3() {
        // §3.3: "For every gigabyte of Flash ($30,000), 24 MBytes of SRAM
        // ($2,880) is required for the page table, only about a 10%
        // increase".
        const GB: u64 = 1024 * 1024 * 1024;
        let est = CostEstimate::for_sizes(GB, 24 * 1024 * 1024);
        assert!((est.flash_dollars - 30_720.0).abs() < 1.0);
        assert!((est.sram_dollars - 2_880.0).abs() < 1.0);
        assert!(est.sram_dollars / est.flash_dollars < 0.11);
    }
}
