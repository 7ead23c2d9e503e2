//! Figure 1: feature comparison of storage technologies, plus the
//! paper's §3.3/§5.1 cost arithmetic derived from it.

use crate::Args;
use envy_bench::emit;
use envy_core::params::{CostEstimate, TECHNOLOGIES};
use envy_sim::report::Table;

pub fn run(args: &Args) {
    let start = std::time::Instant::now();
    let mut table = Table::new(&[
        "technology",
        "read",
        "write",
        "$/MB (1994)",
        "retention A/GB",
    ]);
    for t in TECHNOLOGIES {
        let ns = |v: u64| {
            if v >= 1_000_000 {
                format!("{:.1}ms", v as f64 / 1e6)
            } else if v >= 1_000 {
                format!("{:.0}us", v as f64 / 1e3)
            } else {
                format!("{v}ns")
            }
        };
        table.row(&[
            t.name.to_string(),
            ns(t.read_ns),
            ns(t.write_ns),
            format!("{:.2}", t.cost_per_mb),
            format!("{}", t.retention_amps_per_gb),
        ]);
    }
    emit(
        "Figure 1",
        "feature comparison of storage technologies",
        &table,
    );

    const GB: u64 = 1024 * 1024 * 1024;
    let envy = CostEstimate::for_sizes(2 * GB, 64 * 1024 * 1024);
    let sram = CostEstimate::pure_sram_equivalent(2 * GB);
    let mut costs = Table::new(&["system", "memory cost"]);
    costs.row(&[
        "eNVy 2 GB (Flash + 64 MB SRAM)".into(),
        format!("${:.0}", envy.total()),
    ]);
    costs.row(&["pure SRAM 2 GB".into(), format!("${:.0}", sram)]);
    costs.row(&["ratio".into(), format!("{:.1}x", sram / envy.total())]);
    emit(
        "Section 5.1",
        "system cost estimates from Figure 1 prices",
        &costs,
    );
    let points = vec![(
        "cost model".to_string(),
        vec![
            ("envy_2gb_cost_usd", envy.total()),
            ("pure_sram_2gb_cost_usd", sram),
            ("cost_ratio", sram / envy.total()),
        ],
    )];
    args.write_report("table_fig01", 1, start, &points, &[]);
}
