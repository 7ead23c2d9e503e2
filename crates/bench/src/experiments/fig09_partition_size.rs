//! Figure 9: cleaning cost vs partition size for the hybrid approach.
//!
//! 128-segment array, partition sizes 1 → 128 segments. Size 1 is pure
//! locality gathering; size 128 is pure FIFO. The paper finds the best
//! overall cost at 16 segments per partition.

use crate::{emit_rows, Args};
use envy_bench::{locality_label, PointResult};
use envy_core::PolicyKind;
use envy_sim::report::fmt_f64;
use envy_workload::CleaningStudy;

const LOCALITIES: [(u32, u32); 5] = [(50, 50), (30, 70), (20, 80), (10, 90), (5, 95)];
const METRIC_NAMES: [&str; 5] = [
    "cost_50_50",
    "cost_30_70",
    "cost_20_80",
    "cost_10_90",
    "cost_5_95",
];

pub fn run(args: &Args) {
    let pps = if args.quick { 128 } else { 512 };
    let sizes = vec![1u32, 2, 4, 8, 16, 32, 64, 128];
    let outcome = args.sweep("fig09_partition_size", sizes, |_, &k| {
        let mut row = vec![k.to_string()];
        let mut result = PointResult::row(format!("k={k}"), Vec::new());
        for (&locality, name) in LOCALITIES.iter().zip(METRIC_NAMES) {
            let study = CleaningStudy::sized(
                128,
                pps,
                PolicyKind::Hybrid {
                    segments_per_partition: k,
                },
                locality,
            );
            let out = study.run().expect("study must run");
            row.push(fmt_f64(out.cleaning_cost));
            result.metrics.push((name, out.cleaning_cost));
        }
        result.rows = vec![row];
        result
    });
    let headers: Vec<String> = std::iter::once("segs/partition".to_string())
        .chain(LOCALITIES.iter().map(|&l| locality_label(l)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    emit_rows(
        "Figure 9",
        "hybrid cleaning cost vs segments per partition, 128 segments",
        &header_refs,
        &outcome.rows,
    );
}
