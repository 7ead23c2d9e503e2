//! Figure 10: cleaning cost vs number of segments in the Flash array.
//!
//! Fixed total array size and a fixed number of partitions (8, matching
//! the paper's hybrid configuration); the array is divided into 32 → 1024
//! segments. Finer segments clean more efficiently, with diminishing
//! returns once each segment is below ~1 % of the array.

use crate::{emit_rows, Args};
use envy_bench::{locality_label, PointResult};
use envy_core::PolicyKind;
use envy_sim::report::fmt_f64;
use envy_workload::CleaningStudy;

const LOCALITIES: [(u32, u32); 4] = [(50, 50), (20, 80), (10, 90), (5, 95)];
const METRIC_NAMES: [&str; 4] = ["cost_50_50", "cost_20_80", "cost_10_90", "cost_5_95"];

pub fn run(args: &Args) {
    // Fixed array capacity in pages; pages-per-segment shrinks as the
    // segment count grows.
    let total_pages: u64 = if args.quick { 1 << 15 } else { 1 << 17 };
    let counts = vec![32u32, 64, 128, 256, 512, 1024];
    let outcome = args.sweep("fig10_segment_count", counts, |_, &segments| {
        let pps = (total_pages / u64::from(segments)) as u32;
        let k = (segments / 8).max(1); // 8 partitions throughout
        let mut row = vec![segments.to_string()];
        let mut result = PointResult::row(format!("{segments} segments"), Vec::new());
        for (&locality, name) in LOCALITIES.iter().zip(METRIC_NAMES) {
            let study = CleaningStudy::sized(
                segments,
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
    let headers: Vec<String> = std::iter::once("segments".to_string())
        .chain(LOCALITIES.iter().map(|&l| locality_label(l)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    emit_rows(
        "Figure 10",
        "cleaning cost vs number of segments (fixed array size, 8 partitions)",
        &header_refs,
        &outcome.rows,
    );
}
