//! Figure 6: cleaning costs for various Flash utilizations.
//!
//! The analytic curve is `u/(1-u)` program operations per reclaimed page
//! (a segment at utilization `u` must copy `u·N` live pages to reclaim
//! `(1-u)·N`). The paper caps the array at 80 % utilization, where the
//! naive per-segment cost is 4. The measured column drives a FIFO cleaner
//! with uniform traffic at each utilization: the FIFO ordering lets
//! segments decay below the average utilization before cleaning, so the
//! measured cost sits *below* the naive curve while preserving its shape
//! (compare the §4.2 discussion).

use crate::{emit_rows, Args};
use envy_bench::PointResult;
use envy_core::PolicyKind;
use envy_sim::report::fmt_f64;
use envy_workload::CleaningStudy;

pub fn run(args: &Args) {
    let pps = if args.quick { 128 } else { 256 };
    let segments = args.u64("segments", 64) as u32;
    let utils = vec![10u32, 20, 30, 40, 50, 60, 70, 80, 90, 95];
    let outcome = args.sweep("fig06_cleaning_cost", utils, |_, &util_pct| {
        let u = f64::from(util_pct) / 100.0;
        let analytic = u / (1.0 - u);
        let mut study = CleaningStudy::sized(segments, pps, PolicyKind::Fifo, (50, 50));
        study.utilization = u;
        let out = study.run().expect("study must run");
        PointResult::row(
            format!("{util_pct}%"),
            vec![
                format!("{util_pct}%"),
                fmt_f64(analytic),
                fmt_f64(out.cleaning_cost),
            ],
        )
        .metric("utilization", u)
        .metric("analytic_cost", analytic)
        .metric("measured_cost", out.cleaning_cost)
    });
    emit_rows(
        "Figure 6",
        "cleaning cost vs flash array utilization",
        &["utilization", "analytic u/(1-u)", "measured FIFO uniform"],
        &outcome.rows,
    );
}
