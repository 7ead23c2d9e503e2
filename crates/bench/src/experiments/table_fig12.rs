//! Figure 12: eNVy simulation parameters — printed from the live
//! configuration structures so the table cannot drift from the code.

use crate::Args;
use envy_bench::emit;
use envy_core::EnvyConfig;
use envy_sim::report::Table;
use envy_workload::{TpcaLayout, TpcaScale};

pub fn run(args: &Args) {
    let start = std::time::Instant::now();
    let c = EnvyConfig::paper_2gb();
    let g = &c.geometry;
    let mb = |b: u64| format!("{} MB", b / (1024 * 1024));

    let mut flash = Table::new(&["flash parameter", "value"]);
    flash.row(&["array size".into(), mb(g.total_bytes())]);
    flash.row(&["# of banks".into(), g.banks().to_string()]);
    flash.row(&["segments".into(), g.segments().to_string()]);
    flash.row(&["segment size".into(), mb(g.segment_bytes())]);
    flash.row(&["page size".into(), format!("{} bytes", g.page_bytes())]);
    flash.row(&["read time".into(), c.timings.read.to_string()]);
    flash.row(&["write time".into(), c.timings.write.to_string()]);
    flash.row(&["program time".into(), c.timings.program.to_string()]);
    flash.row(&["erase time".into(), c.timings.erase.to_string()]);
    flash.row(&["rated cycles".into(), c.timings.rated_cycles.to_string()]);
    emit("Figure 12a", "flash parameters", &flash);

    let mut sram = Table::new(&["sram parameter", "value"]);
    sram.row(&[
        "write buffer".into(),
        mb(c.buffer_pages as u64 * g.page_bytes() as u64),
    ]);
    sram.row(&[
        "flush threshold".into(),
        format!("{} pages", c.flush_threshold),
    ]);
    sram.row(&["page table".into(), mb(c.page_table_sram_bytes())]);
    emit("Figure 12b", "sram parameters", &sram);

    let scale = TpcaScale::paper();
    let layout = TpcaLayout::new(scale);
    let mut tpc = Table::new(&["tpc parameter", "value", "index levels"]);
    tpc.row(&[
        "branch records".into(),
        scale.branches.to_string(),
        layout.branch_tree.depth().to_string(),
    ]);
    tpc.row(&[
        "teller records".into(),
        scale.tellers().to_string(),
        layout.teller_tree.depth().to_string(),
    ]);
    tpc.row(&[
        "account records".into(),
        scale.accounts().to_string(),
        layout.account_tree.depth().to_string(),
    ]);
    tpc.row(&["b-tree fanout".into(), "32".into(), "-".into()]);
    emit("Figure 12c", "TPC-A parameters", &tpc);
    let points = vec![(
        "paper 2 GB configuration".to_string(),
        vec![
            ("array_bytes", g.total_bytes() as f64),
            ("banks", g.banks() as f64),
            ("segments", g.segments() as f64),
            ("page_bytes", g.page_bytes() as f64),
            ("buffer_pages", c.buffer_pages as f64),
            ("accounts", scale.accounts() as f64),
        ],
    )];
    args.write_report("table_fig12", 1, start, &points, &[]);
}
