//! Ablation: page size (§3.3's tradeoff).
//!
//! "Larger pages lead to a smaller page table and lower SRAM
//! requirements. On the other hand, since an entire page has to be
//! written to Flash with every flush, larger pages cause more unmodified
//! data to be written for every word changed." The paper picks 256 bytes.
//!
//! This sweep runs word-granularity TPC-A-like record updates at several
//! page sizes and reports bytes programmed per byte written (write
//! amplification from page granularity alone) plus page-table SRAM cost.

use crate::{emit_rows, Args};
use envy_bench::PointResult;
use envy_core::{EnvyConfig, EnvyStore, PolicyKind};
use envy_sim::report::fmt_f64;
use envy_sim::rng::Rng;

pub fn run(args: &Args) {
    let writes: u64 = if args.quick { 100_000 } else { 300_000 };
    let sizes = vec![64u32, 128, 256, 512, 1024];
    let outcome = args.sweep("abl_page_size", sizes, |_, &page_bytes| {
        // Constant array byte size: 8 MB.
        let pps = 2048 * 256 / page_bytes;
        let config = EnvyConfig::scaled(4, 16, pps, page_bytes)
            .with_store_data(false)
            .with_policy(PolicyKind::paper_default());
        let mut store = EnvyStore::new(config).expect("valid config");
        store.prefill().expect("prefill");
        let mut rng = Rng::seed_from(5);
        let logical_bytes = store.size();
        // 8-byte record updates at uniformly random addresses.
        for _ in 0..writes {
            let addr = rng.below(logical_bytes - 8);
            store.write(addr, &[0u8; 8]).expect("write");
        }
        let stats = store.stats();
        let programs = stats.pages_flushed.get() + stats.clean_programs.get();
        let programmed_bytes = programs * u64::from(page_bytes);
        let written_bytes = writes * 8;
        let amplification = programmed_bytes as f64 / written_bytes as f64;
        // §3.3: 6 bytes of page table per page.
        let table_mb = (1u64 << 30) / u64::from(page_bytes) * 6 / (1024 * 1024);
        PointResult::row(
            format!("page={page_bytes}"),
            vec![
                page_bytes.to_string(),
                fmt_f64(amplification),
                table_mb.to_string(),
            ],
        )
        .metric("page_bytes", f64::from(page_bytes))
        .metric("write_amplification", amplification)
        .metric("page_table_mb_per_gb", table_mb as f64)
    });
    emit_rows(
        "Ablation: page size",
        "8-byte uniform record updates; write amplification vs SRAM cost (§3.3)",
        &[
            "page bytes",
            "flash bytes programmed / byte written",
            "page-table SRAM per GB flash (MB)",
        ],
        &outcome.rows,
    );
}
