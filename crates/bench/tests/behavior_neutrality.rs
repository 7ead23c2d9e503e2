//! Behavior-neutrality contract for data-plane optimizations.
//!
//! The simulator's hot paths are periodically rewritten for wall-clock
//! speed (O(1) buffer indexing, zero-copy reads, batched timing
//! enqueue); none of that may change *simulated* behavior. These tests
//! pin seeded end-to-end runs — TPC-A through the timed store, the
//! hot/cold synthetic cleaning study, and a functional (payload-storing)
//! workload — to golden digests captured before the optimizations
//! landed. Every statistic, the final simulated clock, the telemetry
//! rows, and the rendered report JSON participate in the digest, so any
//! drift in simulated time, cleaning decisions, or data contents fails
//! loudly.
//!
//! When a PR *intends* to change simulated behavior (a model fix, not an
//! optimization), regenerate the goldens by running with
//! `GOLDEN_PRINT=1` and updating the constants — and say so in the PR.

use envy_bench::render_report;
use envy_core::{EnvyConfig, EnvyError, EnvyStats, EnvyStore, PolicyKind, TimedAccess, TraceEvent};
use envy_sim::time::Ns;
use envy_workload::{churn_to_steady_state, run_timed, AnalyticTpca, CleaningStudy, TpcaScale};

/// FNV-1a over a string: stable, dependency-free digest.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assert a digest matches its golden, or print it for (re)capture when
/// `GOLDEN_PRINT=1`.
fn check(name: &str, rendered: &str, golden: u64) {
    let d = fnv1a(rendered);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        eprintln!("GOLDEN {name} = 0x{d:016x}");
        eprintln!("---- {name} ----\n{rendered}\n----");
        return;
    }
    assert_eq!(
        d, golden,
        "{name}: simulated behavior drifted from the golden digest.\n\
         Rendered state:\n{rendered}\n\
         If this change is intentional, re-capture with GOLDEN_PRINT=1."
    );
}

// Re-captured twice, intentionally, for stats-surface and semantic
// changes:
//  * when EnvyStats grew txn_commits/txn_aborts/shadow_pages_pinned
//    (render-only; every pre-existing field was diffed identical), and
//  * when plain writes stopped silently joining an open transaction and
//    EnvyStats grew txn_conflict_refusals/open_txns. TPCA_TIMED changed
//    render only (two new zero counters); FUNCTIONAL changed checksum
//    too, because the workload's plain write inside each transaction now
//    survives the seeded aborts instead of being rolled back with them.
const GOLDEN_TPCA_TIMED: u64 = 0x735ca28e4277dae6;
const GOLDEN_HOT_COLD: u64 = 0xecbf35672a43a528;
const GOLDEN_FUNCTIONAL: u64 = 0xa791df83c16543b9;
const GOLDEN_REPORT_JSON: u64 = 0x844d6103010e5371;
// Captured before the timed read and write paths were folded into one
// per-word step each; nothing else pins a multi-word or page-crossing
// timed access.
const GOLDEN_TIMED_MULTI_WORD: u64 = 0x99ce968538e30095;

/// Seeded timed TPC-A through the store: the fig13/fig15 shape, scaled
/// down, rendered with every statistic and the final simulated clock.
/// With `traced`, a 65 536-record trace ring records the run.
fn tpca_timed_rendered(traced: bool) -> String {
    // Must be large enough for TPC-A's minimum 1-branch layout (~12 MB).
    let mut config = EnvyConfig::scaled(4, 64, 2048, 256)
        .with_store_data(false)
        .with_utilization(0.8);
    config.word_bytes = 8;
    let driver = AnalyticTpca::new(TpcaScale::fit_bytes(config.logical_bytes()));
    let mut store = EnvyStore::new(config).expect("valid config");
    store.prefill().expect("prefill fits");
    // Churn (untimed) past the free space so the timed window below runs
    // at cleaning steady state — the golden must cover CleanCopy/Erase
    // background ops interacting with the simulated clock.
    let accounts = driver.layout().scale.accounts();
    let slot_addr = |id| driver.layout().account_addr(id);
    churn_to_steady_state(&mut store, 0xC0FFEE, 2.0, accounts, slot_addr).expect("churn write");
    if traced {
        store.enable_trace(65_536);
    }
    store.enable_sampler(Ns::from_micros(500), 32);
    let result = run_timed(&mut store, &driver, 30_000.0, 500, 5_000, 42).expect("timed run");
    let series: Vec<String> = store
        .time_series()
        .expect("sampler enabled")
        .rows()
        .iter()
        .map(|(end, vals)| format!("{}:{vals:?}", end.as_nanos()))
        .collect();
    format!(
        "result={result:?}\nnow={}\nbacklog={}\nstats={:?}\nseries={series:?}",
        store.now().as_nanos(),
        store.backlog().as_nanos(),
        store.stats(),
    )
}

/// Exercises COW, flushing, cleaning, suspension and stalls; the digest
/// covers every statistic and the final simulated clock.
#[test]
fn tpca_timed_run_matches_golden() {
    check(
        "GOLDEN_TPCA_TIMED",
        &tpca_timed_rendered(false),
        GOLDEN_TPCA_TIMED,
    );
}

/// What one seeded run of [`multi_word_run`] produced.
#[derive(Debug, PartialEq)]
struct MultiWordRun {
    accesses: Vec<Result<TimedAccess, EnvyError>>,
    /// FNV-1a over every byte the timed reads returned.
    read_bytes: u64,
    now: Ns,
    stats: EnvyStats,
    /// Every trace record, one per line (empty when untraced).
    trace: String,
    stalls: usize,
}

/// Timed accesses of every width the one-word TPC-A golden never issues:
/// one byte, one word, two to five words, and two- to five-word spans
/// crossing a page boundary, through `read_at`, `write_at` and
/// `txn_write_at`. The write buffer is small enough that writes stall
/// and arrivals are dense enough that host accesses collide with long
/// Flash operations.
fn multi_word_run(traced: bool) -> MultiWordRun {
    let mut config = EnvyConfig::small_test().with_buffer_pages(16);
    config.word_bytes = 8;
    let mut store = EnvyStore::new(config).expect("valid config");
    store.prefill().expect("prefill fits");
    if traced {
        store.enable_trace(65_536);
    }
    let page = u64::from(store.config().geometry.page_bytes());
    let word = u64::from(store.config().word_bytes);
    let pages = store.config().logical_pages;
    let mut rng = envy_sim::rng::Rng::seed_from(0x3E17_D0C5);
    let mut now = Ns::ZERO;
    let mut accesses = Vec::new();
    let mut read_bytes = 0xcbf2_9ce4_8422_2325u64;
    let span = |rng: &mut envy_sim::rng::Rng| {
        let (len, crossing) = match rng.below(4) {
            0 => (1, false),
            1 => (word, false),
            k => (word * rng.range(2, 6), k == 3),
        };
        let lp = rng.below(pages - 1);
        let offset = if crossing {
            page - rng.range(1, len)
        } else {
            rng.below(page - len + 1)
        };
        (lp * page + offset, len as usize)
    };
    for i in 0..3_000u64 {
        now += Ns::from_nanos(rng.below(1_500));
        match rng.below(10) {
            0..=4 => {
                let (addr, len) = span(&mut rng);
                let mut buf = vec![0u8; len];
                accesses.push(store.read_at(now, addr, &mut buf));
                for b in &buf {
                    read_bytes ^= u64::from(*b);
                    read_bytes = read_bytes.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            5..=8 => {
                let (addr, len) = span(&mut rng);
                accesses.push(store.write_at(now, addr, &vec![i as u8; len]));
            }
            _ => {
                let txn = store.txn_begin().expect("a free slot");
                for _ in 0..2 {
                    let (addr, len) = span(&mut rng);
                    accesses.push(store.txn_write_at(now, txn, addr, &vec![!(i as u8); len]));
                    now = store.now();
                }
                if i % 2 == 0 {
                    store.txn_commit(txn).expect("commit");
                } else {
                    store.txn_abort(txn).expect("abort");
                }
            }
        }
    }
    let trace: String = store
        .trace()
        .records()
        .map(|r| format!("{r:?}\n"))
        .collect();
    let stalls = store
        .trace()
        .records()
        .filter(|r| matches!(r.event, TraceEvent::Stall { .. }))
        .count();
    MultiWordRun {
        accesses,
        read_bytes,
        now: store.now(),
        stats: store.stats().clone(),
        trace,
        stalls,
    }
}

/// Pins the multi-chunk, multi-word timed paths: every `TimedAccess`,
/// the bytes read, the final clock, the statistics and the trace ring.
#[test]
fn timed_multi_word_run_matches_golden() {
    let run = multi_word_run(true);
    // The run must reach both timed-write branches the digest guards.
    assert!(run.stats.suspensions.get() > 0, "no access was suspended");
    assert!(run.stalls > 0, "no write stalled on a full buffer");
    assert!(run.accesses.iter().all(Result::is_ok));
    assert!(run
        .accesses
        .iter()
        .any(|a| a.as_ref().is_ok_and(|a| a.words > 2)));
    let rendered = format!(
        "accesses={:016x}\nread_bytes={:016x}\nnow={}\nstats={:?}\ntrace={:016x} ({} records)",
        fnv1a(&format!("{:?}", run.accesses)),
        run.read_bytes,
        run.now.as_nanos(),
        run.stats,
        fnv1a(&run.trace),
        run.trace.lines().count(),
    );
    check(
        "GOLDEN_TIMED_MULTI_WORD",
        &rendered,
        GOLDEN_TIMED_MULTI_WORD,
    );
}

/// Tracing observes, never perturbs: both timed goldens give the same
/// statistics, clock and per-access outputs with a 65 536-record ring
/// enabled as without one.
#[test]
fn tracing_leaves_timed_goldens_unchanged() {
    assert_eq!(tpca_timed_rendered(true), tpca_timed_rendered(false));
    let traced = multi_word_run(true);
    let plain = multi_word_run(false);
    assert!(!traced.trace.is_empty());
    assert!(plain.trace.is_empty());
    assert_eq!(
        MultiWordRun {
            trace: String::new(),
            stalls: 0,
            ..traced
        },
        MultiWordRun { stalls: 0, ..plain }
    );
}

/// Seeded hot/cold synthetic cleaning study (the fig06/fig08 shape):
/// exercises locality gathering, shedding, and steady-state cleaning.
#[test]
fn hot_cold_synthetic_matches_golden() {
    let outcome = CleaningStudy::sized(32, 128, PolicyKind::paper_default(), (10, 90))
        .run()
        .expect("study runs");
    check("GOLDEN_HOT_COLD", &format!("{outcome:?}"), GOLDEN_HOT_COLD);
}

/// Functional run with payload storage: byte-exact contents survive
/// buffered rewrites, flushes, cleans and transactions. Exercises the
/// zero-copy read path and the combined insert-and-write entry point.
#[test]
fn functional_payload_run_matches_golden() {
    let mut store = EnvyStore::new(EnvyConfig::small_test()).expect("valid config");
    store.prefill().expect("prefill fits");
    let pages = store.config().logical_pages;
    // Mixed-size writes at page-straddling offsets, seeded.
    let mut rng = envy_sim::rng::Rng::seed_from(0xBEEF);
    for i in 0..6_000u64 {
        let lp = rng.below(pages);
        let offset = rng.below(200);
        let len = 1 + rng.below(48) as usize;
        let byte = (i % 251) as u8;
        store.write(lp * 256 + offset, &vec![byte; len]).unwrap();
        if i % 97 == 0 {
            let txn = store.txn_begin().unwrap();
            store
                .write((lp * 256 + 300) % store.size(), &[0xAA])
                .unwrap();
            if i % 194 == 0 {
                store.txn_abort(txn).unwrap();
            } else {
                store.txn_commit(txn).unwrap();
            }
        }
    }
    store.flush_all().unwrap();
    store.check_invariants().unwrap();
    // Checksum the whole logical array so data placement AND contents
    // are pinned.
    let mut sum = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 4096];
    let mut addr = 0;
    while addr < store.size() {
        let n = (store.size() - addr).min(4096) as usize;
        store.read(addr, &mut buf[..n]).unwrap();
        for b in &buf[..n] {
            sum ^= u64::from(*b);
            sum = sum.wrapping_mul(0x0000_0100_0000_01b3);
        }
        addr += n as u64;
    }
    let rendered = format!("checksum={sum:#x}\nstats={:?}", store.stats());
    check("GOLDEN_FUNCTIONAL", &rendered, GOLDEN_FUNCTIONAL);
}

/// The rendered report document for fixed inputs is byte-stable — the
/// `results/BENCH_*.json` trajectory must not silently change shape.
#[test]
fn report_json_rendering_matches_golden() {
    let points = vec![
        (
            "p0".to_string(),
            vec![("achieved_tps", 12345.5f64), ("cleaning_cost", 1.377)],
        ),
        ("p1".to_string(), vec![("ns_per_txn", 0.25f64)]),
    ];
    let json = render_report("unit_golden", false, 1, 0.0, &points, &[]);
    check("GOLDEN_REPORT_JSON", &json, GOLDEN_REPORT_JSON);
}
