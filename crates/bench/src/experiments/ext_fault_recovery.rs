//! Extension: fault injection and crash-recovery characterization.
//!
//! The paper argues (§3.4) that keeping the cleaning state in persistent
//! memory lets the controller "recover quickly after a failure", but
//! reports no recovery measurements. This extension exercises the
//! repository's deterministic fault layer two ways:
//!
//! * **Crash matrix** — for every numbered injection point (flush,
//!   clean, erase, wear swap, transaction commit and rollback) a
//!   workload is driven until the armed power failure fires, then the
//!   store is recovered and the recovery report is tabulated: what
//!   debris each crash class leaves (orphaned programs scavenged, stale
//!   buffer entries dropped, stale shadows released, a clean resumed
//!   from the journal, an in-flight transaction committed or rolled
//!   back all-or-nothing — `docs/TRANSACTIONS.md`).
//! * **Fault-rate sweep** — steady-state churn under increasing injected
//!   `program_error` rates, showing the retry/remap cost surfacing in
//!   [`envy_core::EnvyStats`] and the effect on cleaning cost. Rate 0
//!   arms nothing and is byte-identical to an unfaulted run.
//!
//! See `docs/CRASH_CONSISTENCY.md` for the recovery contract behind the
//! crash matrix.

use crate::{emit_rows, Args};
use envy_bench::PointResult;
use envy_core::{
    EnvyConfig, EnvyError, EnvyStore, FaultPlan, InjectionPoint, PolicyKind, RecoveryReport,
};
use envy_sim::report::fmt_f64;
use envy_sim::rng::Rng;

const PAGE: u64 = 256;

/// One sweep point: a crash-matrix entry or a fault-rate entry.
#[derive(Debug, Clone, Copy)]
enum Point {
    Crash(InjectionPoint),
    Rate(u64), // injected program failures per 10k programs
}

/// Small untimed store with frequent cleaning and wear swaps, so every
/// injection point is reachable quickly. Two transaction slots, so the
/// crash matrix covers interleaved in-flight transactions.
fn crash_config() -> EnvyConfig {
    EnvyConfig::scaled(2, 8, 32, PAGE as u32)
        .with_policy(PolicyKind::LocalityGathering)
        .with_utilization(0.7)
        .with_buffer_pages(8)
        .with_wear_threshold(5)
        .with_txn_slots(2)
}

/// Drive writes and transactions until the armed crash fires; returns
/// the steps taken and the recovery report. Up to two transactions are
/// kept in flight with transactional writes interleaved between them
/// and with plain writes, so shadow-page cleaning, multi-record commit
/// journaling, and multi-transaction recovery are all reachable.
fn crash_point(point: InjectionPoint, max_steps: u64) -> (u64, RecoveryReport) {
    let mut s = EnvyStore::new(crash_config()).expect("config is valid");
    s.prefill().expect("prefill fits");
    let n = s.config().logical_pages;
    s.arm_faults(FaultPlan::crash_at(point, 1));
    let mut rng = Rng::seed_from(0xFA17 ^ point.index() as u64);
    let mut open: Vec<u64> = Vec::new();
    let mut txn_seq = 0u64;
    let mut steps = 0;
    for step in 0..max_steps {
        steps = step + 1;
        let phase = step % 37;
        let r = if (phase == 0 || phase == 7) && open.len() < 2 {
            match s.txn_begin() {
                Ok(id) => {
                    open.push(id);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else if phase == 20 && !open.is_empty() {
            // Alternate resolution so both the commit and the rollback
            // injection points are reachable; the oldest transaction
            // resolves while the younger one stays in flight.
            let id = open.remove(0);
            txn_seq += 1;
            if txn_seq.is_multiple_of(2) {
                s.txn_abort(id)
            } else {
                s.txn_commit(id)
            }
        } else {
            // Hot region with occasional full-range writes (see the
            // wear-leveling test recipe), spread over both open write
            // sets and the plain path.
            let lp = if step % 8 == 7 {
                rng.below(n)
            } else {
                rng.below(64.min(n))
            };
            let data = [rng.next_u64() as u8; 4];
            // Transactional writes stay inside a narrow region: every
            // distinct page in a write set pins a shadow until the
            // transaction resolves, and the small crash store cannot
            // afford wide write sets without starving the cleaner.
            match (phase % 3, open.as_slice()) {
                (1, [first, ..]) => s.txn_write(*first, rng.below(8.min(n)) * PAGE, &data),
                (2, [_, second]) => {
                    s.txn_write(*second, (8 + rng.below(8)).min(n - 1) * PAGE, &data)
                }
                _ => s.write(lp * PAGE, &data),
            }
        };
        match r {
            Ok(()) => {}
            Err(EnvyError::PowerLoss) => break,
            // A write landed on a page another open transaction owns:
            // the refusal is the isolation contract, not a failure.
            Err(EnvyError::TxnConflict { .. }) => {}
            Err(e) => panic!("unexpected error driving {point:?}: {e}"),
        }
    }
    assert!(s.engine().crash_fired(), "workload never reached {point:?}");
    s.power_failure();
    let report = s.recover().expect("recovery must succeed");
    s.check_invariants().expect("invariants after recovery");
    (steps, report)
}

/// Steady-state churn under an injected program-failure rate (failures
/// per 10k program operations); returns the store for stats readout.
fn rate_run(rate: u64, writes: u64) -> EnvyStore {
    let config = EnvyConfig::scaled(2, 16, 128, PAGE as u32).with_buffer_pages(32);
    let mut s = EnvyStore::new(config).expect("config is valid");
    s.prefill().expect("prefill fits");
    if let Some(period) = 10_000u64.checked_div(rate) {
        // Cover far more program ops than the churn can issue.
        let schedule = (1..).map(|i| i * period).take_while(|&op| op < writes * 8);
        s.arm_faults(FaultPlan::default().with_program_failures(schedule));
    }
    let n = s.config().logical_pages;
    let mut rng = Rng::seed_from(0x5EED);
    for _ in 0..writes {
        let lp = rng.below(n);
        s.write(lp * PAGE, &[rng.next_u64() as u8; 4])
            .expect("faulted writes are retried, not failed");
    }
    s.check_invariants().expect("invariants after churn");
    s
}

pub fn run(args: &Args) {
    let quick = args.quick;
    let max_steps = args.u64("max-steps", 60_000);
    let writes = args.u64("writes", if quick { 20_000 } else { 100_000 });
    let rates: &[u64] = &[0, 5, 20, 50, 100];

    let mut points: Vec<Point> = InjectionPoint::ALL
        .iter()
        .copied()
        .map(Point::Crash)
        .collect();
    points.extend(rates.iter().copied().map(Point::Rate));

    let crash_count = InjectionPoint::ALL.len();
    let outcome = args.sweep("ext_fault_recovery", points, |_, &point| match point {
        Point::Crash(p) => {
            let (steps, r) = crash_point(p, max_steps);
            let resolution = match (r.txn_completed.len(), r.txn_rolled_back.len()) {
                (0, 0) => "-".to_string(),
                (c, 0) => format!("{c} committed"),
                (0, b) => format!("{b} rolled back"),
                (c, b) => format!("{c} committed, {b} rolled back"),
            };
            PointResult::row(
                format!("crash:{}", p.label()),
                vec![
                    p.label().to_string(),
                    steps.to_string(),
                    if r.resumed_clean { "yes" } else { "no" }.to_string(),
                    r.scavenged_pages.to_string(),
                    r.dropped_buffer_pages.to_string(),
                    r.released_shadows.to_string(),
                    r.buffered_pages.to_string(),
                    resolution,
                ],
            )
            .metric("steps_to_crash", steps as f64)
            .metric("scavenged", r.scavenged_pages as f64)
            .metric("dropped_buffer", r.dropped_buffer_pages as f64)
            .metric("released_shadows", r.released_shadows as f64)
            .metric("resumed_clean", r.resumed_clean as u64 as f64)
            .metric(
                "txn_resolved",
                (!r.txn_completed.is_empty() || !r.txn_rolled_back.is_empty()) as u64 as f64,
            )
        }
        Point::Rate(rate) => {
            let s = rate_run(rate, writes);
            let st = s.stats();
            let flushed = st.pages_flushed.get().max(1);
            let cost = st.clean_programs.get() as f64 / flushed as f64;
            PointResult::row(
                format!("rate:{rate}"),
                vec![
                    rate.to_string(),
                    st.program_faults.get().to_string(),
                    st.program_retries.get().to_string(),
                    st.program_remaps.get().to_string(),
                    st.cleans.get().to_string(),
                    fmt_f64(cost),
                ],
            )
            .metric("program_faults", st.program_faults.get() as f64)
            .metric("program_retries", st.program_retries.get() as f64)
            .metric("program_remaps", st.program_remaps.get() as f64)
            .metric("cleaning_cost", cost)
        }
    });

    let recovered = crash_count; // crash_point panics on any failure
    println!("== Extension: fault injection and crash recovery ==");
    println!();
    println!("crash matrix: {recovered}/{crash_count} injection points crashed and recovered");
    println!();

    emit_rows(
        "Crash matrix",
        "recovery debris per injection point (docs/CRASH_CONSISTENCY.md)",
        &[
            "injection point",
            "steps",
            "resumed clean",
            "scavenged",
            "dropped buf",
            "released shadows",
            "buffered",
            "txn at crash",
        ],
        &outcome.rows[..crash_count],
    );

    emit_rows(
        "Fault-rate sweep",
        "retry/remap cost of injected program failures",
        &[
            "faults/10k programs",
            "faults",
            "retries",
            "remaps",
            "cleans",
            "clean programs per flush",
        ],
        &outcome.rows[crash_count..],
    );
}
