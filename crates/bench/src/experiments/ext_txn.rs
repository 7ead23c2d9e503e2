//! `ext_txn` — extension: end-to-end ACID transactions over the wire
//! (the paper's §3.4 per-operation atomicity, grown to multi-page
//! transactions served remotely).
//!
//! Four studies over one churned steady-state baseline:
//!
//! * **Wire anchor** — a seeded atomic TPC-A stream (with a nonzero
//!   abort draw) through a real TCP server must land on exactly the
//!   simulated clock, controller statistics (commit/abort/shadow
//!   counters included) and bytes of the same spec replayed
//!   synchronously against a monolithic store. This is the digest that
//!   pins the whole wire transaction path — framing, ownership checks,
//!   journaled commit, rollback — to the in-process engine.
//! * **Abort-rate sweep** — closed-loop atomic TPC-A at 0 %, 5 %, 20 %
//!   and 50 % seeded aborts, with 4 transaction slots per shard:
//!   transaction latency percentiles (begin through commit/abort),
//!   measured abort share, slot-full begin refusals, write-set conflict
//!   refusals and retries, and the cleaning work the shadow pages add.
//! * **Concurrency sweep** — the same load at a fixed abort draw while
//!   the per-shard slot table grows 1 → 2 → 4 → 8: slot-full begin
//!   refusals collapse as soon as concurrent transactions can coexist,
//!   leaving only genuine write-set conflicts.
//! * **Cleaner pressure** — the same offered load run plain vs. atomic:
//!   every transactional write pins its pre-image as a shadow page
//!   until commit (§6), capacity the cleaner must carry, so the atomic
//!   row shows the cost of the rollback guarantee in cleaning traffic.
//!
//! Scaled: the shards are small timing arrays (`ServeConfig::scaled`),
//! not the paper's 2 GB one. The subject is the transaction path over
//! the wire, and the wire anchor compares the whole logical space byte
//! for byte: two 1.6 GB buffers on a 2 GB array.

use crate::{emit_rows, ratio, us, Args};
use envy_bench::{emit, timed_driver, PointResult, SweepSpec};
use envy_core::EnvyStore;
use envy_server::loadgen::{run_inproc, run_monolithic, run_socket};
use envy_server::{serve, Client, Listener, LoadReport, LoadSpec, Request, ServeConfig};
use envy_server::{shard, ShardedStore};
use envy_sim::report::Table;
use envy_workload::churn_to_steady_state;
use std::time::Instant;

/// Seeded abort percentages on the sweep's x-axis.
const ABORT_PERCENTS: [u32; 4] = [0, 5, 20, 50];

/// Per-shard transaction slot counts on the concurrency sweep's x-axis.
const SLOT_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Slot table size for the abort-rate sweep: wide enough that the four
/// closed-loop clients practically never collide on `begin`.
const SWEEP_SLOTS: u32 = 4;

/// The wire anchor (also `ext_ycsb`'s): `spec` served by a real one-shard
/// TCP server and replayed synchronously on a monolithic fork of
/// `baseline`, both after the same `load` phase, must end identical in
/// simulated clock, statistics and bytes. Returns the monolithic store
/// and its report.
pub fn wire_anchor(
    baseline: &EnvyStore,
    config: &ServeConfig,
    load: &[Request],
    spec: &LoadSpec,
) -> (EnvyStore, LoadReport) {
    let mut mono = baseline.fork();
    for req in load {
        shard::apply(&mut mono, req).expect("monolithic load phase");
    }
    let mono_report = run_monolithic(&mut mono, spec);
    let front = ShardedStore::launch_from(vec![baseline.fork()], config);
    let plan = *front.plan();
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind ephemeral TCP port");
    let server = serve(listener, front).expect("serve");
    let addr = server.addr().to_string();
    if !load.is_empty() {
        let mut loader = Client::connect_tcp(&addr).expect("load-phase connection");
        for req in load {
            loader.call(req.clone()).expect("served load phase");
        }
    }
    let wire_report =
        run_socket(|| Client::connect_tcp(&addr), plan, spec).expect("socket load run");
    let mut summary = server.shutdown();
    assert!(
        mono_report.aborted_txns > 0,
        "anchor seed must draw nonzero aborts"
    );
    assert_eq!(wire_report.completed_txns, mono_report.completed_txns);
    assert_eq!(wire_report.aborted_txns, mono_report.aborted_txns);
    assert_eq!(wire_report.completed_ops, mono_report.completed_ops);
    assert_eq!(wire_report.errors, 0, "anchor run must be error-free");
    let served = &mut summary.outcome.shards[0].store;
    assert_eq!(served.now(), mono.now(), "anchor: simulated clock diverged");
    assert_eq!(served.stats(), mono.stats(), "anchor: stats diverged");
    let mut got = vec![0u8; mono.size() as usize];
    let mut want = vec![0u8; mono.size() as usize];
    served.read(0, &mut got).unwrap();
    mono.read(0, &mut want).unwrap();
    assert_eq!(got, want, "anchor: contents diverged");
    (mono, mono_report)
}

/// The serving experiments' baseline (also `ext_serve`'s): one
/// [`ServeConfig::scaled`] shard, prefilled and churned to cleaning
/// steady state by uniform account overwrites that consume its initial
/// free space twice.
pub fn scaled_baseline() -> EnvyStore {
    let mut store = EnvyStore::new(ServeConfig::scaled(1).store).expect("config is valid");
    store.prefill().expect("prefill fits");
    let driver = timed_driver(store.config());
    let (layout, seed) = (driver.layout(), 0xC0FFEE);
    let accounts = layout.scale.accounts();
    churn_to_steady_state(&mut store, seed, 2.0, accounts, |id| {
        layout.account_addr(id)
    })
    .expect("churn write");
    store
}

pub fn run(args: &Args) {
    let started = Instant::now();
    let quick = args.quick;
    let txns = args.u64("txns", if quick { 120 } else { 1_000 });
    let clients = args.u64("clients", 4).max(1) as u32;

    // One churned steady-state baseline; every point forks it, so all
    // runs start byte- and state-identical with the cleaner hot.
    let config = ServeConfig::scaled(1);
    let baseline = scaled_baseline();

    // ----------------------------------------------------------------
    // Wire anchor: atomic TPC-A over TCP == synchronous monolithic
    // replay, down to the simulated clock and every statistic.
    // ----------------------------------------------------------------
    let anchor_spec = LoadSpec::closed(1, if quick { 60 } else { 240 })
        .with_seed(0xAC1D)
        .atomic(0.2);
    let (mono, mono_report) = wire_anchor(&baseline, &config, &[], &anchor_spec);
    println!(
        "anchor: atomic TPC-A over the wire == monolithic replay \
         ({} committed, {} aborted, sim {:.3} ms)",
        mono_report.completed_txns,
        mono_report.aborted_txns,
        mono.now().as_nanos() as f64 / 1e6,
    );
    println!();
    let anchor_point = (
        "anchor".to_string(),
        vec![
            ("anchor_committed", mono_report.completed_txns as f64),
            ("anchor_aborted", mono_report.aborted_txns as f64),
            ("anchor_sim_us", us(mono.now())),
            ("anchor_match", 1.0),
        ],
    );

    // ----------------------------------------------------------------
    // Abort-rate sweep: closed-loop atomic TPC-A, 2 shards.
    // ----------------------------------------------------------------
    let baseline = &baseline;
    let sweep =
        SweepSpec::new("ext_txn", ABORT_PERCENTS.to_vec()).run_with_jobs(args.jobs, |_, &pct| {
            let shards = 2u32;
            let config = ServeConfig::scaled(shards).with_txn_slots(SWEEP_SLOTS);
            let stores = (0..shards).map(|_| baseline.fork()).collect();
            let front = ShardedStore::launch_from(stores, &config);
            let load = LoadSpec::closed(clients, txns)
                .with_seed(0x7A_C1D0 + u64::from(pct))
                .atomic(f64::from(pct) / 100.0);
            let report = run_inproc(&front.handle(), &load);
            let outcome = front.shutdown();
            assert_eq!(report.errors, 0, "serving errors at {pct}% aborts");
            for shard in &outcome.shards {
                assert!(
                    shard.store.engine().open_txns().is_empty(),
                    "transaction left open at {pct}% aborts"
                );
            }
            let total = report.completed_txns + report.aborted_txns;
            let measured = ratio(report.aborted_txns as f64, total as f64) * 100.0;
            let stats = outcome.aggregate_stats();
            let [p50, p95, p99, _] = report
                .txn_latency
                .percentiles()
                .expect("latencies recorded");
            PointResult::row(
                format!("{pct}% aborts"),
                vec![
                    pct.to_string(),
                    report.completed_txns.to_string(),
                    report.aborted_txns.to_string(),
                    format!("{measured:.1}"),
                    report.txn_conflicts.to_string(),
                    report.txn_conflict_refusals.to_string(),
                    report.txn_conflict_retries.to_string(),
                    format!("{:.1}", us(p50)),
                    format!("{:.1}", us(p95)),
                    format!("{:.1}", us(p99)),
                    stats.shadow_pages_pinned.get().to_string(),
                    stats.cleans.get().to_string(),
                ],
            )
            .metric("abort_pct_seeded", f64::from(pct))
            .metric("committed_txns", report.completed_txns as f64)
            .metric("aborted_txns", report.aborted_txns as f64)
            .metric("abort_pct_measured", measured)
            .metric("txn_conflicts", report.txn_conflicts as f64)
            .metric("txn_conflict_refusals", report.txn_conflict_refusals as f64)
            .metric("txn_conflict_retries", report.txn_conflict_retries as f64)
            .metric("txn_p50_us", us(p50))
            .metric("txn_p95_us", us(p95))
            .metric("txn_p99_us", us(p99))
            .metric(
                "shadow_pages_pinned",
                stats.shadow_pages_pinned.get() as f64,
            )
            .metric("cleans", stats.cleans.get() as f64)
            .metric("wall_tps", report.throughput_tps())
        });
    emit_rows(
        "Section 3.4 + 6",
        "atomic TPC-A: seeded abort-rate sweep (closed loop, 2 shards, 4 slots)",
        &[
            "seeded %",
            "committed",
            "aborted",
            "measured %",
            "slot busy",
            "conflicts",
            "retries",
            "p50 us",
            "p95 us",
            "p99 us",
            "shadows",
            "cleans",
        ],
        &sweep.rows,
    );
    println!();

    // ----------------------------------------------------------------
    // Concurrency sweep: per-shard slot table 1 -> 2 -> 4 -> 8 at a
    // fixed 20 % abort draw. Slot-full begin refusals collapse once
    // transactions can coexist; only write-set conflicts remain.
    // ----------------------------------------------------------------
    let conc = SweepSpec::new("ext_txn_slots", SLOT_COUNTS.to_vec()).run_with_jobs(
        args.jobs,
        |_, &slots| {
            let shards = 2u32;
            let config = ServeConfig::scaled(shards).with_txn_slots(slots);
            let stores = (0..shards).map(|_| baseline.fork()).collect();
            let front = ShardedStore::launch_from(stores, &config);
            let load = LoadSpec::closed(clients, txns)
                .with_seed(0x510_7500 + u64::from(slots))
                .atomic(0.2);
            let report = run_inproc(&front.handle(), &load);
            let outcome = front.shutdown();
            assert_eq!(report.errors, 0, "serving errors at {slots} slots");
            for shard in &outcome.shards {
                assert!(
                    shard.store.engine().open_txns().is_empty(),
                    "transaction left open at {slots} slots"
                );
            }
            let [p50, _, p99, _] = report
                .txn_latency
                .percentiles()
                .expect("latencies recorded");
            PointResult::row(
                format!("{slots} slots"),
                vec![
                    slots.to_string(),
                    report.completed_txns.to_string(),
                    report.aborted_txns.to_string(),
                    report.txn_conflicts.to_string(),
                    report.txn_conflict_refusals.to_string(),
                    report.txn_conflict_retries.to_string(),
                    format!("{:.1}", us(p50)),
                    format!("{:.1}", us(p99)),
                ],
            )
            .metric("txn_slots", f64::from(slots))
            .metric("committed_txns", report.completed_txns as f64)
            .metric("aborted_txns", report.aborted_txns as f64)
            .metric("txn_conflicts", report.txn_conflicts as f64)
            .metric("txn_conflict_refusals", report.txn_conflict_refusals as f64)
            .metric("txn_conflict_retries", report.txn_conflict_retries as f64)
            .metric("txn_p50_us", us(p50))
            .metric("txn_p99_us", us(p99))
            .metric("wall_tps", report.throughput_tps())
        },
    );
    emit_rows(
        "Section 6 (extension)",
        "atomic TPC-A: per-shard transaction slots 1/2/4/8 (20% aborts)",
        &[
            "slots",
            "committed",
            "aborted",
            "slot busy",
            "conflicts",
            "retries",
            "p50 us",
            "p99 us",
        ],
        &conc.rows,
    );
    println!();

    // ----------------------------------------------------------------
    // Cleaner pressure: the same offered load, plain vs. atomic.
    // ----------------------------------------------------------------
    let mut pressure_rows: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    let mut pressure_table = Table::new(&[
        "mode",
        "txns",
        "shadows pinned",
        "cleans",
        "clean programs",
        "commits",
        "aborts",
    ]);
    for (name, atomic) in [("plain", None), ("atomic", Some(0.05))] {
        let front = ShardedStore::launch_from(vec![baseline.fork()], &ServeConfig::scaled(1));
        let mut load = LoadSpec::closed(clients, txns).with_seed(0xC1EA);
        if let Some(a) = atomic {
            load = load.atomic(a);
        }
        let report = run_inproc(&front.handle(), &load);
        let outcome = front.shutdown();
        assert_eq!(report.errors, 0, "cleaner-pressure errors ({name})");
        let stats = outcome.aggregate_stats();
        pressure_table.row(&[
            name.to_string(),
            (report.completed_txns + report.aborted_txns).to_string(),
            stats.shadow_pages_pinned.get().to_string(),
            stats.cleans.get().to_string(),
            stats.clean_programs.get().to_string(),
            stats.txn_commits.get().to_string(),
            stats.txn_aborts.get().to_string(),
        ]);
        pressure_rows.push((
            format!("pressure/{name}"),
            vec![
                ("txns", (report.completed_txns + report.aborted_txns) as f64),
                (
                    "shadow_pages_pinned",
                    stats.shadow_pages_pinned.get() as f64,
                ),
                ("cleans", stats.cleans.get() as f64),
                ("clean_programs", stats.clean_programs.get() as f64),
                ("txn_commits", stats.txn_commits.get() as f64),
                ("txn_aborts", stats.txn_aborts.get() as f64),
            ],
        ));
    }
    emit(
        "Section 6",
        "cleaner pressure: shadow pages pinned by open transactions",
        &pressure_table,
    );

    let mut points = vec![anchor_point];
    points.extend(sweep.points.iter().cloned());
    points.extend(conc.points.iter().cloned());
    points.extend(pressure_rows);
    args.write_report("ext_txn", sweep.jobs, started, &points, &[]);
}
