//! `ext_ycsb` — extension: YCSB-style key-value serving over the
//! sharded front end (the `envy-kv` subsystem on the paper's store).
//!
//! Three studies over one churned steady-state baseline:
//!
//! * **Wire anchor** — a seeded atomic YCSB-A stream (reads plus
//!   read-modify-write updates, with a nonzero abort draw) through a
//!   real TCP server must land on exactly the simulated clock,
//!   controller statistics, and bytes of the same spec replayed
//!   synchronously against a monolithic store — after both sides run
//!   the identical deterministic load phase. This pins the whole KV
//!   wire path (framing, B-Tree index, heap records, transactional
//!   rollback) to the in-process engine.
//! * **Mix sweep** — closed-loop YCSB A/B/C/D/E at 1 and 8 shards:
//!   completed operations, wall-clock throughput, and operation latency
//!   percentiles (p50/p99/p999). Keys route to shards by `key % shards`,
//!   so a workload-E scan walks one shard's slice of the key space.
//! * **Wear under skew** — YCSB-A updates with a uniform key draw vs.
//!   the standard 0.99-zipfian skew, reported against the §5.5 lifetime
//!   machinery: pages flushed, cleaning operations and cost, erases,
//!   wear-leveling swaps, and the projected lifetime of the paper's
//!   2 GB array. KV operations run the untimed store path, so the
//!   projection follows §5.5's scale-free form: flushes *per operation*
//!   (measured as a delta over the loaded steady state) times an
//!   assumed serving rate (`--rate`, default 10 000 ops/s).
//!
//! Scaled: the shards are 2 MiB functional arrays (`kv_config`), not the
//! paper's 2 GB one. The KV layer stores real bytes, so a shard's memory
//! is its array; only the lifetime projection is onto the 2 GB array.

use super::ext_txn::wire_anchor;
use crate::{emit_rows, ratio, us, Args};
use envy_bench::{emit, point_seed, PointResult, SweepSpec};
use envy_core::{lifetime_days, EnvyConfig, EnvyStore};
use envy_flash::FlashGeometry;
use envy_server::loadgen::{run_inproc, ycsb_load_requests};
use envy_server::{LoadSpec, ServeConfig, ShardedStore};
use envy_sim::report::{fmt_f64, Table};
use envy_workload::churn_to_steady_state;
use envy_workload::ycsb::{YcsbConfig, YcsbMix};
use std::time::Instant;

/// Shard counts on the mix sweep's x-axis.
const SHARD_COUNTS: [u32; 2] = [1, 8];

/// All five core mixes.
const MIXES: [YcsbMix; 5] = [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::D, YcsbMix::E];

/// Rated program/erase cycles per segment (§5.5 uses 1M-cycle parts).
const RATED_CYCLES: u64 = 1_000_000;

/// A functional serving configuration: unlike [`ServeConfig::scaled`],
/// the array stores real payload bytes (`store_data`), which the KV
/// subsystem needs — its B-Tree nodes and heap records live *in* the
/// store. 2 MiB physical per shard (32 segments of 256 × 256-byte
/// pages over 4 banks) at 80 % utilization.
fn kv_config(shards: u32) -> ServeConfig {
    let mut config = ServeConfig::small(shards);
    config.store = EnvyConfig::scaled(4, 32, 256, 256).with_utilization(0.8);
    config.queue_capacity = 1_024;
    config.batch_max = 64;
    config
}

pub fn run(args: &Args) {
    let started = Instant::now();
    let quick = args.quick;
    let records = args.u64("records", if quick { 512 } else { 2_048 });
    let ops = args.u64("ops", if quick { 200 } else { 2_000 });
    let clients = args.u64("clients", 4).max(1) as u32;
    let rate = args.u64("rate", 10_000) as f64;

    // One churned steady-state baseline; every point forks it, so all
    // runs start byte- and state-identical with the cleaner hot.
    let config = kv_config(1);
    let mut baseline = EnvyStore::new(config.store.clone()).expect("config is valid");
    baseline.prefill().expect("prefill fits");
    // Uniform 8-byte record overwrites over the whole array: the TPC-A
    // account layout needs a larger array than these functional shards.
    let slots = baseline.size() / 8;
    churn_to_steady_state(&mut baseline, 0xC0FFEE, 2.0, slots, |slot| slot * 8)
        .expect("churn write");

    // ----------------------------------------------------------------
    // Wire anchor: atomic YCSB-A over TCP == synchronous monolithic
    // replay — identical load phase, identical measured stream, down
    // to the simulated clock, every statistic, and the store bytes.
    // ----------------------------------------------------------------
    let anchor_kv = YcsbConfig::standard(YcsbMix::A, records.min(512));
    let anchor_spec = LoadSpec::closed(1, if quick { 120 } else { 400 })
        .with_seed(0x5CB_AC1D)
        .with_ycsb(anchor_kv.clone())
        .atomic(0.2);
    let load = ycsb_load_requests(&anchor_kv, 1);
    let (_, mono_report) = wire_anchor(&baseline, &config, &load, &anchor_spec);
    println!(
        "anchor: atomic YCSB-A over the wire == monolithic replay \
         ({} committed, {} aborted, {} ops)",
        mono_report.completed_txns, mono_report.aborted_txns, mono_report.completed_ops,
    );
    println!();
    let anchor_point = (
        "anchor".to_string(),
        vec![
            ("anchor_committed", mono_report.completed_txns as f64),
            ("anchor_aborted", mono_report.aborted_txns as f64),
            ("anchor_ops", mono_report.completed_ops as f64),
            ("anchor_match", 1.0),
        ],
    );

    // ----------------------------------------------------------------
    // Mix sweep: YCSB A-E at 1 and 8 shards, closed loop.
    // ----------------------------------------------------------------
    let points: Vec<(YcsbMix, u32)> = SHARD_COUNTS
        .iter()
        .flat_map(|&shards| MIXES.iter().map(move |&mix| (mix, shards)))
        .collect();
    let baseline = &baseline;
    let sweep = SweepSpec::new("ext_ycsb", points).run_with_jobs(args.jobs, |i, &(mix, shards)| {
        let kv = YcsbConfig::standard(mix, records);
        let config = kv_config(shards);
        let stores = (0..shards).map(|_| baseline.fork()).collect();
        let front = ShardedStore::launch_from(stores, &config);
        let handle = front.handle();
        for req in ycsb_load_requests(&kv, shards) {
            handle.call(req).expect("load phase");
        }
        let spec = LoadSpec::closed(clients, ops)
            .with_seed(point_seed(0x5CB_0001, i as u64))
            .with_ycsb(kv);
        let report = run_inproc(&handle, &spec);
        front.shutdown();
        assert_eq!(report.errors, 0, "serving errors on mix {mix:?} x{shards}");
        let label = format!("{} x{shards}", mix.name().to_uppercase());
        let [p50, _, p99, p999] = report
            .txn_latency
            .percentiles()
            .expect("latencies recorded");
        PointResult::row(
            label.clone(),
            vec![
                mix.name().to_uppercase(),
                shards.to_string(),
                report.completed_txns.to_string(),
                fmt_f64(report.throughput_tps()),
                format!("{:.1}", us(p50)),
                format!("{:.1}", us(p99)),
                format!("{:.1}", us(p999)),
            ],
        )
        .metric("shards", f64::from(shards))
        .metric("completed_ops", report.completed_txns as f64)
        .metric("wall_tps", report.throughput_tps())
        .metric("p50_us", us(p50))
        .metric("p99_us", us(p99))
        .metric("p999_us", us(p999))
    });
    emit_rows(
        "Extension (YCSB)",
        "YCSB A-E over the sharded KV front end (closed loop)",
        &[
            "mix", "shards", "ops", "ops/s", "p50 us", "p99 us", "p999 us",
        ],
        &sweep.rows,
    );
    println!();

    // ----------------------------------------------------------------
    // Wear under skew: YCSB-A updates, uniform vs. 0.99 zipfian,
    // against the Section 5.5 lifetime machinery.
    // ----------------------------------------------------------------
    let wear_ops = ops * 4;
    // The projection is onto the paper's 2 GB array (§5.5).
    let paper_pages = FlashGeometry::paper_2gb().total_pages();
    let mut wear_rows: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    let mut wear_table = Table::new(&[
        "key draw",
        "flushes",
        "cleans",
        "clean pgms",
        "erases",
        "wear swaps",
        "clean cost",
        "lifetime days",
    ]);
    for (name, s) in [("uniform", 0.0), ("zipfian", 0.99)] {
        let mut kv = YcsbConfig::standard(YcsbMix::A, records);
        kv.zipf_s = s;
        // Load the store *before* launching the front so the measured
        // phase can be isolated as a statistics delta: churn and load
        // flushes belong to the steady state, not to the operations.
        let mut store = baseline.fork();
        for req in ycsb_load_requests(&kv, 1) {
            envy_server::shard::apply(&mut store, &req).expect("wear load phase");
        }
        let loaded = store.stats().clone();
        let front = ShardedStore::launch_from(vec![store], &kv_config(1));
        let spec = LoadSpec::closed(clients, wear_ops)
            .with_seed(0x5CB_3A7 + s.to_bits())
            .with_ycsb(kv);
        let report = run_inproc(&front.handle(), &spec);
        let outcome = front.shutdown();
        assert_eq!(report.errors, 0, "wear run errors ({name})");
        let stats = outcome.shards[0].store.stats();
        let flushed = stats.pages_flushed.get() - loaded.pages_flushed.get();
        let clean_programs = stats.clean_programs.get() - loaded.clean_programs.get();
        let cleans = stats.cleans.get() - loaded.cleans.get();
        let erases = stats.erases.get() - loaded.erases.get();
        let wear_swaps = stats.wear_swaps.get() - loaded.wear_swaps.get();
        let cost = ratio(clean_programs as f64, flushed as f64);
        let total_ops = report.completed_txns.max(1);
        let flushes_per_op = flushed as f64 / total_ops as f64;
        let days = lifetime_days(paper_pages, RATED_CYCLES, flushes_per_op * rate, cost);
        wear_table.row(&[
            name.to_string(),
            flushed.to_string(),
            cleans.to_string(),
            clean_programs.to_string(),
            erases.to_string(),
            wear_swaps.to_string(),
            fmt_f64(cost),
            fmt_f64(days),
        ]);
        wear_rows.push((
            format!("wear/{name}"),
            vec![
                ("zipf_s", s),
                ("pages_flushed", flushed as f64),
                ("cleans", cleans as f64),
                ("clean_programs", clean_programs as f64),
                ("erases", erases as f64),
                ("wear_swaps", wear_swaps as f64),
                ("cleaning_cost", cost),
                ("flushes_per_op", flushes_per_op),
                ("assumed_ops_per_sec", rate),
                ("lifetime_days", days),
            ],
        ));
    }
    emit(
        "Section 5.5 (extension)",
        "YCSB-A update wear: uniform vs. zipfian key skew (1 shard)",
        &wear_table,
    );

    let mut points = vec![anchor_point];
    points.extend(sweep.points.iter().cloned());
    points.extend(wear_rows);
    args.write_report("ext_ycsb", sweep.jobs, started, &points, &[]);
}
