//! `ext_serve` — extension: sharded serving scalability (the paper's §6
//! multiple-controller organization).
//!
//! Drives the sharded front end (`ShardedStore`) in process, closed-loop,
//! with a fixed offered workload (8 clients, skewed TPC-A mix) at 1, 2,
//! 4 and 8 shards, each shard an independent eNVy controller forked
//! from one churned steady-state baseline. Each request runs on its
//! client's thread, and eight client threads share however few CPUs the
//! host has, so the scaling metric is **aggregate simulated-time
//! throughput**: completed transactions divided by the slowest shard's
//! simulated-clock advance — the makespan a real multi-controller array
//! would take for the same work. Wall-clock throughput and transaction
//! latency percentiles are reported alongside, and an open-loop point
//! at a fixed offered rate exercises the coordinated-omission-corrected
//! latency accounting.
//!
//! A determinism anchor runs first: a single-submitter stream through
//! the one-shard front end must land on exactly the simulated clock and
//! controller statistics of the same stream applied synchronously to a
//! monolithic store (`loadgen::run_monolithic`).
//!
//! Scaled: each shard is a small timing array (`ServeConfig::scaled`),
//! not the paper's 2 GB one. The subject is the serving stack above the
//! controller, and eight 2 GB shards would hold about 1 GiB of
//! controller state (about 120 MiB each) per point.

use super::ext_txn::scaled_baseline;
use crate::{ratio, us, Args};
use envy_bench::{emit, PointResult, SweepSpec};
use envy_server::loadgen::{run_inproc, run_monolithic, run_socket};
use envy_server::{
    raise_nofile, serve, Client, Listener, LoadSpec, ServeConfig, ShardPlan, ShardedStore,
};
use envy_sim::report::Table;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shard counts on the x-axis.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Open file descriptors of this process (`/proc/self/fd`).
fn fd_count() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// Resident set size in KiB (`/proc/self/status` `VmRSS`).
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Connect, retrying briefly: a burst of sequential connects can
/// overflow the listener backlog between accept sweeps.
fn connect_retry(path: &Path) -> Client {
    let start = Instant::now();
    loop {
        match Client::connect_unix(path) {
            Ok(c) => return c,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "could not connect to {}: {e}",
                    path.display()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Hidden helper mode: hold `n` idle connections to `path` from a child
/// process. The container's hard fd limit (20000) cannot be raised even
/// by root, and a single-process 10k-connection harness needs two fds
/// per connection (client end + server end); parking the client ends in
/// a child gives each side its own fd budget. Prints `ready` once all
/// connections are up, then holds them until stdin reaches EOF.
fn hold_idle(n: u64, path: &Path) -> ! {
    use std::io::Read;
    let conns: Vec<Client> = (0..n).map(|_| connect_retry(path)).collect();
    println!("ready");
    let mut buf = [0u8; 64];
    while matches!(std::io::stdin().read(&mut buf), Ok(1..)) {}
    drop(conns);
    std::process::exit(0);
}

pub fn run(args: &Args) {
    if let Some((n, path)) = &args.hold_idle {
        hold_idle(*n, path);
    }
    let started = Instant::now();
    let quick = args.quick;
    let txns = args.u64("txns", if quick { 150 } else { 1_500 });
    let clients = args.u64("clients", 8).max(1) as u32;
    let rate = args.u64("rate", if quick { 2_000 } else { 4_000 });

    // One churned steady-state baseline; every shard of every point
    // forks it, so all controllers start byte- and state-identical.
    let baseline = scaled_baseline();

    // Determinism anchor: one shard, one submitter — the front end must
    // be indistinguishable from the monolithic store it wraps.
    let anchor_spec = LoadSpec::closed(1, if quick { 100 } else { 400 }).with_seed(0xA5C0);
    let mut mono = baseline.fork();
    let mono_report = run_monolithic(&mut mono, &anchor_spec);
    let front = ShardedStore::launch_from(vec![baseline.fork()], &ServeConfig::scaled(1));
    let front_report = run_inproc(&front.handle(), &anchor_spec);
    let anchor_outcome = front.shutdown();
    let shard0 = &anchor_outcome.shards[0].store;
    assert_eq!(shard0.now(), mono.now(), "anchor: simulated clock diverged");
    assert_eq!(
        shard0.stats(),
        mono.stats(),
        "anchor: controller stats diverged"
    );
    assert_eq!(front_report.completed_ops, mono_report.completed_ops);
    println!(
        "anchor: 1-shard front end == monolithic store ({} txns, sim {:.3} ms)",
        mono_report.completed_txns,
        shard0.now().as_nanos() as f64 / 1e6,
    );
    println!();
    let anchor_point = (
        "anchor".to_string(),
        vec![
            ("anchor_txns", mono_report.completed_txns as f64),
            ("anchor_sim_us", us(shard0.now())),
            ("anchor_match", 1.0),
        ],
    );

    // Closed-loop shard-count sweep at a fixed offered workload.
    let baseline = &baseline;
    let sweep = SweepSpec::new("ext_serve", SHARD_COUNTS.to_vec()).run_with_jobs(
        args.jobs,
        |_, &shards| {
            let config = ServeConfig::scaled(shards);
            let stores = (0..shards).map(|_| baseline.fork()).collect();
            let front = ShardedStore::launch_from(stores, &config);
            let load = LoadSpec::closed(clients, txns).with_seed(0x5e47e);
            let report = run_inproc(&front.handle(), &load);
            let outcome = front.shutdown();
            assert_eq!(report.errors, 0, "serving errors at {shards} shards");
            let sim_us = us(outcome.max_sim_time());
            let sim_tps = ratio(report.completed_txns as f64, sim_us / 1e6);
            let [p50, p95, p99, p999] = report
                .txn_latency
                .percentiles()
                .expect("latencies recorded");
            let max_batch = outcome
                .shards
                .iter()
                .map(|s| s.max_batch)
                .max()
                .unwrap_or(0);
            PointResult::row(
                format!("{shards} shards"),
                vec![
                    shards.to_string(),
                    report.completed_txns.to_string(),
                    format!("{:.2}", sim_us / 1e3),
                    format!("{:.1}", sim_tps / 1e3),
                    format!("{:.1}", report.throughput_tps() / 1e3),
                    format!("{:.1}", us(p50)),
                    format!("{:.1}", us(p95)),
                    format!("{:.1}", us(p99)),
                    format!("{:.1}", us(p999)),
                    report.busy_retries.to_string(),
                ],
            )
            .metric("shards", f64::from(shards))
            .metric("completed_txns", report.completed_txns as f64)
            .metric("sim_makespan_us", sim_us)
            .metric("sim_tps", sim_tps)
            .metric("wall_tps", report.throughput_tps())
            .metric("p50_us", us(p50))
            .metric("p95_us", us(p95))
            .metric("p99_us", us(p99))
            .metric("p999_us", us(p999))
            .metric("busy_retries", report.busy_retries as f64)
            .metric("max_batch", f64::from(max_batch))
        },
    );

    let sim_tps_of = |i: usize| {
        sweep.points[i]
            .1
            .iter()
            .find(|(name, _)| *name == "sim_tps")
            .map_or(0.0, |&(_, v)| v)
    };
    let base_tps = sim_tps_of(0);
    let mut table = Table::new(&[
        "shards",
        "txns",
        "sim ms",
        "sim ktps",
        "wall ktps",
        "p50 us",
        "p95 us",
        "p99 us",
        "p999 us",
        "busy",
        "speedup",
    ]);
    for (i, row) in sweep.rows.iter().enumerate() {
        let mut row = row.clone();
        let speedup = ratio(sim_tps_of(i), base_tps);
        row.push(format!("{speedup:.2}x"));
        table.row(&row);
    }
    emit(
        "Section 6",
        "sharded serving: closed-loop scaling (simulated-time aggregate)",
        &table,
    );
    let last = sweep.points.len() - 1;
    let scaling = ratio(sim_tps_of(last), base_tps);
    println!(
        "aggregate simulated-time scaling 1 -> {} shards: {scaling:.2}x",
        SHARD_COUNTS[last]
    );
    println!();

    // One open-loop point: offered-rate pacing with latency measured
    // from the scheduled start (queueing delay counts).
    let open_shards = 4u32;
    let open_front = ShardedStore::launch_from(
        (0..open_shards).map(|_| baseline.fork()).collect(),
        &ServeConfig::scaled(open_shards),
    );
    let open_dur = Duration::from_millis(if quick { 250 } else { 1_000 });
    let open_spec = LoadSpec::closed(clients, 0)
        .open(rate)
        .with_duration(open_dur)
        .with_seed(0x09e4);
    let open_report = run_inproc(&open_front.handle(), &open_spec);
    let open_outcome = open_front.shutdown();
    assert_eq!(open_report.errors, 0, "open-loop serving errors");
    let [p50, p95, p99, p999] = open_report
        .txn_latency
        .percentiles()
        .expect("open-loop latencies recorded");
    let mut open_table = Table::new(&[
        "mode",
        "offered tps",
        "achieved tps",
        "txns",
        "p50 us",
        "p95 us",
        "p99 us",
        "p999 us",
        "busy",
    ]);
    open_table.row(&[
        format!("open/{open_shards} shards"),
        rate.to_string(),
        format!("{:.0}", open_report.throughput_tps()),
        open_report.completed_txns.to_string(),
        format!("{:.1}", us(p50)),
        format!("{:.1}", us(p95)),
        format!("{:.1}", us(p99)),
        format!("{:.1}", us(p999)),
        open_report.busy_retries.to_string(),
    ]);
    emit(
        "Section 6",
        "sharded serving: open-loop offered rate (coordinated-omission corrected)",
        &open_table,
    );
    let open_point = (
        format!("open/{open_shards}shards@{rate}tps"),
        vec![
            ("offered_tps", rate as f64),
            ("achieved_tps", open_report.throughput_tps()),
            ("completed_txns", open_report.completed_txns as f64),
            ("sim_makespan_us", us(open_outcome.max_sim_time())),
            ("p50_us", us(p50)),
            ("p95_us", us(p95)),
            ("p99_us", us(p99)),
            ("p999_us", us(p999)),
            ("busy_retries", open_report.busy_retries as f64),
        ],
    );

    // Backpressure burst: a deliberately small queue under a slow,
    // pipelined burst must reject with Busy { retry_after }; the
    // hinted-backoff retry loop still completes every transaction.
    let burst_config = ServeConfig::scaled(1)
        .with_queue_capacity(8)
        .with_service_delay(Duration::from_micros(50));
    let burst_front = ShardedStore::launch_from(vec![baseline.fork()], &burst_config);
    let burst_spec = LoadSpec::closed(8, if quick { 20 } else { 100 }).with_seed(0xB057);
    let burst_report = run_inproc(&burst_front.handle(), &burst_spec);
    let burst_outcome = burst_front.shutdown();
    assert!(
        burst_report.busy_retries > 0,
        "burst point must exercise Busy backpressure"
    );
    assert_eq!(burst_report.errors, 0, "burst serving errors");
    assert_eq!(
        burst_report.completed_txns,
        8 * if quick { 20 } else { 100 },
        "busy retries must complete every transaction"
    );
    println!(
        "burst: queue=8, 8 pipelined clients -> {} Busy retries, all {} txns completed",
        burst_report.busy_retries, burst_report.completed_txns
    );
    println!();
    let burst_point = (
        "burst/queue8".to_string(),
        vec![
            ("busy_retries", burst_report.busy_retries as f64),
            ("completed_txns", burst_report.completed_txns as f64),
            ("wall_tps", burst_report.throughput_tps()),
            ("served", burst_outcome.total_served() as f64),
        ],
    );

    // Event-driven socket path: the connection-count load axis. All
    // socket stages run the event loop on its default (epoll) backend
    // over a Unix socket against an 8-shard front end, configured as
    // `envy-served` ships it.
    let sock_shards = *SHARD_COUNTS.last().unwrap();
    let active = args
        .u64("active-conns", if quick { 50 } else { 100 })
        .max(1) as u32;
    let sock_path =
        std::env::temp_dir().join(format!("envy-ext-serve-{}.sock", std::process::id()));
    let launch_sock = || {
        let stores = (0..sock_shards).map(|_| baseline.fork()).collect();
        let front = ShardedStore::launch_from(stores, &ServeConfig::scaled(sock_shards));
        let plan: ShardPlan = *front.plan();
        let listener = Listener::bind_unix(&sock_path).expect("bind unix socket");
        let server = serve(listener, front).expect("serve over unix socket");
        (server, plan)
    };

    // Socket-vs-in-process wall TPS at `active` connections: the same
    // read-heavy closed-loop load through the wire and through the
    // in-process handle. The gap is the whole socket tax — syscalls,
    // framing, and the event loop itself. A full run is 100 000
    // transactions at 100 connections, long enough that process
    // start-up does not set the figure.
    let conn_txns = args.u64("conn-txns", if quick { 10 } else { 1_000 });
    let ratio_spec = LoadSpec::closed(active, conn_txns)
        .with_seed(0xC099)
        .read_mostly();
    let inproc_front = ShardedStore::launch_from(
        (0..sock_shards).map(|_| baseline.fork()).collect(),
        &ServeConfig::scaled(sock_shards),
    );
    let inproc_report = run_inproc(&inproc_front.handle(), &ratio_spec);
    inproc_front.shutdown();
    let (server, plan) = launch_sock();
    let sock_report = run_socket(|| Client::connect_unix(&sock_path), plan, &ratio_spec)
        .expect("socket ratio load run");
    server.shutdown();
    assert_eq!(sock_report.errors, 0, "socket ratio serving errors");
    let inproc_tps = inproc_report.throughput_tps();
    let sock_tps = sock_report.throughput_tps();
    let sock_gap = if sock_tps > 0.0 {
        inproc_tps / sock_tps
    } else {
        f64::INFINITY
    };
    println!(
        "socket tax at {active} connections (8 shards, read-heavy): \
         in-process {:.1} ktps vs socket {:.1} ktps -> {:.2}x",
        inproc_tps / 1e3,
        sock_tps / 1e3,
        sock_gap
    );
    println!();
    let ratio_point = (
        format!("conn_ratio/{active}conns"),
        vec![
            ("active_conns", f64::from(active)),
            ("inproc_wall_tps", inproc_tps),
            ("socket_wall_tps", sock_tps),
            ("inproc_over_socket", sock_gap),
        ],
    );

    // Connection-count sweep: `count` total connections, of which
    // `active` drive an open-loop (coordinated-omission-corrected)
    // offered rate and the rest sit idle — the service-scale shape
    // where almost every connection is quiet at any instant. Idle
    // connections must not cost latency: the acceptance bar is p999 at
    // the widest count within 1.5x of the 100-connection p999.
    let conn_counts: &[u64] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    // Full runs hold each point for 5 s (~7 500 samples), long enough
    // that p999 is an average over several samples rather than the
    // single worst scheduling hiccup of a short window.
    let conn_rate = args.u64("conn-rate", if quick { 800 } else { 1_500 });
    let conn_dur = Duration::from_millis(if quick { 400 } else { 5_000 });
    // Idle connections are parked in a child process (see `hold_idle`),
    // so this process only holds their server ends: one fd per idle
    // connection plus two per active one.
    let nofile_need = conn_counts.iter().max().unwrap() + u64::from(active) * 2 + 512;
    let nofile = raise_nofile(nofile_need).unwrap_or(0);
    let mut conn_table = Table::new(&[
        "conns",
        "active",
        "achieved tps",
        "p50 us",
        "p99 us",
        "p999 us",
        "busy",
        "fds",
        "rss MiB",
    ]);
    let mut conn_points: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    let mut p999_by_count: Vec<(u64, f64)> = Vec::new();
    for &count in conn_counts {
        if count + u64::from(active) * 2 + 256 > nofile {
            println!(
                "conn_sweep: skipping {count} connections (fd limit {nofile} < {})",
                count + u64::from(active) * 2 + 256
            );
            continue;
        }
        let (server, plan) = launch_sock();
        let idle_count = count.saturating_sub(u64::from(active));
        let holder = if idle_count > 0 {
            let exe = std::env::current_exe().expect("current exe");
            let mut child = std::process::Command::new(exe)
                .args(["ext_serve", "--hold-idle"])
                .arg(idle_count.to_string())
                .arg(&sock_path)
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn idle holder");
            let mut ready = String::new();
            std::io::BufRead::read_line(
                &mut std::io::BufReader::new(child.stdout.take().expect("holder stdout")),
                &mut ready,
            )
            .expect("idle holder handshake");
            assert_eq!(ready.trim(), "ready", "idle holder failed to connect");
            Some(child)
        } else {
            None
        };
        // Unmeasured warmup: the rows with idle connections get seconds
        // of implicit settling while the holder connects; give the bare
        // row the same benefit so its tail is steady-state too.
        let warmup = LoadSpec::closed(active, 0)
            .open(conn_rate)
            .with_duration(Duration::from_millis(if quick { 100 } else { 500 }))
            .with_seed(0xC5EE ^ 1)
            .read_mostly();
        run_socket(|| Client::connect_unix(&sock_path), plan, &warmup)
            .expect("conn sweep warmup run");
        let spec = LoadSpec::closed(active, 0)
            .open(conn_rate)
            .with_duration(conn_dur)
            .with_seed(0xC5EE)
            .read_mostly();
        let report = run_socket(|| Client::connect_unix(&sock_path), plan, &spec)
            .expect("conn sweep load run");
        let fds = fd_count();
        let rss = rss_kb();
        if let Some(mut child) = holder {
            drop(child.stdin.take());
            let _ = child.wait();
        }
        server.shutdown();
        assert_eq!(report.errors, 0, "conn sweep serving errors at {count}");
        let [p50, _, p99, p999] = report
            .txn_latency
            .percentiles()
            .expect("conn sweep latencies recorded");
        conn_table.row(&[
            count.to_string(),
            active.to_string(),
            format!("{:.0}", report.throughput_tps()),
            format!("{:.1}", us(p50)),
            format!("{:.1}", us(p99)),
            format!("{:.1}", us(p999)),
            report.busy_retries.to_string(),
            fds.to_string(),
            format!("{:.1}", rss as f64 / 1024.0),
        ]);
        p999_by_count.push((count, us(p999)));
        conn_points.push((
            format!("conn_sweep/{count}conns"),
            vec![
                ("total_conns", count as f64),
                ("active_conns", f64::from(active)),
                ("offered_tps", conn_rate as f64),
                ("achieved_tps", report.throughput_tps()),
                ("p50_us", us(p50)),
                ("p99_us", us(p99)),
                ("p999_us", us(p999)),
                ("busy_retries", report.busy_retries as f64),
                ("fds", fds as f64),
                ("rss_kb", rss as f64),
            ],
        ));
    }
    emit(
        "Section 6",
        "event-loop socket serving: connection-count sweep (open loop, CO-corrected)",
        &conn_table,
    );
    if let (Some(&(_, first)), Some(&(widest, last))) =
        (p999_by_count.first(), p999_by_count.last())
    {
        if p999_by_count.len() > 1 && first > 0.0 {
            println!(
                "p999 growth {} -> {widest} connections: {:.2}x",
                p999_by_count[0].0,
                last / first
            );
            println!();
        }
    }

    // Idle-connection memory: fd and RSS cost per quiet connection
    // under the event loop (client and server end both in this
    // process, so 2 fds per connection is the floor).
    let mem_conns = args.u64("mem-conns", if quick { 200 } else { 500 });
    let (server, _plan) = launch_sock();
    let fd0 = fd_count();
    let rss0 = rss_kb();
    let idle: Vec<Client> = (0..mem_conns).map(|_| connect_retry(&sock_path)).collect();
    // Let the loop accept and register every connection.
    std::thread::sleep(Duration::from_millis(200));
    let fd_per = (fd_count().saturating_sub(fd0)) as f64 / mem_conns as f64;
    let rss_per = (rss_kb().saturating_sub(rss0)) as f64 / mem_conns as f64;
    drop(idle);
    server.shutdown();
    let mut mem_table = Table::new(&["driver", "idle conns", "fds/conn", "rss KiB/conn"]);
    mem_table.row(&[
        "epoll".to_string(),
        mem_conns.to_string(),
        format!("{fd_per:.2}"),
        format!("{rss_per:.1}"),
    ]);
    emit("Section 6", "idle-connection cost: event loop", &mem_table);
    println!();
    let mem_point = (
        "conn_mem/epoll".to_string(),
        vec![
            ("idle_conns", mem_conns as f64),
            ("fds_per_conn", fd_per),
            ("rss_kb_per_conn", rss_per),
        ],
    );

    let mut points = vec![anchor_point];
    points.extend(sweep.points.iter().cloned());
    points.push(open_point);
    points.push(burst_point);
    points.push(ratio_point);
    points.extend(conn_points);
    points.push(mem_point);
    args.write_report("ext_serve", sweep.jobs, started, &points, &[]);
}
