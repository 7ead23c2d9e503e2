//! `envy-cli` — command-line driver for the eNVy simulator.
//!
//! ```text
//! envy-cli info                          print the paper's configuration
//! envy-cli cleaning [options]            run a cleaning-cost study
//! envy-cli tpca [options]                run a timed TPC-A experiment
//! envy-cli stats [options]               timed run + percentiles, breakdown, wear
//! envy-cli trace [options]               timed run + controller trace tail
//! envy-cli bench-serve [options]         closed-loop load against sharded shards
//! envy-cli kv-get|kv-put|kv-del|kv-scan  key-value ops against a live server
//! ```
//!
//! Run `envy-cli --help` for every command's options. An option the
//! command does not read, or one missing its value, exits 2 with the
//! usage before any work.

use envy::core::{EnvyConfig, EnvyStore, PolicyKind};
use envy::server::{loadgen, Client, LoadSpec, ServeConfig, ShardPlan, ShardedStore};
use envy::sim::report::{fmt_f64, Table};
use envy::sim::time::Ns;
use envy::workload::{churn_to_steady_state, run_timed, AnalyticTpca, CleaningStudy, TpcaScale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let options = &args[1..];
    if ["--help", "-h", "help"].contains(&command.as_str()) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // A command line is checked whole before any work: an unknown
    // command, an option the command does not read, or an option
    // missing its value exits 2 with the usage.
    let checked = match accepted_options(command) {
        None => Err(format!("unknown command `{command}`")),
        Some((valued, switches)) => {
            check_options(options, valued, switches).map_err(|e| format!("{e} for `{command}`"))
        }
    };
    if let Err(e) = checked {
        eprintln!("envy-cli: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "info" => cmd_info(),
        "cleaning" => cmd_cleaning(options),
        "tpca" => cmd_tpca(options),
        "stats" => cmd_stats(options),
        "trace" => cmd_trace(options),
        "bench-serve" => cmd_bench_serve(options),
        "kv-get" => cmd_kv(options, KvCmd::Get),
        "kv-put" => cmd_kv(options, KvCmd::Put),
        "kv-del" => cmd_kv(options, KvCmd::Del),
        "kv-scan" => cmd_kv(options, KvCmd::Scan),
        _ => unreachable!("accepted_options knows every command"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("envy-cli: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The options `command` reads: those taking a value (`--name <value>`)
/// and bare switches. `None` for an unknown command.
fn accepted_options(command: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    const TIMED: &[&str] = &["--rate", "--txns", "--util"];
    Some(match command {
        "info" => (&[], &[]),
        "cleaning" => (
            &["--policy", "--locality", "--segments", "--pages", "--util"],
            &[],
        ),
        "tpca" | "stats" => (TIMED, &[]),
        "trace" => (&["--rate", "--txns", "--util", "--last"], &[]),
        "bench-serve" => (
            &[
                "--shards",
                "--txn-slots",
                "--clients",
                "--txns",
                "--scale",
                "--seed",
                "--atomic",
                "--unix",
                "--connect",
            ],
            &["--shutdown"],
        ),
        "kv-get" => (&["--connect", "--unix", "--shard", "--key"], &[]),
        "kv-put" => (
            &[
                "--connect",
                "--unix",
                "--shard",
                "--key",
                "--value",
                "--txn",
            ],
            &[],
        ),
        "kv-del" => (&["--connect", "--unix", "--shard", "--key", "--txn"], &[]),
        "kv-scan" => (
            &["--connect", "--unix", "--shard", "--start", "--limit"],
            &[],
        ),
        _ => return None,
    })
}

/// Refuse any argument that is not one of `valued` followed by its value
/// or one of `switches`.
fn check_options(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} needs a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}`"));
        }
    }
    Ok(())
}

const USAGE: &str = "usage: envy-cli <command> [options]

commands:
  info                      the paper's 2 GB configuration and cost model
  cleaning                  steady-state cleaning-cost study (Figure 8 style)
      --policy <greedy|cost-benefit|fifo|lg|hybrid:<k>>   (default hybrid:16)
      --locality <d/a>      bimodal locality, e.g. 10/90    (default 50/50)
      --segments <n>        segment count                   (default 64)
      --pages <n>           pages per segment               (default 256)
      --util <f>            array utilization               (default 0.8)
  tpca                      timed TPC-A run on a scaled eNVy system
      --rate <tps>          offered transaction rate        (default 10000)
      --txns <n>            measured transactions           (default 20000)
      --util <f>            array utilization               (default 0.8)
  stats                     timed TPC-A run, then the full observability report:
                            latency percentiles, busy breakdown, per-segment wear
      --rate <tps>          offered transaction rate        (default 10000)
      --txns <n>            measured transactions           (default 20000)
      --util <f>            array utilization               (default 0.8)
  trace                     timed TPC-A run, then the controller trace tail
      --rate <tps>          offered transaction rate        (default 10000)
      --txns <n>            measured transactions           (default 20000)
      --util <f>            array utilization               (default 0.8)
      --last <n>            trace records to print          (default 40)
  bench-serve               closed-loop load against an in-process sharded store,
                            or a live server (--unix/--connect; --shards/--scale
                            must then match the server's)
      --shards <n>          shard count                     (default 4)
      --txn-slots <n>       concurrent transactions per shard (default 1)
      --clients <n>         client threads / connections    (default 4)
      --txns <n>            transactions per client         (default 2000)
      --scale <small|scaled>  per-shard array size          (default scaled)
      --seed <n>            RNG seed                        (default 24301)
      --atomic <f>          run every transaction atomically (TXN_BEGIN ..
                            TXN_COMMIT), aborting a seeded fraction f (0..=1)
      --unix <path>         drive a live server on a Unix socket
      --connect <addr>      drive a live server over TCP
      --shutdown            send a wire SHUTDOWN after the load (socket modes)
  kv-get | kv-put | kv-del | kv-scan
                            one key-value operation against a live server
                            (see docs/KV.md); shared options:
      --connect <addr>      server TCP address              (default 127.0.0.1:7033)
      --unix <path>         server Unix socket path (takes precedence)
      --shard <n>           target shard                    (default 0)
      --key <n>             the key (get/put/del)
      --value <text>        the value (put; utf-8 text)
      --txn <n>             run under an open transaction id (put/del)
      --start <n>           first key of the range (scan)   (default 0)
      --limit <n>           max records returned (scan)     (default 10)";

/// Find `--name <value>` in `args`.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match opt(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for {name}")),
    }
}

/// [`opt_parse`] for a count, which must be at least 1.
fn opt_count<T>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    let n = opt_parse(args, name, default)?;
    if n < T::from(1) {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(n)
}

/// [`opt_parse`] for a rate, which must be positive and finite.
fn opt_rate(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    let rate: f64 = opt_parse(args, name, default)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("{name} must be positive and finite"));
    }
    Ok(rate)
}

/// `--util`, the array utilization, which must lie in (0, 1).
fn opt_util(args: &[String]) -> Result<f64, String> {
    let util: f64 = opt_parse(args, "--util", 0.8)?;
    if !(util > 0.0 && util < 1.0) {
        return Err("--util must lie strictly between 0 and 1".into());
    }
    Ok(util)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn cmd_info() -> Result<(), String> {
    let c = EnvyConfig::paper_2gb();
    let g = &c.geometry;
    let mut t = Table::new(&["parameter", "value"]);
    t.row(&[
        "flash array".into(),
        format!("{} MB", g.total_bytes() >> 20),
    ]);
    t.row(&["banks".into(), g.banks().to_string()]);
    t.row(&[
        "segments".into(),
        format!("{} x {} MB", g.segments(), g.segment_bytes() >> 20),
    ]);
    t.row(&["page size".into(), format!("{} B", g.page_bytes())]);
    t.row(&["write buffer".into(), format!("{} pages", c.buffer_pages)]);
    t.row(&[
        "page-table SRAM".into(),
        format!("{} MB", c.page_table_sram_bytes() >> 20),
    ]);
    t.row(&["program time".into(), c.timings.program.to_string()]);
    t.row(&["erase time".into(), c.timings.erase.to_string()]);
    t.row(&["policy".into(), format!("{:?}", c.policy)]);
    print!("{}", t.render());
    Ok(())
}

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match s {
        "greedy" => Ok(PolicyKind::Greedy),
        "cost-benefit" => Ok(PolicyKind::CostBenefit),
        "fifo" => Ok(PolicyKind::Fifo),
        "lg" | "locality-gathering" => Ok(PolicyKind::LocalityGathering),
        other => match other.strip_prefix("hybrid:") {
            Some(k) => {
                let k: u32 = k
                    .parse()
                    .map_err(|_| format!("bad partition size in `{other}`"))?;
                Ok(PolicyKind::Hybrid {
                    segments_per_partition: k,
                })
            }
            None => Err(format!("unknown policy `{other}`")),
        },
    }
}

fn parse_locality(s: &str) -> Result<(u32, u32), String> {
    let (d, a) = s
        .split_once('/')
        .ok_or_else(|| format!("locality `{s}` must be d/a, e.g. 10/90"))?;
    let d = d.parse().map_err(|_| format!("bad locality `{s}`"))?;
    let a = a.parse().map_err(|_| format!("bad locality `{s}`"))?;
    Ok((d, a))
}

fn cmd_cleaning(args: &[String]) -> Result<(), String> {
    let policy = parse_policy(opt(args, "--policy").unwrap_or("hybrid:16"))?;
    let locality = parse_locality(opt(args, "--locality").unwrap_or("50/50"))?;
    let segments: u32 = opt_count(args, "--segments", 64)?;
    let pages: u32 = opt_count(args, "--pages", 256)?;
    let util = opt_util(args)?;
    let mut study = CleaningStudy::sized(segments, pages, policy, locality);
    study.utilization = util;
    let out = study.run().map_err(|e| e.to_string())?;
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["cleaning cost".into(), fmt_f64(out.cleaning_cost)]);
    t.row(&["pages flushed".into(), out.pages_flushed.to_string()]);
    t.row(&["cleaner programs".into(), out.clean_programs.to_string()]);
    t.row(&["segments cleaned".into(), out.cleans.to_string()]);
    t.row(&["wear spread".into(), out.wear_spread.to_string()]);
    print!("{}", t.render());
    Ok(())
}

fn scaled_tpca(util: f64) -> Result<(EnvyStore, AnalyticTpca), String> {
    let config = EnvyConfig::scaled_timing(8, 128, 2048, 256).with_utilization(util);
    let scale = TpcaScale::fit_bytes(config.logical_bytes());
    let mut store = EnvyStore::new(config).map_err(|e| e.to_string())?;
    store.prefill().map_err(|e| e.to_string())?;
    let driver = AnalyticTpca::new(scale);
    let slot_addr = |id| driver.layout().account_addr(id);
    churn_to_steady_state(&mut store, 0xC0FFEE, 2.0, scale.accounts(), slot_addr)
        .map_err(|e| e.to_string())?;
    Ok((store, driver))
}

fn cmd_tpca(args: &[String]) -> Result<(), String> {
    let rate = opt_rate(args, "--rate", 10_000.0)?;
    let txns: u64 = opt_count(args, "--txns", 20_000)?;
    let util = opt_util(args)?;
    let (mut store, driver) = scaled_tpca(util)?;
    let r = run_timed(&mut store, &driver, rate, txns / 10, txns, 42).map_err(|e| e.to_string())?;
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["offered TPS".into(), fmt_f64(r.offered_tps)]);
    t.row(&["achieved TPS".into(), fmt_f64(r.achieved_tps)]);
    t.row(&["read latency".into(), r.read_latency.to_string()]);
    t.row(&["write latency".into(), r.write_latency.to_string()]);
    t.row(&["flushes/s".into(), fmt_f64(r.flushes_per_sec)]);
    t.row(&["cleaning cost".into(), fmt_f64(r.cleaning_cost)]);
    if let Some(b) = store.stats().breakdown() {
        t.row(&["busy: reads".into(), format!("{:.1}%", b.reads * 100.0)]);
        t.row(&[
            "busy: cleaning".into(),
            format!("{:.1}%", b.cleaning * 100.0),
        ]);
        t.row(&[
            "busy: flushing".into(),
            format!("{:.1}%", b.flushing * 100.0),
        ]);
        t.row(&["busy: erasing".into(), format!("{:.1}%", b.erasing * 100.0)]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Shared timed run behind `stats` and `trace`: build the scaled TPC-A
/// system, enable the requested observability, run, return the store.
fn instrumented_run(args: &[String], trace_capacity: Option<usize>) -> Result<EnvyStore, String> {
    let rate = opt_rate(args, "--rate", 10_000.0)?;
    let txns: u64 = opt_count(args, "--txns", 20_000)?;
    let util = opt_util(args)?;
    let (mut store, driver) = scaled_tpca(util)?;
    if let Some(capacity) = trace_capacity {
        store.enable_trace(capacity);
    }
    store.enable_sampler(Ns::from_millis(10), 1_024);
    run_timed(&mut store, &driver, rate, txns / 10, txns, 42).map_err(|e| e.to_string())?;
    Ok(store)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let store = instrumented_run(args, None)?;
    let stats = store.stats();

    println!("-- latency percentiles --");
    let mut t = Table::new(&["series", "p50", "p95", "p99", "p999", "mean", "max"]);
    for (name, h) in [
        ("read", &stats.read_latency),
        ("write", &stats.write_latency),
    ] {
        let p = h.percentiles().ok_or("timed run recorded no latencies")?;
        let mut row = vec![name.to_string()];
        row.extend(p.iter().map(ToString::to_string));
        row.push(h.mean().to_string());
        row.push(h.max().map_or("-".into(), |m| m.to_string()));
        t.row(&row);
    }
    print!("{}", t.render());

    println!();
    println!("-- controller activity --");
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["host reads".into(), stats.host_reads.to_string()]);
    t.row(&["host writes".into(), stats.host_writes.to_string()]);
    t.row(&["buffer hits".into(), stats.sram_write_hits.to_string()]);
    t.row(&["copy-on-writes".into(), stats.cow_ops.to_string()]);
    t.row(&["pages flushed".into(), stats.pages_flushed.to_string()]);
    t.row(&["cleaner programs".into(), stats.clean_programs.to_string()]);
    t.row(&["segments cleaned".into(), stats.cleans.to_string()]);
    t.row(&["erases".into(), stats.erases.to_string()]);
    t.row(&["suspensions".into(), stats.suspensions.to_string()]);
    t.row(&["cleaning cost".into(), fmt_f64(stats.cleaning_cost())]);
    if let Some(b) = stats.breakdown() {
        t.row(&["busy: reads".into(), format!("{:.1}%", b.reads * 100.0)]);
        t.row(&[
            "busy: cleaning".into(),
            format!("{:.1}%", b.cleaning * 100.0),
        ]);
        t.row(&[
            "busy: flushing".into(),
            format!("{:.1}%", b.flushing * 100.0),
        ]);
        t.row(&["busy: erasing".into(), format!("{:.1}%", b.erasing * 100.0)]);
    }
    print!("{}", t.render());

    println!();
    println!("-- per-segment wear --");
    let wear = store.engine().segment_report();
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["segments".into(), wear.segments.len().to_string()]);
    t.row(&[
        "erase cycles (min/mean/max)".into(),
        format!(
            "{} / {} / {}",
            wear.min_erase_cycles,
            fmt_f64(wear.mean_erase_cycles),
            wear.max_erase_cycles
        ),
    ]);
    t.row(&["wear spread".into(), wear.wear_spread().to_string()]);
    t.row(&["wear imbalance".into(), fmt_f64(wear.wear_imbalance())]);
    let mut worst: Vec<_> = wear.segments.iter().collect();
    worst.sort_by(|a, b| {
        b.erase_cycles
            .cmp(&a.erase_cycles)
            .then(a.segment.cmp(&b.segment))
    });
    for s in worst.iter().take(3) {
        t.row(&[
            format!("most worn: seg {}", s.segment),
            format!(
                "{} cycles, bank {}, util {:.2}",
                s.erase_cycles, s.bank, s.utilization
            ),
        ]);
    }
    print!("{}", t.render());

    if let Some(series) = store.time_series() {
        println!();
        println!(
            "-- telemetry ({} windows of {}) --",
            series.rows().len(),
            series.window()
        );
        let mut t = Table::new(&{
            let mut cols = vec!["window end"];
            cols.extend(series.columns());
            cols
        });
        let rows = series.rows();
        let tail = rows.len().saturating_sub(5);
        for (end, values) in &rows[tail..] {
            let mut row = vec![end.to_string()];
            row.extend(values.iter().map(|v| fmt_f64(*v)));
            t.row(&row);
        }
        print!("{}", t.render());
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let last: usize = opt_parse(args, "--last", 40)?;
    let store = instrumented_run(args, Some(65_536))?;
    let trace = store.trace();
    println!(
        "{} events emitted, showing the most recent {}:",
        trace.total_emitted(),
        trace.len().min(last)
    );
    let mut t = Table::new(&["time", "seq", "event"]);
    for rec in trace.last(last) {
        t.row(&[
            rec.at.to_string(),
            rec.seq.to_string(),
            rec.event.to_string(),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// Parse `--shards` / `--scale` into a [`ServeConfig`].
fn serve_config(args: &[String]) -> Result<ServeConfig, String> {
    let shards: u32 = opt_count(args, "--shards", 4)?;
    let slots: u32 = opt_count(args, "--txn-slots", 1)?;
    let config = match opt(args, "--scale").unwrap_or("scaled") {
        "small" => ServeConfig::small(shards),
        "scaled" => ServeConfig::scaled(shards),
        other => return Err(format!("unknown scale `{other}` (use small or scaled)")),
    };
    Ok(config.with_txn_slots(slots))
}

fn cmd_bench_serve(args: &[String]) -> Result<(), String> {
    let config = serve_config(args)?;
    let clients: u32 = opt_count(args, "--clients", 4)?;
    let txns: u64 = opt_count(args, "--txns", 2_000)?;
    let seed: u64 = opt_parse(args, "--seed", 24_301)?;
    let mut spec = LoadSpec::closed(clients, txns).with_seed(seed);
    if let Some(f) = opt(args, "--atomic") {
        let frac: f64 = f
            .parse()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .ok_or_else(|| format!("invalid value `{f}` for --atomic (want 0..=1)"))?;
        spec = spec.atomic(frac);
    }

    // Socket mode: drive a live `envy-served` instead of an in-process
    // store. `--shards`/`--scale` must describe the remote server — the
    // wire protocol does not carry the shard plan. `--unix` wins over
    // `--connect`.
    let unix = opt(args, "--unix");
    if let Some(addr) = unix.or(opt(args, "--connect")) {
        let connect = || match unix {
            Some(path) => Client::connect_unix(path),
            None => Client::connect_tcp(addr),
        };
        let plan = ShardPlan::new(config.shards, config.store.logical_bytes());
        let report = loadgen::run_socket(connect, plan, &spec).map_err(|e| e.to_string())?;
        if flag(args, "--shutdown") {
            let mut c = connect().map_err(|e| e.to_string())?;
            c.shutdown_server().map_err(|e| format!("{e:?}"))?;
        }
        print_load_report(&report, None);
        return Ok(());
    }

    let store = ShardedStore::launch(config).map_err(|e| e.to_string())?;
    let report = loadgen::run_inproc(&store.handle(), &spec);
    let outcome = store.shutdown();
    print_load_report(&report, Some(outcome.max_sim_time()));
    Ok(())
}

enum KvCmd {
    Get,
    Put,
    Del,
    Scan,
}

fn cmd_kv(args: &[String], cmd: KvCmd) -> Result<(), String> {
    let mut client = match opt(args, "--unix") {
        Some(path) => Client::connect_unix(path),
        None => Client::connect_tcp(opt(args, "--connect").unwrap_or("127.0.0.1:7033")),
    }
    .map_err(|e| e.to_string())?;
    let shard: u32 = opt_parse(args, "--shard", 0)?;
    let txn: u64 = opt_parse(args, "--txn", 0)?;
    let key = || -> Result<u64, String> {
        opt(args, "--key")
            .ok_or("this kv command requires --key <n>")?
            .parse()
            .map_err(|_| "invalid --key".into())
    };
    match cmd {
        KvCmd::Get => match client.kv_get(shard, key()?).map_err(|e| format!("{e:?}"))? {
            Some(value) => println!("{}", String::from_utf8_lossy(&value)),
            None => println!("(miss)"),
        },
        KvCmd::Put => {
            let value = opt(args, "--value").ok_or("kv-put requires --value <text>")?;
            client
                .kv_put(shard, key()?, value.as_bytes(), txn)
                .map_err(|e| format!("{e:?}"))?;
            println!("ok");
        }
        KvCmd::Del => {
            let existed = client
                .kv_delete(shard, key()?, txn)
                .map_err(|e| format!("{e:?}"))?;
            println!("{}", if existed { "deleted" } else { "(miss)" });
        }
        KvCmd::Scan => {
            let start: u64 = opt_parse(args, "--start", 0)?;
            let limit: u32 = opt_parse(args, "--limit", 10)?;
            let items = client
                .kv_scan(shard, start, limit)
                .map_err(|e| format!("{e:?}"))?;
            for (k, value) in &items {
                println!("{k}\t{}", String::from_utf8_lossy(value));
            }
            println!("({} records)", items.len());
        }
    }
    Ok(())
}

fn print_load_report(report: &loadgen::LoadReport, sim: Option<Ns>) {
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["completed txns".into(), report.completed_txns.to_string()]);
    if report.aborted_txns > 0 || report.txn_conflicts > 0 || report.txn_conflict_refusals > 0 {
        t.row(&["aborted txns".into(), report.aborted_txns.to_string()]);
        t.row(&["slot-busy begins".into(), report.txn_conflicts.to_string()]);
        t.row(&[
            "write-set conflicts".into(),
            report.txn_conflict_refusals.to_string(),
        ]);
        t.row(&[
            "conflict retries".into(),
            report.txn_conflict_retries.to_string(),
        ]);
    }
    t.row(&["completed ops".into(), report.completed_ops.to_string()]);
    t.row(&["busy retries".into(), report.busy_retries.to_string()]);
    t.row(&["errors".into(), report.errors.to_string()]);
    t.row(&["wall TPS".into(), fmt_f64(report.throughput_tps())]);
    if let Some(sim) = sim {
        let sim_tps = if sim.as_nanos() > 0 {
            report.completed_txns as f64 / (sim.as_nanos() as f64 / 1e9)
        } else {
            0.0
        };
        t.row(&["sim makespan".into(), sim.to_string()]);
        t.row(&["sim aggregate TPS".into(), fmt_f64(sim_tps)]);
    }
    if let Some([p50, p95, p99, p999]) = report.txn_latency.percentiles() {
        t.row(&["txn p50".into(), p50.to_string()]);
        t.row(&["txn p95".into(), p95.to_string()]);
        t.row(&["txn p99".into(), p99.to_string()]);
        t.row(&["txn p999".into(), p999.to_string()]);
    }
    print!("{}", t.render());
}
