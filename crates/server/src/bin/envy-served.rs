//! `envy-served` — the sharded eNVy serving daemon.
//!
//! Binds a TCP or Unix socket, launches a [`ShardedStore`], and serves
//! the binary protocol until a wire `SHUTDOWN`, an optional
//! `--duration-secs` expiry, or a fatal listener error. Exits 0 after a
//! graceful drain and prints a per-run summary.

use envy_server::{serve_with, Listener, NetConfig, NetDriver, ServeConfig, ShardedStore};
use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "\
envy-served: serve a sharded eNVy store over a socket

USAGE:
    envy-served [OPTIONS]

OPTIONS:
    --tcp ADDR          listen on a TCP address (default 127.0.0.1:7033)
    --unix PATH         listen on a Unix-domain socket instead
    --shards N          number of shards (independent stores; default 4)
    --txn-slots N       concurrent transactions per shard (default 1)
    --scale small|scaled   per-shard store configuration (default small)
    --duration-secs S   shut down automatically after S seconds
    --net-driver D      event-loop poller backend: epoll|poll (default epoll)
    --idle-timeout-ms T reap connections silent for more than T ms
    --help              print this help
";

struct Args {
    tcp: String,
    unix: Option<String>,
    shards: u32,
    txn_slots: Option<u32>,
    scale: fn(u32) -> ServeConfig,
    duration_secs: Option<u64>,
    net_driver: NetDriver,
    idle_timeout_ms: Option<u64>,
}

/// An option's value as a number no smaller than `min`.
fn at_least<T>(name: &str, value: String, min: T) -> Result<T, String>
where
    T: FromStr + PartialOrd + fmt::Display,
    T::Err: fmt::Display,
{
    let n: T = value.parse().map_err(|e| format!("{name}: {e}"))?;
    if n < min {
        return Err(format!("{name} must be at least {min}"));
    }
    Ok(n)
}

/// The whole command line, checked before any work. `Err("")` asks for
/// the help text.
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: "127.0.0.1:7033".into(),
        unix: None,
        shards: 4,
        txn_slots: None,
        scale: ServeConfig::small,
        duration_secs: None,
        net_driver: NetDriver::default(),
        idle_timeout_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--tcp" => args.tcp = value()?,
            "--unix" => args.unix = Some(value()?),
            "--shards" => args.shards = at_least(&arg, value()?, 1)?,
            "--txn-slots" => args.txn_slots = Some(at_least(&arg, value()?, 1)?),
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "small" => ServeConfig::small,
                    "scaled" => ServeConfig::scaled,
                    other => return Err(format!("unknown --scale {other} (use small|scaled)")),
                };
            }
            "--duration-secs" => args.duration_secs = Some(at_least(&arg, value()?, 0)?),
            "--net-driver" => {
                let v = value()?;
                args.net_driver = NetDriver::parse(&v)
                    .ok_or_else(|| format!("--net-driver: unknown driver {v} (use epoll|poll)"))?;
            }
            "--idle-timeout-ms" => args.idle_timeout_ms = Some(at_least(&arg, value()?, 0)?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // A usage error exits 2 with the usage, like `envy-cli` and
    // `envy-bench`; a failure once the command line is accepted exits 1.
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("envy-served: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut config = (args.scale)(args.shards);
    if let Some(slots) = args.txn_slots {
        config = config.with_txn_slots(slots);
    }

    let store = match ShardedStore::launch(config) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("envy-served: launch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = *store.plan();

    let listener = match &args.unix {
        Some(path) => Listener::bind_unix(path),
        None => Listener::bind_tcp(&args.tcp),
    };
    let listener = match listener {
        Ok(l) => l,
        Err(e) => {
            eprintln!("envy-served: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let net = NetConfig {
        driver: args.net_driver,
        idle_timeout: args.idle_timeout_ms.map(Duration::from_millis),
    };
    let handle = match serve_with(listener, store, net) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("envy-served: serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "envy-served listening on {} ({} shards x {} bytes, {} driver)",
        handle.addr(),
        plan.shards(),
        plan.shard_bytes(),
        args.net_driver.name(),
    );

    let summary = match args.duration_secs {
        Some(secs) => {
            // Safety net for unattended runs: request shutdown once the
            // budget elapses, whether or not a SHUTDOWN frame arrived.
            std::thread::sleep(Duration::from_secs(secs));
            handle.shutdown()
        }
        None => handle.wait(),
    };

    let stats = summary.outcome.aggregate_stats();
    println!(
        "envy-served: {} connections, {} requests admitted, {} served \
         ({} timed out), sim makespan {}",
        summary.connections,
        summary.requests,
        summary.outcome.total_served(),
        summary.outcome.total_timed_out(),
        summary.outcome.max_sim_time(),
    );
    println!(
        "envy-served: fleet {} reads, {} writes, cleaning cost {:.3}",
        stats.host_reads.get(),
        stats.host_writes.get(),
        stats.cleaning_cost()
    );
    for shard in &summary.outcome.shards {
        if let Some(failure) = &shard.failure {
            eprintln!("envy-served: {failure}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
