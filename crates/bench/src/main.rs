//! `envy-bench <experiment> [flags]`: regenerate one table or figure of
//! the paper's evaluation (EXPERIMENTS.md lists what each one measures).
//!
//! The command line is parsed once, here, into the [`Args`] every
//! experiment receives. A flag no experiment reads, a value that does
//! not parse or an unknown experiment exits with status 2 and the usage
//! before any work, so a typo cannot turn into a full-length run that
//! rewrites a committed report.

use envy_bench::{emit, PointResult, SweepOutcome, SweepSpec};
use envy_sim::report::Table;
use envy_sim::time::Ns;
use std::path::PathBuf;
use std::time::Instant;

/// An experiment's entry point.
type Experiment = fn(&Args);

mod experiments {
    pub mod abl_buffer_size;
    pub mod abl_drifting_hotspot;
    pub mod abl_lg_mechanisms;
    pub mod abl_mmu;
    pub mod abl_page_size;
    pub mod abl_wear_threshold;
    pub mod breakdown_53;
    pub mod calib_saturation;
    pub mod ext_cost_benefit;
    pub mod ext_fault_recovery;
    pub mod ext_observability;
    pub mod ext_parallel;
    pub mod ext_serve;
    pub mod ext_txn;
    pub mod ext_ycsb;
    pub mod fig06_cleaning_cost;
    pub mod fig08_policy_comparison;
    pub mod fig09_partition_size;
    pub mod fig10_segment_count;
    pub mod fig13_throughput;
    pub mod fig14_utilization;
    pub mod fig15_latency;
    pub mod lifetime_55;
    pub mod table_fig01;
    pub mod table_fig12;
}

/// Builds [`EXPERIMENTS`] from the experiment modules' names.
macro_rules! experiment_table {
    ($($name:ident)*) => {
        &[$((stringify!($name), experiments::$name::run)),*]
    };
}

/// Every experiment: its name on the command line and in its `results/`
/// files, and its entry point (`pub fn run(args: &Args)` in
/// `src/experiments/<name>.rs`).
const EXPERIMENTS: &[(&str, Experiment)] = experiment_table![
    table_fig01 table_fig12 fig06_cleaning_cost fig08_policy_comparison fig09_partition_size
    fig10_segment_count fig13_throughput fig14_utilization fig15_latency breakdown_53
    lifetime_55 ext_parallel ext_cost_benefit ext_fault_recovery ext_observability ext_serve
    ext_txn ext_ycsb abl_buffer_size abl_page_size abl_wear_threshold abl_lg_mechanisms abl_mmu
    abl_drifting_hotspot calib_saturation
];

/// The named overrides (`--name N` or `--name=N`) experiments read
/// through [`Args::u64`].
#[rustfmt::skip]
const U64_FLAGS: [&str; 12] = [
    "txns", "rate", "clients", "records", "ops", "max-steps", "writes", "segments",
    "active-conns", "conn-txns", "conn-rate", "mem-conns",
];

/// The parsed command line.
pub struct Args {
    /// `--quick`: a shorter smoke run, reported to a git-ignored
    /// `ci_smoke_` file.
    pub quick: bool,
    /// `--jobs N`: sweep worker threads (default: available cores).
    pub jobs: usize,
    /// `--hold-idle N PATH`: run as `ext_serve`'s idle-connection holder.
    pub hold_idle: Option<(u64, PathBuf)>,
    /// Values of the [`U64_FLAGS`] given, by position.
    overrides: [Option<u64>; U64_FLAGS.len()],
}

impl Args {
    /// The `--name` override, or `default` when it was not given.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        let i = U64_FLAGS.iter().position(|&f| f == name);
        self.overrides[i.expect("name is in U64_FLAGS")].unwrap_or(default)
    }

    /// Run a sweep on `--jobs` workers and write its report (see
    /// [`SweepSpec::run`]).
    pub fn sweep<P: Sync>(
        &self,
        name: &str,
        points: Vec<P>,
        run_point: impl Fn(usize, &P) -> PointResult + Sync,
    ) -> SweepOutcome {
        SweepSpec::new(name, points).run(self.quick, self.jobs, run_point)
    }

    /// Write the report of experiment `name`, begun at `started` (see
    /// [`envy_bench::write_report`]).
    pub fn write_report(
        &self,
        name: &str,
        jobs: usize,
        started: Instant,
        points: &[(String, Vec<(&'static str, f64)>)],
        extras: &[(&str, String)],
    ) {
        let wall = started.elapsed().as_secs_f64();
        envy_bench::write_report(name, self.quick, jobs, wall, points, extras);
    }
}

/// [`emit`] a sweep's `rows` as a table under `headers`.
pub fn emit_rows(figure: &str, caption: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut table = Table::new(headers);
    rows.iter().for_each(|row| table.row(row));
    emit(figure, caption, &table);
}

/// A simulated duration in microseconds, as the reports record latencies.
pub fn us(ns: Ns) -> f64 {
    ns.as_nanos() as f64 / 1_000.0
}

/// `a / b`, or 0 when `b` is not positive (nothing was measured).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Split `argv` (program name excluded) into the experiment name and its
/// flags; `Err` names the first mistake.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<(String, Args), String> {
    let mut args = Args {
        quick: false,
        jobs: std::thread::available_parallelism().map_or(1, usize::from),
        hold_idle: None,
        overrides: [None; U64_FLAGS.len()],
    };
    let mut experiment = None;
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            if experiment.is_some() {
                return Err(format!("unexpected argument {arg:?}"));
            }
            experiment = Some(arg);
            continue;
        };
        let (flag, inline) = match flag.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (flag, None),
        };
        let mut number = || {
            let value = inline.clone().or_else(|| argv.next());
            let value = value.ok_or_else(|| format!("--{flag} needs a value"))?;
            (value.parse::<u64>()).map_err(|_| format!("--{flag}: {value:?} is not a count"))
        };
        match flag {
            "quick" if inline.is_some() => return Err(format!("--{flag} takes no value")),
            "quick" => args.quick = true,
            "jobs" => args.jobs = number()?.max(1) as usize,
            "hold-idle" => {
                let n = number()?;
                let path = argv.next().ok_or("--hold-idle needs N PATH")?;
                args.hold_idle = Some((n, PathBuf::from(path)));
            }
            _ => match U64_FLAGS.iter().position(|&f| f == flag) {
                Some(i) => args.overrides[i] = Some(number()?),
                None => return Err(format!("unknown flag --{flag}")),
            },
        }
    }
    Ok((experiment.ok_or("no experiment given")?, args))
}

fn usage() -> String {
    let mut text = String::from(
        "usage: envy-bench <experiment> [--quick] [--jobs N] [--<override> N]...\n\
         experiments:\n",
    );
    for (name, _) in EXPERIMENTS {
        text.push_str(&format!("  {name}\n"));
    }
    text + "overrides (each read by the experiments it applies to): --" + &U64_FLAGS.join(" --")
}

fn main() {
    let parsed = parse(std::env::args().skip(1)).and_then(|(name, args)| {
        let found = EXPERIMENTS.iter().find(|(n, _)| *n == name);
        found
            .map(|&(_, run)| (run, args))
            .ok_or(format!("unknown experiment {name:?}"))
    });
    match parsed {
        Ok((run, args)) => run(&args),
        Err(e) => {
            eprintln!("envy-bench: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> (String, Args) {
        parse(line.split_whitespace().map(String::from)).expect("valid command line")
    }

    #[test]
    fn arg_parsing_defaults() {
        let (name, args) = parse_line("fig13_throughput");
        assert_eq!(name, "fig13_throughput");
        assert!(!args.quick && args.hold_idle.is_none() && args.jobs >= 1);
        assert_eq!(args.u64("txns", 42), 42);
    }

    #[test]
    fn flags_parse_in_both_forms_and_any_order() {
        let (name, args) = parse_line("--quick --txns=5 ext_serve --rate 7 --jobs 0");
        assert_eq!(name, "ext_serve");
        assert!(args.quick);
        assert_eq!(args.jobs, 1, "--jobs 0 means one worker");
        assert_eq!(
            (args.u64("txns", 0), args.u64("rate", 0), args.u64("ops", 3)),
            (5, 7, 3)
        );
        let (_, child) = parse_line("ext_serve --hold-idle 9 /tmp/s.sock");
        assert_eq!(child.hold_idle, Some((9, PathBuf::from("/tmp/s.sock"))));
    }
}
