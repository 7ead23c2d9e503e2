//! The repo's benchmark: five closed-loop workloads, each run in a process
//! of its own, pinned to one CPU, with every host-time quantity rescaled
//! by a machine-speed probe. See `README.md` beside this crate.
//!
//! ```text
//! envy-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! envy-benchmark --quick                  # smoke-check all five, both modes
//! envy-benchmark --repeat N [--runs R]    # N sets of R runs; spread table
//! ```

mod check;
mod host;
mod micro;
mod probe;
mod run;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xE5_1994;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub repeat: Option<usize>,
    pub runs: usize,
}

fn parse_args() -> Result<Options, String> {
    let spec = check::Spec::embedded();
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        quick: false,
        repeat: None,
        runs: 5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{v}: not a number"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !workloads::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; one of {}",
                        workloads::WORKLOADS.join(", ")
                    ));
                }
                o.workload = Some(w);
            }
            "--seed" => o.seed = number(value("a number")?)?,
            "--seconds" => o.seconds = number(value("a number")?)?.max(1),
            "--trace" => o.trace = number(value("0 or 1")?)? != 0,
            "--quick" => o.quick = true,
            "--repeat" => o.repeat = Some(number(value("a set count")?)?.max(2) as usize),
            "--runs" => o.runs = number(value("a run count")?)?.max(1) as usize,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("envy-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let ok = match (&options.workload, options.repeat) {
        (Some(workload), _) => run::run(workload, &options),
        (None, Some(sets)) => check::repeat(sets, &options),
        (None, None) if options.quick => check::quick(&options),
        (None, None) => {
            eprintln!("envy-benchmark: give --workload <name>, --quick or --repeat N");
            std::process::exit(2);
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
