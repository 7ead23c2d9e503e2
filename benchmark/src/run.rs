//! One benchmark run of one workload: the end-to-end run (tracing off)
//! or the traced run that yields the per-layer metrics.

use crate::check::Spec;
use crate::host::{self, Placement, ThreadTimes};
use crate::probe::{lower_quartile, median, probe_ms, quantile_sorted, Speed};
use crate::trace::{self, Span, Spans};
use crate::workloads::{self, Counts, Finish, Shape, System};
use crate::{micro, Options};
use std::time::Instant;

/// Measured rounds of an end-to-end run.
const ROUNDS: usize = 15;
/// Times the system is built in an end-to-end run; `setup_s` is the
/// median.
const SETUP_REPS: usize = 7;
/// (untraced, traced) round pairs of a traced run.
const TRACE_PAIRS: usize = 4;
/// Reported in place of a metric that is structurally zero or undefined
/// on a workload (a read-only workload programs no Flash; the KV path is
/// untimed, so its simulated clock stands still): the contract this
/// benchmark is written to forbids a metric that reads 0.
const NOT_APPLICABLE: f64 = 1e-9;

/// Operations per second of measurement each workload is sized for, at
/// the reference machine speed. The per-round operation count is a fixed
/// function of this and `--seconds`, never of elapsed time, so the
/// simulated-domain metrics of a (seed, seconds) pair repeat exactly.
fn nominal_ops_per_s(workload: &str) -> u64 {
    match workload {
        "tpca_sim" => 600_000,
        "kv_read_pipe" => 500_000,
        "kv_update_pipe" => 300_000,
        "kv_rtt" => 90_000,
        "txn_tpca" => 30_000,
        other => panic!("unknown workload {other}"),
    }
}

/// Round and operation counts of a run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub rounds: usize,
    pub ops: u64,
    pub setup_reps: usize,
    pub micro_calls: u64,
}

impl Plan {
    pub fn new(workload: &str, seconds: u64, quick: bool) -> Plan {
        let full = nominal_ops_per_s(workload) * seconds / ROUNDS as u64;
        if quick {
            Plan {
                rounds: 3,
                ops: (full / 10).max(workloads::PIPE_DEPTH),
                setup_reps: 1,
                micro_calls: micro::CALLS / 10,
            }
        } else {
            Plan {
                rounds: ROUNDS,
                ops: full,
                setup_reps: SETUP_REPS,
                micro_calls: micro::CALLS,
            }
        }
    }
}

/// Probes taken so far and the speed of the interval since the last one.
#[derive(Debug)]
pub struct Probes {
    all: Vec<f64>,
    shorten: u64,
}

impl Probes {
    fn new(quick: bool) -> Probes {
        Probes {
            all: Vec::new(),
            shorten: if quick { 10 } else { 1 },
        }
    }

    /// Probe now: opens the next interval.
    pub fn take(&mut self) {
        self.all.push(probe_ms(self.shorten));
    }

    /// Probe again: the speed of the interval since the previous probe
    /// (and the opening probe of the next one).
    pub fn close(&mut self) -> Speed {
        let before = *self.all.last().expect("an opening probe");
        self.take();
        Speed::bracket(before, self.all[self.all.len() - 1])
    }

    fn min_median_max(&self) -> (f64, f64, f64) {
        let min = self.all.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.all.iter().copied().fold(0.0, f64::max);
        (min, median(&self.all), max)
    }
}

/// One timed round: raw wall time and normalised figures.
#[derive(Debug, Clone, Copy)]
struct Round {
    wall_s: f64,
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    failed: u64,
}

fn timed_round(
    sys: &mut dyn System,
    ops: u64,
    digest: bool,
    spans: &mut Spans,
    latencies: &mut Vec<u32>,
    probes: &mut Probes,
    accounting: Option<&mut Accounting>,
) -> Round {
    latencies.clear();
    let before = accounting.as_ref().map(|_| Snapshot::take());
    let start = Instant::now();
    let failed = sys.round(ops, latencies, digest, spans);
    let wall_s = start.elapsed().as_secs_f64();
    if let (Some(acc), Some(before)) = (accounting, before) {
        acc.charge(ops, wall_s, &before, &Snapshot::take());
    }
    let speed = probes.close();
    latencies.sort_unstable();
    Round {
        wall_s,
        ops_per_s: speed.rate(ops as f64 / wall_s),
        p50_us: speed.time(quantile_sorted(latencies, 0.5) as f64 / 1e3),
        p99_us: speed.time(quantile_sorted(latencies, 0.99) as f64 / 1e3),
        failed,
    }
}

/// A run's figures from its rounds: the median throughput and median
/// latency, and the lower quartile of the tail latency.
fn over_rounds(rounds: &[Round]) -> (f64, f64, f64) {
    let of = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    (
        median(&of(|r| r.ops_per_s)),
        median(&of(|r| r.p50_us)),
        lower_quartile(&of(|r| r.p99_us)),
    )
}

fn floats(values: impl IntoIterator<Item = f64>) -> String {
    let v: Vec<String> = values.into_iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", v.join(","))
}

fn strings(values: &[String]) -> String {
    let v: Vec<String> = values
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", v.join(","))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn never_zero(x: f64) -> f64 {
    if x > 0.0 && x.is_finite() {
        x
    } else {
        NOT_APPLICABLE
    }
}

/// Print the report line and, last, the result line the driver reads.
fn emit(
    spec: &Spec,
    trace: bool,
    report: String,
    problems: &[String],
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
) -> bool {
    let mut problems = problems.to_vec();
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut fields = Vec::new();
    for m in declared {
        match metrics.iter().find(|(name, _)| *name == m.name) {
            Some((_, value)) => fields.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )),
            None => problems.push(format!("metric {} was not measured", m.name)),
        }
    }
    for (name, _) in metrics {
        if !declared.iter().any(|m| m.name == *name) {
            problems.push(format!("metric {name} is not in BENCHMARK.json"));
        }
    }
    for p in &problems {
        eprintln!("envy-benchmark: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"report\":{report},\"problems\":{}}}",
        strings(&problems)
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    correct
}

fn report_head(workload: &str, options: &Options, plan: &Plan, placement: &Placement) -> String {
    format!(
        "\"workload\":\"{workload}\",\"trace\":{},\"quick\":{},\"seed\":{},\"seconds\":{},\
         \"rounds\":{},\"ops_per_round\":{},\"host\":{}",
        options.trace,
        options.quick,
        options.seed,
        options.seconds,
        plan.rounds,
        plan.ops,
        host::host_json(placement),
    )
}

/// Run one workload; returns whether its outputs were correct.
pub fn run(workload: &str, options: &Options) -> bool {
    // Before anything is spawned: every server and client thread inherits
    // this placement.
    let placement = Placement::pin_process();
    let spec = Spec::embedded();
    let plan = Plan::new(workload, options.seconds, options.quick);
    if options.trace {
        traced(workload, options, &plan, &placement, &spec)
    } else {
        end_to_end(workload, options, &plan, &placement, &spec)
    }
}

// ---------------------------------------------------------------------
// End-to-end run
// ---------------------------------------------------------------------

fn end_to_end(
    workload: &str,
    options: &Options,
    plan: &Plan,
    placement: &Placement,
    spec: &Spec,
) -> bool {
    let mut probes = Probes::new(options.quick);
    let mut spans = Spans::default();
    let mut latencies = Vec::with_capacity(plan.ops as usize);

    // Set-up, several times over; the last build is the one measured.
    let mut setups = Vec::new();
    let mut sys = None;
    for _ in 0..plan.setup_reps {
        if let Some(previous) = sys.take() {
            // Stops its server; nothing ran, so nothing to check.
            let _: Finish = System::finish(previous);
        }
        probes.take();
        let start = Instant::now();
        let built = workloads::build(workload, options.seed, &Shape::FULL);
        let secs = start.elapsed().as_secs_f64();
        setups.push(probes.close().time(secs));
        sys = Some(built);
    }
    let mut sys = sys.expect("at least one set-up");

    // One warm-up round, discarded; the first measured round is digested.
    let mut failed = sys.round(plan.ops, &mut latencies, false, &mut spans);
    probes.take();
    let rounds: Vec<Round> = (0..plan.rounds)
        .map(|r| {
            timed_round(
                sys.as_mut(),
                plan.ops,
                r == 0,
                &mut spans,
                &mut latencies,
                &mut probes,
                None,
            )
        })
        .collect();
    failed += rounds.iter().map(|r| r.failed).sum::<u64>();
    let finish = sys.finish();
    let rss_mb = host::peak_rss_mb();

    let ops = plan.ops * plan.rounds as u64;
    let window = finish.window();
    let (ops_per_s, p50_us, p99_us) = over_rounds(&rounds);
    let metrics = [
        ("setup_s", median(&setups)),
        ("ops_per_s", ops_per_s),
        ("p50_us", p50_us),
        ("p99_us", p99_us),
        ("rss_mb", rss_mb),
        (
            "flash_programs_per_op",
            never_zero(ratio(window.flash_programs(), ops)),
        ),
        (
            "sim_cleaning_cost",
            never_zero(ratio(window.clean_programs, window.pages_flushed)),
        ),
        (
            "sim_tps",
            never_zero(ops as f64 / (window.sim_ns as f64 / 1e9)),
        ),
    ];
    let report = format!(
        "{{{},\"reply_digest\":\"{:#x}\",\"setup_s_reps\":{},\"probe_ms\":{},\"per_round\":{{\"wall_s\":{},\"ops_per_s\":{},\
         \"p50_us\":{},\"p99_us\":{},\"cleaning_cost\":{}}}}}",
        report_head(workload, options, plan, placement),
        finish.reply_digest.unwrap_or(0),
        floats(setups.iter().copied()),
        floats(probes.all.iter().copied()),
        floats(rounds.iter().map(|r| r.wall_s)),
        floats(rounds.iter().map(|r| r.ops_per_s)),
        floats(rounds.iter().map(|r| r.p50_us)),
        floats(rounds.iter().map(|r| r.p99_us)),
        floats(finish.marks.windows(2).map(|w| {
            let d = w[1].since(&w[0]);
            ratio(d.clean_programs, d.pages_flushed)
        })),
    );
    let attempted = plan.ops * (plan.rounds as u64 + 1);
    emit(
        spec,
        false,
        report,
        &finish.problems,
        attempted,
        failed,
        &metrics,
    )
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Per-thread scheduler accounting summed over the accounted rounds.
#[derive(Debug, Default)]
struct Accounting {
    client: ThreadTimes,
    evloop: ThreadTimes,
    shard: ThreadTimes,
    wall_ns: f64,
    ops: u64,
    rw_syscalls: u64,
}

/// Scheduler and I/O counters of the process at one instant.
struct Snapshot {
    threads: Vec<(i32, String, ThreadTimes)>,
    rw_syscalls: u64,
}

impl Snapshot {
    fn take() -> Snapshot {
        Snapshot {
            threads: host::thread_times(),
            rw_syscalls: host::rw_syscalls(),
        }
    }
}

impl Accounting {
    /// Charge one round of `ops` operations and `wall_s` seconds with
    /// what each thread did between the two snapshots.
    fn charge(&mut self, ops: u64, wall_s: f64, before: &Snapshot, after: &Snapshot) {
        self.rw_syscalls += after.rw_syscalls - before.rw_syscalls;
        self.wall_ns += wall_s * 1e9;
        self.ops += ops;
        for (tid, comm, times) in &after.threads {
            let Some((_, _, earlier)) = before.threads.iter().find(|(t, ..)| t == tid) else {
                continue;
            };
            let delta = times.since(earlier);
            if comm.starts_with("envy-serve-") {
                self.evloop.add(&delta);
            } else if comm.starts_with("envy-shard-") {
                self.shard.add(&delta);
            } else {
                self.client.add(&delta);
            }
        }
    }

    fn per_op(&self, x: u64) -> f64 {
        ratio(x, self.ops)
    }

    fn cpu_ns(&self) -> u64 {
        self.client.cpu_ns + self.evloop.cpu_ns + self.shard.cpu_ns
    }
}

fn traced(
    workload: &str,
    options: &Options,
    plan: &Plan,
    placement: &Placement,
    spec: &Spec,
) -> bool {
    let mut probes = Probes::new(options.quick);
    let mut spans = Spans::default();
    let mut latencies = Vec::with_capacity(plan.ops as usize);
    let mut sys = workloads::build(workload, options.seed, &Shape::FULL);
    let pairs = if options.quick { 1 } else { TRACE_PAIRS };

    let mut failed = sys.round(plan.ops, &mut latencies, false, &mut spans);
    let mut accounting = Accounting::default();
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    let mut allocs = (0, 0);
    probes.take();
    for pair in 0..pairs {
        plain.push(timed_round(
            sys.as_mut(),
            plan.ops,
            pair == 0,
            &mut spans,
            &mut latencies,
            &mut probes,
            Some(&mut accounting),
        ));
        spans.set_enabled(true);
        trace::count_allocations(true);
        let before = trace::allocations();
        with_trace.push(timed_round(
            sys.as_mut(),
            plan.ops,
            false,
            &mut spans,
            &mut latencies,
            &mut probes,
            Some(&mut accounting),
        ));
        let after = trace::allocations();
        trace::count_allocations(false);
        spans.set_enabled(false);
        allocs = (allocs.0 + after.0 - before.0, allocs.1 + after.1 - before.1);
    }
    // The cross-CPU diagnostic: the same round with every thread free to
    // run on any allowed CPU.
    placement.set_all_threads(false);
    let unpinned = timed_round(
        sys.as_mut(),
        plan.ops,
        false,
        &mut spans,
        &mut latencies,
        &mut probes,
        None,
    );
    placement.set_all_threads(true);
    let measured = plain.iter().chain(&with_trace).chain([&unpinned]);
    failed += measured.map(|r| r.failed).sum::<u64>();
    let finish = sys.finish();

    let mut problems = finish.problems.clone();
    let busy = accounting.cpu_ns() as f64 / accounting.wall_ns;
    // One pinned CPU and a closed loop: some thread is always runnable, so
    // the threads' on-CPU times must add up to the wall time of the rounds
    // — the per-layer shares sum to the end-to-end number.
    if placement.pinned_cpu.is_some() && (busy - 1.0).abs() > 0.05 {
        problems.push(format!(
            "per-thread on-CPU time is {busy:.3} of the rounds' wall time: the shares \
             do not sum to the end-to-end number"
        ));
    }
    let rounds_run = 2 * pairs as u64 + 2;
    let mut metrics = layer_metrics(&finish, &accounting, &spans, plan.ops);
    let traced_ops = plan.ops * pairs as u64;
    let (plain_ops_per_s, ..) = over_rounds(&plain);
    let (traced_ops_per_s, ..) = over_rounds(&with_trace);
    metrics.extend([
        ("alloc.count_per_op", ratio(allocs.0, traced_ops)),
        ("alloc.bytes_per_op", ratio(allocs.1, traced_ops)),
        ("proc.cpu_busy_frac", busy),
        (
            "trace.overhead_frac",
            1.0 - traced_ops_per_s / plain_ops_per_s,
        ),
        ("net.xcpu_ops_ratio", unpinned.ops_per_s / plain_ops_per_s),
    ]);
    metrics.extend(micro::table(options.seed, plan.micro_calls, &mut probes));
    let (min, med, max) = probes.min_median_max();
    metrics.extend([
        ("host.probe_ms_min", min),
        ("host.probe_ms_median", med),
        ("host.probe_ms_max", max),
    ]);

    let report = format!(
        "{{{},\"reply_digest\":\"{:#x}\",\"probe_ms\":{},\"untraced_ops_per_s\":{},\"traced_ops_per_s\":{},\
         \"unpinned_ops_per_s\":{:.1},\"spans\":{}}}",
        report_head(workload, options, plan, placement),
        finish.reply_digest.unwrap_or(0),
        floats(probes.all.iter().copied()),
        floats(plain.iter().map(|r| r.ops_per_s)),
        floats(with_trace.iter().map(|r| r.ops_per_s)),
        unpinned.ops_per_s,
        spans.table_json(),
    );
    emit(
        spec,
        true,
        report,
        &problems,
        rounds_run * plan.ops,
        failed,
        &metrics,
    )
}

/// The per-layer metrics that come from the workload's own rounds:
/// thread accounting, spans, and controller counters per operation.
fn layer_metrics(
    finish: &Finish,
    acc: &Accounting,
    spans: &Spans,
    ops_per_round: u64,
) -> Vec<(&'static str, f64)> {
    let window: Counts = finish.window();
    // Counters cover every round after the warm-up, the unpinned one too.
    let ops = ops_per_round * (finish.marks.len() as u64 - 1);
    let per_op = |x: u64| ratio(x, ops);
    let per_kop = |x: u64| 1e3 * ratio(x, ops);
    let stats = &finish.stats;
    let breakdown = stats.breakdown();
    let share = |f: fn(&envy_core::TimeBreakdown) -> f64| breakdown.as_ref().map_or(0.0, f);
    let (served, batches) = finish.served_batches.unwrap_or((0, 0));
    vec![
        ("client.cpu_ns_per_op", acc.per_op(acc.client.cpu_ns)),
        ("client.wait_ns_per_op", acc.per_op(acc.client.wait_ns)),
        ("evloop.cpu_ns_per_op", acc.per_op(acc.evloop.cpu_ns)),
        ("evloop.wait_ns_per_op", acc.per_op(acc.evloop.wait_ns)),
        ("evloop.slices_per_op", acc.per_op(acc.evloop.slices)),
        ("shard.cpu_ns_per_op", acc.per_op(acc.shard.cpu_ns)),
        ("shard.wait_ns_per_op", acc.per_op(acc.shard.wait_ns)),
        ("shard.slices_per_op", acc.per_op(acc.shard.slices)),
        ("shard.batch_mean", ratio(served, batches)),
        (
            "proc.ctx_switches_per_op",
            acc.per_op(acc.client.ctx_switches + acc.evloop.ctx_switches + acc.shard.ctx_switches),
        ),
        ("proc.rw_syscalls_per_op", acc.per_op(acc.rw_syscalls)),
        ("net.client_submit_ns", spans.mean_ns(Span::Submit)),
        ("net.client_recv_ns", spans.mean_ns(Span::Recv)),
        ("core.flushes_per_op", per_op(window.pages_flushed)),
        ("core.clean_programs_per_op", per_op(window.clean_programs)),
        (
            "core.shadow_programs_per_op",
            per_op(window.shadow_programs),
        ),
        ("core.cleans_per_kop", per_kop(window.cleans)),
        ("core.erases_per_kop", per_kop(window.erases)),
        ("core.suspensions_per_kop", per_kop(window.suspensions)),
        (
            "core.sim_write_p99_ns",
            stats
                .write_latency
                .quantile(0.99)
                .map_or(0.0, |t| t.as_nanos() as f64),
        ),
        (
            "core.sim_read_mean_ns",
            stats.read_latency.mean().as_nanos() as f64,
        ),
        (
            "sram.write_hit_frac",
            ratio(window.sram_write_hits, window.host_writes),
        ),
        ("flash.time_flush_frac", share(|b| b.flushing)),
        ("flash.time_clean_frac", share(|b| b.cleaning)),
        ("flash.time_erase_frac", share(|b| b.erasing)),
        ("flash.time_suspend_frac", share(|b| b.suspended)),
    ]
}
