//! Open- and closed-loop multi-client load generation.
//!
//! There is **one client loop** (`run_client` → `pipeline` /
//! `atomic_txn`) and three small transports it runs over: the
//! in-process [`ShardHandle`] ([`run_inproc`]), a socket [`Client`]
//! ([`run_socket`]), and [`apply`] straight on a store
//! ([`run_monolithic`], the reference the determinism anchors compare
//! a served run against). What a client does with a refusal, a failed
//! access or a server going away is therefore decided once.
//!
//! Each client thread draws from one seeded stream of the spec's
//! [`LoadMix`]. The default is a skewed TPC-A-style transaction mix
//! (reusing [`envy_workload`]'s analytic driver): transactions pick a
//! shard uniformly and run the full three-index search +
//! read-modify-write access list of one TPC-A transaction against that
//! shard's slice. Account (and record) skew is fixed: 90 % of draws
//! (`HOT_WEIGHT`) land in the first 10 % of the keys (`HOT_FRACTION`).
//!
//! * **Closed loop** — each client keeps one transaction in flight:
//!   accesses pipeline within the transaction, the client awaits all
//!   completions, records the latency, and starts the next. Throughput
//!   is completion-limited.
//! * **Open loop** — transaction *starts* are paced to an offered rate,
//!   client *i* of *C* offset by *i*/*C* of its interval so the clients
//!   do not fire together, and latency is measured from the
//!   **scheduled** start, so queueing delay from a saturated server
//!   counts against it (coordinated-omission correction). A client
//!   still bounds itself to one transaction's accesses outstanding.
//!
//! [`Busy`](crate::shard::Busy) rejections are retried after the hinted
//! backoff and counted in [`LoadReport::busy_retries`] — backpressure is
//! visible in the report, never silently absorbed.

use crate::net::Client;
use crate::proto::WireOutcome;
use crate::shard::{
    apply, Reply, Request, Response, ServeError, ShardHandle, ShardPlan, SubmitError,
};
use envy_core::EnvyStore;
use envy_sim::rng::Rng;
use envy_sim::stats::Histogram;
use envy_sim::time::Ns;
use envy_workload::tpca::{AnalyticTpca, TpcaScale, TraceAccess, Transaction};
use envy_workload::ycsb::{YcsbConfig, YcsbOp, YcsbStream};
use std::collections::VecDeque;
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How transaction starts are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// One transaction in flight per client; next starts on completion.
    Closed,
    /// Transaction starts paced to an aggregate offered rate
    /// (transactions per second across all clients).
    Open {
        /// Offered aggregate rate, transactions per second.
        rate_tps: u64,
    },
}

/// What every client of a run asks for.
#[derive(Debug, Clone)]
pub enum LoadMix {
    /// TPC-A transactions: three index searches and three record
    /// read-modify-writes each, or, on a slice too small for the
    /// minimum database, the same shape over plain 8-byte records.
    Tpca,
    /// The read-heavy serving mix: six skew-drawn 8-byte record
    /// accesses per transaction, each a read with probability 0.95.
    ReadMostly,
    /// One YCSB key-value operation per "transaction" over the
    /// `envy-kv` wire operations. Keys route to shards by
    /// `key % shards`; combined with [`atomic`](LoadSpec::atomic),
    /// every operation is bracketed by `TxnBegin`/`TxnCommit`, updates
    /// run as read-modify-write inside the transaction, and a seeded
    /// fraction roll back.
    Ycsb(YcsbConfig),
}

/// A load-generation run description.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client threads (or connections).
    pub clients: u32,
    /// Transactions per client; 0 means "until `duration` elapses".
    pub txns_per_client: u64,
    /// Wall-clock stop condition (checked between transactions).
    pub duration: Option<Duration>,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Base seed; each client derives an independent stream.
    pub seed: u64,
    /// The request mix.
    pub mix: LoadMix,
    /// `Some(a)` runs every transaction **atomically**: the access list
    /// is bracketed by `TxnBegin` / `TxnCommit` on its shard, writes go
    /// through `TxnWrite`, each transaction appends a history record,
    /// and a seeded `a` fraction of transactions deliberately `TxnAbort`
    /// instead of committing (exercising rollback under load). `None`
    /// keeps the non-atomic per-access shape.
    pub abort_fraction: Option<f64>,
}

impl LoadSpec {
    /// A closed-loop TPC-A spec.
    pub fn closed(clients: u32, txns_per_client: u64) -> LoadSpec {
        LoadSpec {
            clients: clients.max(1),
            txns_per_client,
            duration: None,
            mode: LoadMode::Closed,
            seed: 0x5eed,
            mix: LoadMix::Tpca,
            abort_fraction: None,
        }
    }

    /// Switch to open-loop pacing at an aggregate rate (builder-style).
    #[must_use]
    pub fn open(mut self, rate_tps: u64) -> LoadSpec {
        self.mode = LoadMode::Open {
            rate_tps: rate_tps.max(1),
        };
        self
    }

    /// Set the wall-clock stop condition (builder-style).
    #[must_use]
    pub fn with_duration(mut self, d: Duration) -> LoadSpec {
        self.duration = Some(d);
        self
    }

    /// Set the base seed (builder-style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> LoadSpec {
        self.seed = seed;
        self
    }

    /// Switch to the 95/5 read-mostly record mix (builder-style).
    #[must_use]
    pub fn read_mostly(mut self) -> LoadSpec {
        self.mix = LoadMix::ReadMostly;
        self
    }

    /// Run every transaction atomically (builder-style): bracketed by
    /// `TxnBegin`/`TxnCommit`, with a seeded `abort_fraction` of
    /// transactions rolling back via `TxnAbort` instead.
    #[must_use]
    pub fn atomic(mut self, abort_fraction: f64) -> LoadSpec {
        assert!(
            (0.0..=1.0).contains(&abort_fraction),
            "abort fraction is a probability"
        );
        self.abort_fraction = Some(abort_fraction);
        self
    }

    /// Switch every client to a YCSB key-value mix (builder-style).
    #[must_use]
    pub fn with_ycsb(mut self, config: YcsbConfig) -> LoadSpec {
        self.mix = LoadMix::Ycsb(config);
        self
    }
}

/// The deterministic YCSB load phase: one standalone `KvPut` per
/// initial record, keys `0..records` in order, routed by
/// `key % shards`. Both sides of the determinism anchor run exactly
/// this sequence — the monolithic reference through
/// [`apply`], the served run over its connection —
/// so the stores enter the measured phase byte-identical.
pub fn ycsb_load_requests(config: &YcsbConfig, shards: u32) -> Vec<Request> {
    let shards = shards.max(1) as u64;
    (0..config.records)
        .map(|key| Request::KvPut {
            shard: (key % shards) as u32,
            key,
            txn: 0,
            value: config.value_for(key, 0),
        })
        .collect()
}

/// What a load run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Transactions fully completed (committed, in atomic mode).
    pub completed_txns: u64,
    /// Transactions rolled back via `TxnAbort` (deliberate seeded
    /// aborts, plus any forced by a failed access).
    pub aborted_txns: u64,
    /// `TxnBegin` attempts refused because every transaction slot on
    /// the shard was occupied, retried after a jittered backoff.
    pub txn_conflicts: u64,
    /// Transactional writes refused with `TXN_CONFLICT` (the page was
    /// in another open transaction's write set). Each refusal forces
    /// the whole transaction to abort and retry.
    pub txn_conflict_refusals: u64,
    /// Whole transactions aborted and re-run after a conflict refusal —
    /// reported separately from the refusals themselves (one retry can
    /// follow several refused writes in the same attempt).
    pub txn_conflict_retries: u64,
    /// Individual accesses completed successfully.
    pub completed_ops: u64,
    /// `Busy` rejections retried.
    pub busy_retries: u64,
    /// Accesses that failed with any other typed error.
    pub errors: u64,
    /// Wall-clock duration of the run (max across clients).
    pub wall: Duration,
    /// Wall-clock transaction latency (closed: from first submit; open:
    /// from scheduled start).
    pub txn_latency: Histogram,
}

impl LoadReport {
    /// Fold another client's report into this one (latencies merge,
    /// counters add, wall takes the max).
    pub fn merge(&mut self, other: &LoadReport) {
        self.completed_txns += other.completed_txns;
        self.aborted_txns += other.aborted_txns;
        self.txn_conflicts += other.txn_conflicts;
        self.txn_conflict_refusals += other.txn_conflict_refusals;
        self.txn_conflict_retries += other.txn_conflict_retries;
        self.completed_ops += other.completed_ops;
        self.busy_retries += other.busy_retries;
        self.errors += other.errors;
        self.wall = self.wall.max(other.wall);
        self.txn_latency.merge(&other.txn_latency);
    }

    /// Completed transactions per wall-clock second.
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed_txns as f64 / secs
        }
    }
}

/// One client's [`LoadMix`], ready to draw from.
enum Mix {
    /// Three index searches + three record RMWs per transaction.
    Tpca(Box<AnalyticTpca>),
    /// Three (read, write) record pairs at skew-drawn slots — the TPC-A
    /// account/teller/branch shape without the index B-Trees, for slices
    /// too small to hold the minimum database.
    Synthetic {
        /// 8-byte record slots available in the slice.
        slots: u64,
    },
    /// [`LoadMix::ReadMostly`].
    ReadMostly {
        /// 8-byte record slots available in the slice.
        slots: u64,
    },
    /// [`LoadMix::Ycsb`]: each shard's KV index holds the keys
    /// congruent to its id, so a workload-E scan walks one shard's
    /// slice of the key space.
    Ycsb(Box<YcsbStream>),
}

/// Per-client deterministic transaction stream over one shard plan.
struct TxnStream {
    rng: Rng,
    mix: Mix,
    plan: ShardPlan,
    /// `Some(a)`: bracket every transaction with begin/commit and
    /// deliberately abort an `a` fraction.
    abort_fraction: Option<f64>,
    /// Sequence number into this client's history ring (atomic mode).
    history_seq: u64,
}

const SYNTH_RECORD: u64 = 8;
/// One TPC-A history record: (account, teller, branch, delta) packed.
const HISTORY_RECORD: u64 = 16;
/// Share of the key range that is hot.
const HOT_FRACTION: f64 = 0.1;
/// Probability that a key is drawn from the hot range.
const HOT_WEIGHT: f64 = 0.9;
/// Probability that a [`LoadMix::ReadMostly`] access is a read.
const READ_FRACTION: f64 = 0.95;
/// Placeholder transaction id in generated `TxnWrite`/`TxnCommit`/
/// `TxnAbort` requests; the driver patches in the id the shard's
/// `TxnStarted` reply assigned before submitting them.
const TXN_PATCH: u64 = u64::MAX;

/// Draw a key in `0..keys` with the hot-range skew.
fn skewed_key(rng: &mut Rng, keys: u64) -> u64 {
    if rng.chance(HOT_WEIGHT) {
        rng.below(((keys as f64 * HOT_FRACTION) as u64).max(1))
    } else {
        rng.below(keys)
    }
}

impl TxnStream {
    fn new(spec: &LoadSpec, plan: ShardPlan, client: u32) -> TxnStream {
        let seed = spec
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1));
        let slots = (plan.shard_bytes() / SYNTH_RECORD).max(1);
        let mix = match &spec.mix {
            LoadMix::Tpca => {
                let tpca = AnalyticTpca::new(TpcaScale::fit_bytes(plan.shard_bytes()));
                if tpca.layout().total_bytes <= plan.shard_bytes() {
                    Mix::Tpca(Box::new(tpca))
                } else {
                    Mix::Synthetic { slots }
                }
            }
            LoadMix::ReadMostly => Mix::ReadMostly { slots },
            LoadMix::Ycsb(ycsb) => {
                Mix::Ycsb(Box::new(YcsbStream::new(ycsb, client, spec.clients.max(1))))
            }
        };
        TxnStream {
            rng: Rng::seed_from(seed),
            mix,
            plan,
            abort_fraction: spec.abort_fraction,
            history_seq: 0,
        }
    }

    /// Draw the next transaction's global-address request list.
    fn next_requests(&mut self, out: &mut Vec<Request>) {
        out.clear();
        let (rng, plan) = (&mut self.rng, self.plan);
        let atomic = self.abort_fraction.is_some();
        // The address mixes pick their shard uniformly, first.
        let pick = |rng: &mut Rng| {
            let shard = rng.below(plan.shards() as u64) as u32;
            (shard, plan.base_of(shard))
        };
        let shard = match &mut self.mix {
            Mix::Tpca(tpca) => {
                let (shard, base) = pick(rng);
                let account = skewed_key(rng, tpca.layout().scale.accounts());
                let teller = account / 10_000;
                let branch = teller / 10;
                let delta = (rng.below(2_000) as i64) - 1_000;
                let txn = Transaction {
                    account,
                    teller,
                    branch,
                    delta,
                };
                let fill = account as u8;
                tpca.for_each_access(&txn, |a: TraceAccess| {
                    let addr = base + a.addr;
                    out.push(if a.write {
                        let bytes = vec![fill; a.len];
                        Request::Write { addr, bytes }
                    } else {
                        let len = a.len as u32;
                        Request::Read { addr, len }
                    });
                });
                shard
            }
            Mix::Synthetic { slots } => {
                let (shard, base) = pick(rng);
                let account = skewed_key(rng, *slots);
                // Tellers and branches concentrate 10× and 100× like the
                // TPC-A hierarchy, folded back into the slot range.
                for key in [account, (account / 10) % *slots, (account / 100) % *slots] {
                    let (addr, len) = (base + key * SYNTH_RECORD, SYNTH_RECORD as u32);
                    let bytes = vec![key as u8; SYNTH_RECORD as usize];
                    out.push(Request::Read { addr, len });
                    out.push(Request::Write { addr, bytes });
                }
                shard
            }
            Mix::ReadMostly { slots } => {
                let (shard, base) = pick(rng);
                // Six accesses per transaction, matching the TPC-A
                // access count so throughput stays comparable per txn.
                for _ in 0..6 {
                    let key = skewed_key(rng, *slots);
                    let (addr, len) = (base + key * SYNTH_RECORD, SYNTH_RECORD as u32);
                    out.push(if rng.chance(READ_FRACTION) {
                        Request::Read { addr, len }
                    } else {
                        let bytes = vec![key as u8; SYNTH_RECORD as usize];
                        Request::Write { addr, bytes }
                    });
                }
                shard
            }
            Mix::Ycsb(stream) => {
                let op = stream.next_op(rng);
                let (YcsbOp::Read { key }
                | YcsbOp::Update { key }
                | YcsbOp::Insert { key }
                | YcsbOp::Scan { start: key, .. }) = op;
                let shard = (key % plan.shards() as u64) as u32;
                match op {
                    YcsbOp::Read { key } => out.push(Request::KvGet { shard, key }),
                    YcsbOp::Update { key } | YcsbOp::Insert { key } => {
                        // Atomic updates read-modify-write inside the
                        // transaction: the read observes the committed
                        // value, the write lands in the write set so the
                        // seeded abort below takes it back.
                        if atomic && matches!(op, YcsbOp::Update { .. }) {
                            out.push(Request::KvGet { shard, key });
                        }
                        let value = stream.config().value_for(key, stream.version());
                        let txn = if atomic { TXN_PATCH } else { 0 };
                        out.push(Request::KvPut {
                            shard,
                            key,
                            txn,
                            value,
                        });
                    }
                    YcsbOp::Scan { start, limit } => out.push(Request::KvScan {
                        shard,
                        start,
                        limit,
                    }),
                }
                shard
            }
        };
        let Some(abort) = self.abort_fraction else {
            return;
        };
        // Atomic mode: the same access list, run as one transaction.
        // Writes go through TxnWrite so a crash (or the seeded abort
        // below) takes all of them back together.
        for req in out.iter_mut() {
            if let Request::Write { addr, bytes } = req {
                *req = Request::TxnWrite {
                    addr: *addr,
                    bytes: std::mem::take(bytes),
                    txn: TXN_PATCH,
                };
            }
        }
        // The TPC-A history append: one record per transaction,
        // ring-addressed into the slack past the database layout
        // (address math only — the layout itself is untouched, so
        // non-atomic runs are byte-for-byte unaffected).
        if let Mix::Tpca(tpca) = &self.mix {
            let used = tpca.layout().total_bytes;
            let slots = (plan.shard_bytes() - used) / HISTORY_RECORD;
            if slots > 0 {
                let slot = self.history_seq % slots;
                self.history_seq += 1;
                out.push(Request::TxnWrite {
                    addr: plan.base_of(shard) + used + slot * HISTORY_RECORD,
                    bytes: vec![(self.history_seq % 251) as u8; HISTORY_RECORD as usize],
                    txn: TXN_PATCH,
                });
            }
        }
        // Every transaction is bracketed — YCSB reads and scans too, so
        // the driver's begin/commit protocol holds across the mix.
        let txn = TXN_PATCH;
        out.insert(0, Request::TxnBegin { shard });
        out.push(if self.rng.chance(abort) {
            Request::TxnAbort { shard, txn }
        } else {
            Request::TxnCommit { shard, txn }
        });
    }
}

/// Substitute the shard-assigned transaction id for [`TXN_PATCH`] in a
/// generated request.
fn patch_txn(req: &Request, txn: u64) -> Request {
    match req.clone() {
        Request::TxnWrite { addr, bytes, .. } => Request::TxnWrite { addr, bytes, txn },
        Request::TxnCommit { shard, .. } => Request::TxnCommit { shard, txn },
        Request::TxnAbort { shard, .. } => Request::TxnAbort { shard, txn },
        Request::KvPut {
            shard,
            key,
            value,
            txn: TXN_PATCH,
        } => Request::KvPut {
            shard,
            key,
            txn,
            value,
        },
        Request::KvDelete {
            shard,
            key,
            txn: TXN_PATCH,
        } => Request::KvDelete { shard, key, txn },
        other => other,
    }
}

/// Pacing and termination bookkeeping for one client thread.
struct ClientLoop {
    report: LoadReport,
    end: Option<Instant>,
    txns_target: u64,
    txns_drawn: u64,
    interval: Option<Duration>,
    next_start: Instant,
}

impl ClientLoop {
    fn new(spec: &LoadSpec, client: u32, started: Instant) -> ClientLoop {
        let interval = match spec.mode {
            LoadMode::Closed => None,
            LoadMode::Open { rate_tps } => Some(Duration::from_secs_f64(
                spec.clients as f64 / rate_tps as f64,
            )),
        };
        // Client i of C starts i/C of an interval in: C paced clients
        // offer their aggregate rate evenly, not as a burst of C every
        // interval whose drain time the latencies would then measure.
        // And never before now: a start scheduled before its client
        // existed would charge the harness's own start-up (connects,
        // thread spawns, stream set-up) to the server as queueing delay.
        let phase = f64::from(client) / f64::from(spec.clients.max(1));
        let offset = interval.unwrap_or_default().mul_f64(phase);
        ClientLoop {
            report: LoadReport::default(),
            end: spec.duration.map(|d| started + d),
            txns_target: spec.txns_per_client,
            txns_drawn: 0,
            interval,
            next_start: (started + offset).max(Instant::now()),
        }
    }

    /// Wait for the next scheduled start (open loop) and decide whether
    /// to run another transaction. Returns the latency origin.
    fn next_txn(&mut self) -> Option<Instant> {
        // Every transaction drawn counts toward the per-client target —
        // committed, aborted, or given up on as an error: "run N
        // transactions" bounds work, not commit luck (and a shard that
        // refuses everything must not keep a count-bounded client alive).
        if self.txns_target > 0 && self.txns_drawn >= self.txns_target {
            return None;
        }
        if self.end.is_some_and(|end| Instant::now() >= end) {
            return None;
        }
        self.txns_drawn += 1;
        match self.interval {
            None => Some(Instant::now()),
            Some(gap) => {
                let scheduled = self.next_start;
                self.next_start += gap;
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                Some(scheduled)
            }
        }
    }
}

/// Base delay before retrying a refused transactional request (a
/// `TxnBegin` that found every slot taken, or a transaction aborted on
/// a write-set conflict).
const TXN_RETRY_BASE: Duration = Duration::from_micros(200);

/// Transactions a client retries after conflict-forced aborts before
/// counting the transaction as an error and moving on.
const TXN_RETRY_CAP: u32 = 32;

/// Seeded, jittered backoff for transactional retries. Conflicts are
/// abort decisions: the losers must not retry in lockstep, or they
/// collide again on the very same pages. Each pause draws uniformly
/// from [0.5×, 1.5×) of an exponentially growing base (capped), and a
/// success resets the growth.
struct Backoff {
    rng: Rng,
    streak: u32,
}

impl Backoff {
    fn new(seed: u64) -> Backoff {
        Backoff {
            rng: Rng::seed_from(seed),
            streak: 0,
        }
    }

    /// Sleep one jittered delay and grow the streak.
    fn pause(&mut self) {
        let base = TXN_RETRY_BASE.saturating_mul(1u32 << self.streak.min(4));
        let nanos = (base.as_nanos() as u64).max(1);
        let jittered = nanos / 2 + self.rng.below(nanos);
        self.streak = self.streak.saturating_add(1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    /// A retried operation succeeded: fall back to the base delay.
    fn reset(&mut self) {
        self.streak = 0;
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// The far end will answer nothing more (server shutting down,
/// connection lost): the client counts what it is still owed and stops.
#[derive(Debug)]
struct Gone;

/// What a request was answered with.
type Answer = Result<Reply, ServeError>;

/// The way requests reach a store and answers come back — all the one
/// client loop below knows about where it is running. Every `submit`
/// that returns `Ok` is answered by exactly one later `recv`, in any
/// order. [`Busy`](crate::shard::Busy) never reaches the loop: a
/// transport retries it after the hinted pause wherever its medium
/// surfaces it, and counts it in [`LoadReport::busy_retries`].
trait Transport {
    /// Hand over one request.
    fn submit(&mut self, req: &Request, report: &mut LoadReport) -> Result<(), Gone>;

    /// Block for the answer to any request submitted and not yet
    /// answered.
    fn recv(&mut self, report: &mut LoadReport) -> Result<Answer, Gone>;
}

/// In-process: [`ShardHandle::submit`] and a completion channel. `Busy`
/// and rejections come back from the call itself.
struct InProc {
    handle: ShardHandle,
    tx: mpsc::Sender<Response>,
    rx: mpsc::Receiver<Response>,
}

impl Transport for InProc {
    fn submit(&mut self, req: &Request, report: &mut LoadReport) -> Result<(), Gone> {
        loop {
            match self.handle.submit(req.clone(), None, &self.tx) {
                Ok(_) => return Ok(()),
                Err(SubmitError::Busy(b)) => {
                    report.busy_retries += 1;
                    std::thread::sleep(b.retry_after);
                }
                Err(SubmitError::Rejected(e)) => {
                    // Refused at the door — shutdown included — is an
                    // answer too: post it where `recv` finds it. (`rx`
                    // lives beside `tx`, so the send cannot fail.)
                    let (id, shard, result) = (0, 0, Err(e));
                    let _ = self.tx.send(Response { id, shard, result });
                    return Ok(());
                }
            }
        }
    }

    fn recv(&mut self, _: &mut LoadReport) -> Result<Answer, Gone> {
        self.rx.recv().map(|resp| resp.result).map_err(|_| Gone)
    }
}

/// Over a socket: a corked [`Client`]. `Busy` comes back as a response
/// and is resubmitted under its original id, so what is in flight is
/// remembered until it is answered.
struct Socket {
    client: Client,
    in_flight: Vec<(u64, Request)>,
}

impl Transport for Socket {
    fn submit(&mut self, req: &Request, _: &mut LoadReport) -> Result<(), Gone> {
        let id = self.client.submit(req.clone(), None).map_err(|_| Gone)?;
        self.in_flight.push((id, req.clone()));
        Ok(())
    }

    fn recv(&mut self, report: &mut LoadReport) -> Result<Answer, Gone> {
        loop {
            let resp = self.client.recv().map_err(|_| Gone)?;
            let slot = self.in_flight.iter().position(|(id, ..)| *id == resp.id);
            let answer = match resp.outcome {
                WireOutcome::Reply(reply) => Ok(reply),
                WireOutcome::Err(e) => Err(e),
                WireOutcome::Busy(b) => {
                    if let Some((id, req)) = slot.map(|i| &self.in_flight[i]) {
                        report.busy_retries += 1;
                        std::thread::sleep(b.retry_after);
                        self.client
                            .submit_with_id(*id, req.clone(), None)
                            .map_err(|_| Gone)?;
                    }
                    continue;
                }
                WireOutcome::ShutdownAck => return Err(Gone),
            };
            if let Some(i) = slot {
                self.in_flight.swap_remove(i);
            }
            return Ok(answer);
        }
    }
}

/// No server at all: [`apply`] on a store the caller owns, answered on
/// the spot — the monolithic reference.
struct Direct<'a> {
    store: &'a mut EnvyStore,
    answers: VecDeque<Answer>,
}

impl Transport for Direct<'_> {
    fn submit(&mut self, req: &Request, _: &mut LoadReport) -> Result<(), Gone> {
        self.answers.push_back(apply(self.store, req));
        Ok(())
    }

    fn recv(&mut self, _: &mut LoadReport) -> Result<Answer, Gone> {
        self.answers.pop_front().ok_or(Gone)
    }
}

// ---------------------------------------------------------------------
// The client loop
// ---------------------------------------------------------------------

/// One client: draw transactions from its seeded stream and run them
/// over `transport` until the spec's count or duration is reached or
/// the transport is [`Gone`].
fn run_client<T: Transport>(
    transport: &mut T,
    spec: &LoadSpec,
    plan: ShardPlan,
    client: u32,
    started: Instant,
) -> LoadReport {
    let mut stream = TxnStream::new(spec, plan, client);
    let mut lp = ClientLoop::new(spec, client, started);
    let mut reqs = Vec::new();
    let mut backoff = Backoff::new(spec.seed ^ 0xB0FF ^ u64::from(client));
    while let Some(t0) = lp.next_txn() {
        stream.next_requests(&mut reqs);
        let report = &mut lp.report;
        let ran = if spec.abort_fraction.is_some() {
            atomic_txn(transport, &reqs, report, &mut backoff)
        } else {
            pipeline(transport, &reqs, None, report).map(|_| report.completed_txns += 1)
        };
        if ran.is_err() {
            break;
        }
        lp.report
            .txn_latency
            .record(Ns::from_nanos(t0.elapsed().as_nanos() as u64));
    }
    lp.report.wall = started.elapsed();
    lp.report
}

/// How the accesses of one [`pipeline`] went.
struct Batch {
    /// Every access succeeded.
    clean: bool,
    /// A write hit another open transaction's write set.
    conflicted: bool,
}

/// Submit `reqs` back to back — under transaction `txn`, if given — then
/// await and count every answer. If the transport goes mid-batch the
/// answers already owed are still awaited and counted before that is
/// reported, so a report never loses work the server did.
fn pipeline<T: Transport>(
    transport: &mut T,
    reqs: &[Request],
    txn: Option<u64>,
    report: &mut LoadReport,
) -> Result<Batch, Gone> {
    let mut gone = false;
    let mut owed = 0usize;
    for req in reqs {
        let sent = match txn {
            Some(txn) => transport.submit(&patch_txn(req, txn), report),
            None => transport.submit(req, report),
        };
        if sent.is_err() {
            gone = true;
            break;
        }
        owed += 1;
    }
    let mut batch = Batch {
        clean: true,
        conflicted: false,
    };
    for _ in 0..owed {
        match transport.recv(report)? {
            Ok(_) => report.completed_ops += 1,
            Err(e) => {
                batch.clean = false;
                match e {
                    ServeError::TxnConflict => {
                        report.txn_conflict_refusals += 1;
                        batch.conflicted = true;
                    }
                    ServeError::ShuttingDown => gone = true,
                    _ => report.errors += 1,
                }
            }
        }
    }
    if gone {
        Err(Gone)
    } else {
        Ok(batch)
    }
}

/// Submit one request and await its answer.
fn call<T: Transport>(
    transport: &mut T,
    req: &Request,
    report: &mut LoadReport,
) -> Result<Answer, Gone> {
    transport.submit(req, report)?;
    match transport.recv(report)? {
        Err(ServeError::ShuttingDown) => Err(Gone),
        answer => Ok(answer),
    }
}

/// Run one atomic transaction: begin (retrying slot-full refusals with
/// jittered backoff), pipeline the body under the assigned id, then
/// commit — or abort, when the stream said so or any body access failed.
/// A write-set conflict aborts the attempt and retries the whole
/// transaction, up to [`TXN_RETRY_CAP`] times.
fn atomic_txn<T: Transport>(
    transport: &mut T,
    reqs: &[Request],
    report: &mut LoadReport,
    backoff: &mut Backoff,
) -> Result<(), Gone> {
    let (begin, rest) = reqs.split_first().expect("atomic txn has a begin");
    let (tail, body) = rest.split_last().expect("atomic txn has a commit/abort");
    for _ in 0..TXN_RETRY_CAP {
        let txn = loop {
            match call(transport, begin, report)? {
                Ok(Reply::TxnStarted { txn }) => {
                    report.completed_ops += 1;
                    backoff.reset();
                    break txn;
                }
                Ok(other) => unreachable!("begin answered {other:?}"),
                Err(ServeError::TxnBusy) => {
                    report.txn_conflicts += 1;
                    backoff.pause();
                }
                Err(_) => {
                    report.errors += 1;
                    return Ok(());
                }
            }
        };
        let batch = pipeline(transport, body, Some(txn), report)?;
        let tail = if batch.clean {
            patch_txn(tail, txn)
        } else {
            // A transaction with a failed access must not commit partially
            // acknowledged state; roll the whole thing back.
            let (Request::TxnCommit { shard, .. } | Request::TxnAbort { shard, .. }) = tail else {
                unreachable!("atomic txn tail is commit/abort")
            };
            Request::TxnAbort { shard: *shard, txn }
        };
        match call(transport, &tail, report)? {
            Ok(Reply::Committed { .. }) => {
                report.completed_txns += 1;
                report.completed_ops += 1;
            }
            Ok(Reply::Aborted { .. }) => {
                // A conflict-forced abort is bookkeeping for the retry, not
                // a resolved transaction; only deliberate (or error-forced)
                // aborts count.
                if !batch.conflicted {
                    report.aborted_txns += 1;
                }
                report.completed_ops += 1;
            }
            Ok(other) => unreachable!("commit/abort answered {other:?}"),
            Err(_) => report.errors += 1,
        }
        if !batch.conflicted {
            return Ok(());
        }
        report.txn_conflict_retries += 1;
        backoff.pause();
    }
    report.errors += 1;
    Ok(())
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// One thread per transport, each running [`run_client`] with its own
/// deterministic transaction stream; their reports merged.
fn run_clients<T: Transport + Send>(
    transports: Vec<T>,
    plan: ShardPlan,
    spec: &LoadSpec,
    started: Instant,
) -> LoadReport {
    let mut total = LoadReport::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(c, mut t)| {
                scope.spawn(move || run_client(&mut t, spec, plan, c as u32, started))
            })
            .collect();
        for w in workers {
            total.merge(&w.join().expect("load client panicked"));
        }
    });
    total.wall = started.elapsed();
    total
}

/// Drive a load run against an in-process [`ShardHandle`]:
/// `spec.clients` threads, each submitting through its own clone.
pub fn run_inproc(handle: &ShardHandle, spec: &LoadSpec) -> LoadReport {
    let started = Instant::now();
    let transport = |_| {
        let (handle, (tx, rx)) = (handle.clone(), mpsc::channel());
        InProc { handle, tx, rx }
    };
    let transports = (0..spec.clients).map(transport).collect();
    run_clients(transports, *handle.plan(), spec, started)
}

/// Drive a load run over sockets: one [`Client`] connection per client
/// thread, built by `connect`. The caller supplies the server's
/// [`ShardPlan`] (shard count and slice size), which the wire protocol
/// does not carry.
///
/// # Errors
///
/// The first connection error; established clients that later fail stop
/// individually and their partial counts are merged.
pub fn run_socket<F>(connect: F, plan: ShardPlan, spec: &LoadSpec) -> io::Result<LoadReport>
where
    F: Fn() -> io::Result<Client> + Sync,
{
    let started = Instant::now();
    let mut transports = Vec::with_capacity(spec.clients as usize);
    for _ in 0..spec.clients {
        let (mut client, in_flight) = (connect()?, Vec::new());
        // Cork the client: pipelined submits batch into one buffer that
        // the next recv() flushes, so an N-op transaction costs one write
        // syscall instead of N.
        let _ = client.set_corked(true);
        transports.push(Socket { client, in_flight });
    }
    Ok(run_clients(transports, plan, spec, started))
}

/// Replay the workload a single client would submit, applied
/// synchronously to a monolithic store — the single-controller
/// reference of the determinism anchor (a one-shard [`ShardedStore`]
/// run with the same spec must land on exactly this store's simulated
/// clock and controller statistics). It is the same client loop as a
/// served run, request for request, over [`apply`].
///
/// The transaction stream is regenerated from the spec's seed, not
/// recorded, so only a single-submitter order is reproducible: the spec
/// must use one client and a transaction count (not a duration).
///
/// # Panics
///
/// If the spec uses more than one client or no transaction count —
/// neither order is reproducible synchronously.
///
/// [`ShardedStore`]: crate::shard::ShardedStore
pub fn run_monolithic(store: &mut EnvyStore, spec: &LoadSpec) -> LoadReport {
    assert_eq!(
        spec.clients, 1,
        "the monolithic reference is single-submitter"
    );
    assert!(
        spec.txns_per_client > 0,
        "the monolithic reference needs a transaction count, not a duration"
    );
    let plan = ShardPlan::new(1, store.size());
    let answers = VecDeque::new();
    let mut direct = Direct { store, answers };
    run_client(&mut direct, spec, plan, 0, Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ServeConfig, ShardedStore};

    #[test]
    fn txn_stream_is_deterministic_and_in_range() {
        let spec = LoadSpec::closed(2, 4);
        let plan = ShardPlan::new(4, 1 << 20);
        let mut a = TxnStream::new(&spec, plan, 1);
        let mut b = TxnStream::new(&spec, plan, 1);
        let mut other = TxnStream::new(&spec, plan, 2);
        let (mut ra, mut rb, mut rc) = (Vec::new(), Vec::new(), Vec::new());
        let mut differs = false;
        for _ in 0..32 {
            a.next_requests(&mut ra);
            b.next_requests(&mut rb);
            other.next_requests(&mut rc);
            assert_eq!(ra, rb, "same client stream must repeat exactly");
            differs |= ra != rc;
            for req in &ra {
                let (addr, len) = match req {
                    Request::Read { addr, len } => (*addr, *len as u64),
                    Request::Write { addr, bytes } => (*addr, bytes.len() as u64),
                    _ => unreachable!("tpca issues only reads and writes"),
                };
                plan.locate(addr, len).expect("access must route cleanly");
            }
        }
        assert!(differs, "distinct clients must get distinct streams");
    }

    #[test]
    fn closed_loop_inproc_completes_every_txn() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let spec = LoadSpec::closed(2, 8);
        let report = run_inproc(&store.handle(), &spec);
        let outcome = store.shutdown();
        assert_eq!(report.completed_txns, 16);
        assert_eq!(report.errors, 0);
        assert!(report.completed_ops > 0);
        assert_eq!(report.completed_ops, outcome.total_served());
        assert_eq!(report.txn_latency.count(), 16);
        assert!(report.throughput_tps() > 0.0);
    }

    #[test]
    fn monolithic_reference_matches_single_client_run() {
        let config = ServeConfig::small(1);
        let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
        baseline.prefill().unwrap();
        let mut mono = baseline.fork();
        let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let spec = LoadSpec::closed(1, 12).with_seed(7);
        let report = run_inproc(&front.handle(), &spec);
        let outcome = front.shutdown();
        let mono_report = run_monolithic(&mut mono, &spec);
        assert_eq!(report.completed_txns, mono_report.completed_txns);
        assert_eq!(report.completed_ops, mono_report.completed_ops);
        assert_eq!(outcome.shards[0].store.now(), mono.now());
        assert_eq!(outcome.shards[0].store.stats(), mono.stats());
    }

    #[test]
    fn atomic_stream_brackets_every_txn() {
        let spec = LoadSpec::closed(1, 4).atomic(0.5).with_seed(3);
        let plan = ShardPlan::new(2, 1 << 20);
        let mut stream = TxnStream::new(&spec, plan, 0);
        let mut reqs = Vec::new();
        let (mut commits, mut aborts) = (0u32, 0u32);
        for _ in 0..64 {
            stream.next_requests(&mut reqs);
            let Some(Request::TxnBegin { shard }) = reqs.first().cloned() else {
                panic!("atomic txn must start with TxnBegin: {reqs:?}");
            };
            match reqs.last() {
                Some(Request::TxnCommit { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    commits += 1;
                }
                Some(Request::TxnAbort { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    aborts += 1;
                }
                other => panic!("atomic txn must end with commit/abort: {other:?}"),
            }
            // No plain writes remain, and every body access stays on
            // the begin's shard.
            for req in &reqs[1..reqs.len() - 1] {
                match req {
                    Request::Read { addr, len } => {
                        assert_eq!(plan.locate(*addr, *len as u64).unwrap().0, shard);
                    }
                    Request::TxnWrite { addr, bytes, txn } => {
                        assert_eq!(*txn, TXN_PATCH);
                        assert_eq!(plan.locate(*addr, bytes.len() as u64).unwrap().0, shard);
                    }
                    other => panic!("unexpected body request {other:?}"),
                }
            }
        }
        assert!(commits > 0 && aborts > 0, "0.5 must draw both outcomes");
    }

    #[test]
    fn atomic_closed_loop_commits_and_aborts() {
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let spec = LoadSpec::closed(2, 12).atomic(0.3).with_seed(17);
        let report = run_inproc(&store.handle(), &spec);
        let outcome = store.shutdown();
        assert_eq!(report.completed_txns + report.aborted_txns, 24);
        assert!(report.aborted_txns > 0, "0.3 abort draw over 24 txns");
        assert_eq!(report.errors, 0);
        // Every access the loadgen counted was served — plus the
        // TxnBusy-answered begin attempts and TxnConflict-refused
        // writes, which the shard serves as typed errors — and no shard
        // is left with an open transaction.
        assert_eq!(
            report.completed_ops + report.txn_conflicts + report.txn_conflict_refusals,
            outcome.total_served()
        );
        for shard in &outcome.shards {
            assert!(shard.store.engine().open_txns().is_empty());
        }
        let commits: u64 = outcome
            .shards
            .iter()
            .map(|s| s.store.stats().txn_commits.get())
            .sum();
        let aborts: u64 = outcome
            .shards
            .iter()
            .map(|s| s.store.stats().txn_aborts.get())
            .sum();
        assert_eq!(commits, report.completed_txns);
        assert_eq!(aborts, report.aborted_txns);
    }

    #[test]
    fn atomic_monolithic_reference_matches_single_client_run() {
        let config = ServeConfig::small(1);
        let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
        baseline.prefill().unwrap();
        let mut mono = baseline.fork();
        let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let spec = LoadSpec::closed(1, 12).with_seed(7).atomic(0.25);
        let report = run_inproc(&front.handle(), &spec);
        let outcome = front.shutdown();
        let mono_report = run_monolithic(&mut mono, &spec);
        assert_eq!(report.completed_txns, mono_report.completed_txns);
        assert_eq!(report.aborted_txns, mono_report.aborted_txns);
        assert!(mono_report.aborted_txns > 0, "0.25 abort draw over 12 txns");
        assert_eq!(report.completed_ops, mono_report.completed_ops);
        // The served store and the synchronous replay agree on the
        // simulated clock and every statistic — commit journaling and
        // rollback included.
        assert_eq!(outcome.shards[0].store.now(), mono.now());
        assert_eq!(outcome.shards[0].store.stats(), mono.stats());
    }

    #[test]
    fn ycsb_stream_is_deterministic_and_kv_shaped() {
        use envy_workload::ycsb::YcsbMix;
        let config = YcsbConfig::standard(YcsbMix::A, 500);
        let spec = LoadSpec::closed(2, 4).with_seed(21).with_ycsb(config);
        let plan = ShardPlan::new(4, 1 << 20);
        let mut a = TxnStream::new(&spec, plan, 1);
        let mut b = TxnStream::new(&spec, plan, 1);
        let mut other = TxnStream::new(&spec, plan, 0);
        let (mut ra, mut rb, mut rc) = (Vec::new(), Vec::new(), Vec::new());
        let mut differs = false;
        let (mut gets, mut puts) = (0u32, 0u32);
        for _ in 0..64 {
            a.next_requests(&mut ra);
            b.next_requests(&mut rb);
            other.next_requests(&mut rc);
            assert_eq!(ra, rb, "same client stream must repeat exactly");
            differs |= ra != rc;
            for req in &ra {
                match req {
                    Request::KvGet { shard, key } => {
                        assert_eq!(*shard as u64, key % 4);
                        gets += 1;
                    }
                    Request::KvPut {
                        shard, key, txn, ..
                    } => {
                        assert_eq!(*shard as u64, key % 4);
                        assert_eq!(*txn, 0, "non-atomic puts are standalone");
                        puts += 1;
                    }
                    other => panic!("mix A issues only gets and puts: {other:?}"),
                }
            }
        }
        assert!(differs, "distinct clients must get distinct streams");
        assert!(gets > 0 && puts > 0, "mix A draws both reads and updates");
    }

    #[test]
    fn ycsb_atomic_stream_brackets_every_op() {
        use envy_workload::ycsb::YcsbMix;
        let config = YcsbConfig::standard(YcsbMix::A, 500);
        let spec = LoadSpec::closed(1, 4)
            .with_seed(5)
            .with_ycsb(config)
            .atomic(0.5);
        let plan = ShardPlan::new(2, 1 << 20);
        let mut stream = TxnStream::new(&spec, plan, 0);
        let mut reqs = Vec::new();
        let (mut commits, mut aborts, mut rmws) = (0u32, 0u32, 0u32);
        for _ in 0..64 {
            stream.next_requests(&mut reqs);
            let Some(Request::TxnBegin { shard }) = reqs.first().cloned() else {
                panic!("atomic ycsb op must start with TxnBegin: {reqs:?}");
            };
            match reqs.last() {
                Some(Request::TxnCommit { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    commits += 1;
                }
                Some(Request::TxnAbort { shard: s, txn }) => {
                    assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    aborts += 1;
                }
                other => panic!("atomic ycsb op must end with commit/abort: {other:?}"),
            }
            let body = &reqs[1..reqs.len() - 1];
            for req in body {
                match req {
                    Request::KvGet { shard: s, .. } => assert_eq!(*s, shard),
                    Request::KvPut { shard: s, txn, .. } => {
                        assert_eq!((*s, *txn), (shard, TXN_PATCH));
                    }
                    other => panic!("unexpected ycsb body request {other:?}"),
                }
            }
            // Updates run as read-modify-write inside the transaction.
            if body.len() == 2 {
                assert!(matches!(body[0], Request::KvGet { .. }));
                assert!(matches!(body[1], Request::KvPut { .. }));
                rmws += 1;
            }
        }
        assert!(commits > 0 && aborts > 0, "0.5 must draw both outcomes");
        assert!(rmws > 0, "mix A must draw updates");
    }

    #[test]
    fn ycsb_closed_loop_serves_a_loaded_store() {
        use envy_workload::ycsb::YcsbMix;
        let config = YcsbConfig::standard(YcsbMix::B, 64);
        let store = ShardedStore::launch(ServeConfig::small(2)).unwrap();
        let handle = store.handle();
        for req in ycsb_load_requests(&config, 2) {
            handle.call(req).unwrap();
        }
        let spec = LoadSpec::closed(2, 16).with_seed(9).with_ycsb(config);
        let report = run_inproc(&handle, &spec);
        store.shutdown();
        assert_eq!(report.completed_txns, 32);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn ycsb_monolithic_reference_matches_single_client_run() {
        use envy_workload::ycsb::YcsbMix;
        // Workload D inserts as well as reads, so this anchors gets,
        // puts, and index growth — plus the atomic bracket.
        let kv = YcsbConfig::standard(YcsbMix::D, 64);
        let config = ServeConfig::small(1);
        let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
        baseline.prefill().unwrap();
        let mut mono = baseline.fork();
        let front = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let handle = front.handle();
        let load = ycsb_load_requests(&kv, 1);
        for req in &load {
            handle.call(req.clone()).unwrap();
        }
        for req in &load {
            apply(&mut mono, req).unwrap();
        }
        let spec = LoadSpec::closed(1, 24)
            .with_seed(7)
            .with_ycsb(kv)
            .atomic(0.25);
        let report = run_inproc(&handle, &spec);
        let outcome = front.shutdown();
        let mono_report = run_monolithic(&mut mono, &spec);
        assert_eq!(report.completed_txns, mono_report.completed_txns);
        assert_eq!(report.aborted_txns, mono_report.aborted_txns);
        assert!(mono_report.aborted_txns > 0, "0.25 abort draw over 24 ops");
        assert_eq!(report.completed_ops, mono_report.completed_ops);
        assert_eq!(outcome.shards[0].store.now(), mono.now());
        assert_eq!(outcome.shards[0].store.stats(), mono.stats());
    }

    /// A transport that plays a script: the i-th `submit` is given the
    /// i-th entry — the answer `recv` will hand back for it, or `Gone` —
    /// and every request the loop emits is kept for inspection.
    struct Scripted {
        script: VecDeque<Result<Answer, Gone>>,
        owed: VecDeque<Answer>,
        emitted: Vec<Request>,
    }

    impl Scripted {
        fn new(script: impl IntoIterator<Item = Result<Answer, Gone>>) -> Scripted {
            Scripted {
                script: script.into_iter().collect(),
                owed: VecDeque::new(),
                emitted: Vec::new(),
            }
        }
    }

    impl Transport for Scripted {
        fn submit(&mut self, req: &Request, _: &mut LoadReport) -> Result<(), Gone> {
            self.emitted.push(req.clone());
            let answer = self.script.pop_front().expect("script ran out")?;
            self.owed.push_back(answer);
            Ok(())
        }

        fn recv(&mut self, _: &mut LoadReport) -> Result<Answer, Gone> {
            self.owed.pop_front().ok_or(Gone)
        }
    }

    /// Every counter of `got` equals `want`'s (timings aside).
    fn assert_counters(got: &LoadReport, want: LoadReport) {
        let counters = |r: &LoadReport| {
            [
                ("completed_txns", r.completed_txns),
                ("aborted_txns", r.aborted_txns),
                ("txn_conflicts", r.txn_conflicts),
                ("txn_conflict_refusals", r.txn_conflict_refusals),
                ("txn_conflict_retries", r.txn_conflict_retries),
                ("completed_ops", r.completed_ops),
                ("busy_retries", r.busy_retries),
                ("errors", r.errors),
            ]
        };
        assert_eq!(counters(got), counters(&want));
    }

    /// One atomic transaction as the stream generates it — begin, a
    /// read, a transactional write, `tail` — under the id `txn`.
    fn txn_reqs(txn: u64, commit: bool) -> Vec<Request> {
        let (shard, bytes) = (0, vec![1; 8]);
        vec![
            Request::TxnBegin { shard },
            Request::Read { addr: 0, len: 8 },
            Request::TxnWrite {
                addr: 8,
                bytes,
                txn,
            },
            if commit {
                Request::TxnCommit { shard, txn }
            } else {
                Request::TxnAbort { shard, txn }
            },
        ]
    }

    /// Run the generated (unpatched, committing) transaction over a
    /// script; hand back what the loop counted and emitted.
    fn run_scripted_txn(
        script: impl IntoIterator<Item = Result<Answer, Gone>>,
    ) -> (LoadReport, Vec<Request>) {
        let mut transport = Scripted::new(script);
        let mut report = LoadReport::default();
        let reqs = txn_reqs(TXN_PATCH, true);
        atomic_txn(&mut transport, &reqs, &mut report, &mut Backoff::new(1))
            .expect("the script never goes away");
        assert!(transport.script.is_empty(), "the whole script was played");
        (report, transport.emitted)
    }

    const DATA: Result<Answer, Gone> = Ok(Ok(Reply::Data(Vec::new())));
    const DONE: Result<Answer, Gone> = Ok(Ok(Reply::Done { latency: Ns::ZERO }));

    #[test]
    fn txn_busy_on_begin_backs_off_and_begins_again() {
        let (report, emitted) = run_scripted_txn([
            Ok(Err(ServeError::TxnBusy)),
            Ok(Ok(Reply::TxnStarted { txn: 7 })),
            DATA,
            DONE,
            Ok(Ok(Reply::Committed { txn: 7 })),
        ]);
        let mut expected = txn_reqs(7, true);
        expected.insert(0, Request::TxnBegin { shard: 0 });
        assert_eq!(emitted, expected);
        assert_counters(
            &report,
            LoadReport {
                txn_conflicts: 1,
                completed_ops: 4,
                completed_txns: 1,
                ..LoadReport::default()
            },
        );
    }

    #[test]
    fn conflict_in_the_body_aborts_and_retries_the_whole_txn() {
        let (report, emitted) = run_scripted_txn([
            Ok(Ok(Reply::TxnStarted { txn: 7 })),
            DATA,
            Ok(Err(ServeError::TxnConflict)),
            Ok(Ok(Reply::Aborted { txn: 7 })),
            Ok(Ok(Reply::TxnStarted { txn: 9 })),
            DATA,
            DONE,
            Ok(Ok(Reply::Committed { txn: 9 })),
        ]);
        // The commit the stream asked for went out as an abort, and the
        // retry ran under the new id.
        assert_eq!(emitted, [txn_reqs(7, false), txn_reqs(9, true)].concat());
        // The forced abort is retry bookkeeping, not an aborted txn.
        assert_counters(
            &report,
            LoadReport {
                txn_conflict_refusals: 1,
                txn_conflict_retries: 1,
                completed_ops: 7,
                completed_txns: 1,
                ..LoadReport::default()
            },
        );
    }

    #[test]
    fn expired_body_access_aborts_the_txn() {
        let (report, emitted) = run_scripted_txn([
            Ok(Ok(Reply::TxnStarted { txn: 7 })),
            Ok(Err(ServeError::DeadlineExceeded)),
            DONE,
            Ok(Ok(Reply::Aborted { txn: 7 })),
        ]);
        assert_eq!(emitted, txn_reqs(7, false));
        assert_counters(
            &report,
            LoadReport {
                errors: 1,
                aborted_txns: 1,
                completed_ops: 3,
                ..LoadReport::default()
            },
        );
    }

    #[test]
    fn retry_cap_turns_a_livelocked_txn_into_one_error() {
        let attempt = |_| {
            [
                Ok(Ok(Reply::TxnStarted { txn: 7 })),
                DATA,
                Ok(Err(ServeError::TxnConflict)),
                Ok(Ok(Reply::Aborted { txn: 7 })),
            ]
        };
        let cap = u64::from(TXN_RETRY_CAP);
        let (report, emitted) = run_scripted_txn((0..cap).flat_map(attempt));
        assert_eq!(emitted.len() as u64, 4 * cap);
        assert_counters(
            &report,
            LoadReport {
                txn_conflict_refusals: cap,
                txn_conflict_retries: cap,
                completed_ops: 3 * cap,
                errors: 1,
                ..LoadReport::default()
            },
        );
    }

    /// The transport going away mid-batch — at a submit, or as a
    /// `ShuttingDown` answer — ends the client, but not before every
    /// answer it is still owed has been awaited and counted.
    #[test]
    fn gone_mid_batch_counts_what_is_owed_then_stops() {
        let spec = LoadSpec::closed(1, 5);
        let plan = ShardPlan::new(1, 1 << 20);
        let mut refused = Scripted::new([DATA, DONE, Err(Gone)]);
        let report = run_client(&mut refused, &spec, plan, 0, Instant::now());
        assert_eq!(refused.emitted.len(), 3, "nothing follows the refusal");
        assert_counters(
            &report,
            LoadReport {
                completed_ops: 2,
                ..LoadReport::default()
            },
        );
        assert_eq!(report.txn_latency.count(), 0);

        let shutting_down = Ok(Err(ServeError::ShuttingDown));
        let mut told = Scripted::new([DATA, shutting_down, DATA, DONE, DATA, DONE]);
        let report = run_client(&mut told, &spec, plan, 0, Instant::now());
        assert_eq!(told.emitted.len(), 6, "the batch in hand, no second one");
        assert_counters(
            &report,
            LoadReport {
                completed_ops: 5,
                ..LoadReport::default()
            },
        );
    }

    /// A begin refused with anything but `TxnBusy` (here: a poisoned
    /// shard's `Store` error) ends that transaction as one error, and it
    /// still counts toward the client's target: three transactions are
    /// drawn, not one per refusal until the server goes away.
    #[test]
    fn refused_begins_count_toward_the_txn_target() {
        let spec = LoadSpec::closed(1, 3).atomic(0.0);
        let plan = ShardPlan::new(1, 1 << 20);
        let poisoned = (0..10).map(|_| Ok(Err(ServeError::Store("poisoned".into()))));
        let mut refused = Scripted::new(poisoned.chain([Err(Gone)]));
        let report = run_client(&mut refused, &spec, plan, 0, Instant::now());
        assert_eq!(refused.emitted, vec![Request::TxnBegin { shard: 0 }; 3]);
        assert_counters(
            &report,
            LoadReport {
                errors: 3,
                ..LoadReport::default()
            },
        );
    }

    /// `Direct`, except that the `nth` answer is replaced by an error —
    /// the access ran, the client is told it did not.
    struct FailNth<'a> {
        inner: Direct<'a>,
        nth: usize,
    }

    impl Transport for FailNth<'_> {
        fn submit(&mut self, req: &Request, report: &mut LoadReport) -> Result<(), Gone> {
            self.inner.submit(req, report)
        }

        fn recv(&mut self, report: &mut LoadReport) -> Result<Answer, Gone> {
            let answer = self.inner.recv(report)?;
            self.nth = self.nth.wrapping_sub(1);
            Ok(if self.nth == 0 {
                Err(ServeError::Store("injected".into()))
            } else {
                answer
            })
        }
    }

    /// The monolithic reference obeys the served rule: a transaction
    /// with a failed body access ends rolled back, never committed.
    #[test]
    fn direct_txn_with_a_failed_access_rolls_back() {
        let mut store = EnvyStore::new(ServeConfig::small(1).store).unwrap();
        store.prefill().unwrap();
        let plan = ShardPlan::new(1, store.size());
        // One transaction whose stream says "commit".
        let spec = LoadSpec::closed(1, 1).atomic(0.0);
        let answers = VecDeque::new();
        let mut failing = FailNth {
            inner: Direct {
                store: &mut store,
                answers,
            },
            // Answer 1 is the begin's; 2 is the first body access.
            nth: 2,
        };
        let report = run_client(&mut failing, &spec, plan, 0, Instant::now());
        assert_eq!((report.completed_txns, report.aborted_txns), (0, 1));
        assert_eq!(report.errors, 1);
        assert_eq!(store.stats().txn_aborts.get(), 1);
        assert_eq!(store.stats().txn_commits.get(), 0);
        assert!(store.engine().open_txns().is_empty());
    }

    #[test]
    fn open_loop_clients_spread_their_starts_over_one_interval() {
        // 4 clients at 1 000 tps: each starts one every 4 ms, 1 ms apart.
        let spec = LoadSpec::closed(4, 1).open(1_000);
        let started = Instant::now() + Duration::from_secs(60);
        let offsets = [0, 1, 2, 3].map(|c| ClientLoop::new(&spec, c, started).next_start - started);
        assert_eq!(offsets, [0, 1, 2, 3].map(Duration::from_millis));
    }

    #[test]
    fn open_loop_paces_scheduled_starts() {
        let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
        // 1 client at 200 tps → 5 ms gap; 4 txns ≥ 15 ms of pacing.
        let spec = LoadSpec::closed(1, 4).open(200);
        let t0 = Instant::now();
        let report = run_inproc(&store.handle(), &spec);
        store.shutdown();
        assert_eq!(report.completed_txns, 4);
        assert!(
            t0.elapsed() >= Duration::from_millis(15),
            "open loop must pace starts, ran in {:?}",
            t0.elapsed()
        );
    }

    /// Digest of every request each mix generates: 2 clients × 500
    /// transactions, plain and atomic, hashed over their `Debug` form
    /// (FNV-1a). Every served digest, `anchor:` line and wire byte
    /// downstream is a function of these streams, so a change to how a
    /// stream draws — an RNG call added, dropped or reordered, a skew
    /// constant moved — fails here first.
    const GOLDEN_STREAMS: u64 = 0x44d2_acc1_9bcd_29ad;

    #[test]
    fn generated_streams_match_golden() {
        use envy_workload::ycsb::YcsbMix;
        let ycsb = |mix| LoadSpec::closed(2, 500).with_ycsb(YcsbConfig::standard(mix, 1_000));
        let mixes = [
            ("tpca", LoadSpec::closed(2, 500), 16 << 20),
            ("synthetic", LoadSpec::closed(2, 500), 1 << 20),
            (
                "read_mostly",
                LoadSpec::closed(2, 500).read_mostly(),
                1 << 20,
            ),
            ("ycsb_a", ycsb(YcsbMix::A), 1 << 20),
            ("ycsb_e", ycsb(YcsbMix::E), 1 << 20),
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut reqs = Vec::new();
        for (name, spec, slice) in mixes {
            for spec in [spec.clone(), spec.atomic(0.2)] {
                let plan = ShardPlan::new(2, slice);
                for client in 0..spec.clients {
                    let mut stream = TxnStream::new(&spec, plan, client);
                    match name {
                        "tpca" => assert!(matches!(stream.mix, Mix::Tpca(..))),
                        "synthetic" => assert!(matches!(stream.mix, Mix::Synthetic { .. })),
                        _ => {}
                    }
                    for _ in 0..spec.txns_per_client {
                        stream.next_requests(&mut reqs);
                        for req in &reqs {
                            for b in format!("{req:?}").bytes() {
                                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(h, GOLDEN_STREAMS, "generated streams drifted: {h:#018x}");
    }
}
