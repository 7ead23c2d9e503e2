//! The five workloads: how each system is built, what one round of it
//! does, and how its outputs are checked.
//!
//! Every system runs inside this process and is driven only through the
//! crates' public functions. Each owns its client loop (it does not call
//! `envy_server::loadgen`) and keeps a fork of its pre-run store, on which
//! [`System::finish`] replays the very same request sequence by direct
//! `apply` to check replies, final contents and controller statistics.

use crate::trace::{Span, Spans};
use envy_core::{EnvyConfig, EnvyStats, EnvyStore};
use envy_server::proto::{WireOutcome, WireResponse};
use envy_server::{
    serve_with, shard::apply, Client, Listener, NetConfig, NetDriver, ReadPath, Reply, Request,
    Response, ServeConfig, ServerHandle, ShardHandle, ShardedStore,
};
use envy_sim::{Exponential, Ns, Rng};
use envy_workload::{
    tpca::TraceAccess, AnalyticTpca, TpcaScale, Transaction, YcsbConfig, YcsbMix, YcsbOp,
    YcsbStream,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Instant;

/// Workload names, in the order reports list them.
pub const WORKLOADS: [&str; 5] = [
    "tpca_sim",
    "kv_read_pipe",
    "kv_update_pipe",
    "kv_rtt",
    "txn_tpca",
];

/// Requests in flight per batch of the `_pipe` workloads.
pub const PIPE_DEPTH: u64 = 16;
/// Offered TPC-A rate of `tpca_sim`, above the array's saturation point
/// (≈ 65–72 k txn/s), so `sim_tps` is the saturated throughput.
const SIM_OFFERED_TPS: f64 = 100_000.0;
/// Share of `txn_tpca` transactions that end in `TxnAbort`.
const TXN_ABORT_FRACTION: f64 = 0.05;
const HISTORY_RECORD: u64 = 16;

/// Array geometries (banks, segments, pages per segment, page bytes) and
/// KV record count. [`Shape::FULL`] is what the benchmark measures;
/// [`Shape::SMALL`] keeps the crate's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub sim: [u32; 4],
    pub txn: [u32; 4],
    pub kv: [u32; 4],
    pub kv_records: u64,
}

impl Shape {
    /// `tpca_sim`: the 256 MB scaled timing array; `txn_tpca`: the
    /// `ServeConfig::scaled` shard; KV: 16 MiB of Flash behind a 256 KiB
    /// write buffer holding ≈ 2 MB of values (8× the buffer).
    pub const FULL: Shape = Shape {
        sim: [8, 128, 8_192, 256],
        txn: [8, 64, 2_048, 256],
        kv: [4, 64, 1_024, 256],
        kv_records: 20_000,
    };
    #[cfg(test)]
    pub const SMALL: Shape = Shape {
        sim: [8, 64, 1_024, 256],
        txn: [8, 64, 1_024, 256],
        kv: [4, 32, 256, 256],
        kv_records: 2_000,
    };
}

/// State-only timing array with a 64-bit host bus and the erase time
/// scaled with the segment size, at 0.8 utilisation — the shape of the
/// harness's `timed_system_for(false, 0.8)`, restated here so a harness
/// change cannot move the benchmark.
fn timing_config(g: [u32; 4]) -> EnvyConfig {
    let mut c = EnvyConfig::scaled(g[0], g[1], g[2], g[3]).with_store_data(false);
    c.timings.erase = Ns::from_nanos(50_000_000u64 * g[2] as u64 / 65_536);
    c.word_bytes = 8;
    c.with_utilization(0.8)
}

/// One shard over `store`: queue of 1 024, dispatch batches of up to 64,
/// reads on the worker through the timing model.
fn serve_config(store: EnvyConfig) -> ServeConfig {
    let mut config = ServeConfig::small(1);
    config.store = store;
    config.queue_capacity = 1_024;
    config.batch_max = 64;
    config.read_path = ReadPath::Timed;
    config
}

/// The serving configuration of the KV workloads: an array that stores
/// real payload bytes (the KV index and records live in it).
pub fn kv_serve_config(shape: &Shape) -> ServeConfig {
    let g = shape.kv;
    serve_config(EnvyConfig::scaled(g[0], g[1], g[2], g[3]).with_utilization(0.8))
}

/// The TPC-A database scaled to fill the timing array of geometry `g`.
pub fn tpca_scale(g: [u32; 4]) -> TpcaScale {
    TpcaScale::fit_bytes(timing_config(g).logical_bytes())
}

/// The timing array of geometry `g`, prefilled and churned with account
/// overwrites, and the TPC-A driver over it.
pub fn timing_system(g: [u32; 4]) -> (EnvyStore, AnalyticTpca) {
    let config = timing_config(g);
    let driver = AnalyticTpca::new(tpca_scale(g));
    assert!(
        driver.layout().total_bytes <= config.logical_bytes(),
        "the smallest TPC-A database does not fit geometry {g:?}"
    );
    let mut store = EnvyStore::new(config).expect("config is valid");
    let accounts = driver.layout().scale.accounts();
    prefill_and_churn(&mut store, |id| driver.layout().account_addr(id), accounts);
    (store, driver)
}

/// Prefill, then overwrite uniformly drawn 8-byte slots (untimed) until
/// the initial free space has been consumed twice: the measured rounds
/// run at cleaning steady state, not on a freshly formatted array. The
/// churn is the same for every `--seed`: the seed chooses the requests,
/// not the state of the array they meet.
fn prefill_and_churn(store: &mut EnvyStore, slot_addr: impl Fn(u64) -> u64, slots: u64) {
    store.prefill().expect("prefill fits");
    let total = store.config().geometry.total_pages();
    let free = total - store.config().logical_pages;
    let mut rng = Rng::seed_from(0xC0FFEE);
    for _ in 0..free * 2 {
        let addr = slot_addr(rng.below(slots));
        store.write(addr, &[0u8; 8]).expect("churn write");
    }
}

// ---------------------------------------------------------------------
// Counters and digests
// ---------------------------------------------------------------------

/// The controller counters the simulated-domain metrics are made of,
/// with the store's simulated clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sim_ns: u64,
    pub host_writes: u64,
    pub sram_write_hits: u64,
    pub pages_flushed: u64,
    pub clean_programs: u64,
    pub wear_programs: u64,
    pub shadow_programs: u64,
    pub cleans: u64,
    pub erases: u64,
    pub suspensions: u64,
}

impl Counts {
    pub fn of(store: &EnvyStore) -> Counts {
        let s = store.stats();
        Counts {
            sim_ns: store.now().as_nanos(),
            host_writes: s.host_writes.get(),
            sram_write_hits: s.sram_write_hits.get(),
            pages_flushed: s.pages_flushed.get(),
            clean_programs: s.clean_programs.get(),
            wear_programs: s.wear_programs.get(),
            shadow_programs: s.shadow_programs.get(),
            cleans: s.cleans.get(),
            erases: s.erases.get(),
            suspensions: s.suspensions.get(),
        }
    }

    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            sim_ns: self.sim_ns - earlier.sim_ns,
            host_writes: self.host_writes - earlier.host_writes,
            sram_write_hits: self.sram_write_hits - earlier.sram_write_hits,
            pages_flushed: self.pages_flushed - earlier.pages_flushed,
            clean_programs: self.clean_programs - earlier.clean_programs,
            wear_programs: self.wear_programs - earlier.wear_programs,
            shadow_programs: self.shadow_programs - earlier.shadow_programs,
            cleans: self.cleans - earlier.cleans,
            erases: self.erases - earlier.erases,
            suspensions: self.suspensions - earlier.suspensions,
        }
    }

    /// Every Flash page programmed: buffer flushes, cleaner copies
    /// (which already include relocated transaction shadows) and
    /// wear-levelling swaps.
    pub fn flash_programs(&self) -> u64 {
        self.pages_flushed + self.clean_programs + self.wear_programs
    }
}

/// FNV-1a, the repo's dependency-free digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn reply(&mut self, reply: &Reply) {
        match reply {
            Reply::Data(d) => self.bytes(d),
            Reply::Done { latency } => self.word(latency.as_nanos()),
            Reply::KvValue(Some(v)) => self.bytes(v),
            Reply::KvValue(None) => self.word(0),
            Reply::TxnStarted { txn } | Reply::Committed { txn } | Reply::Aborted { txn } => {
                self.word(*txn)
            }
            Reply::KvPutDone | Reply::Flushed | Reply::Pong => self.word(1),
            Reply::KvDeleted { existed } => self.word(*existed as u64),
            Reply::KvRange(items) => {
                for (k, v) in items {
                    self.word(*k);
                    self.bytes(v);
                }
            }
        }
    }
}

fn contents_digest(store: &mut EnvyStore) -> u64 {
    let mut buf = vec![0u8; store.size() as usize];
    store.read(0, &mut buf).expect("read whole array");
    let mut h = Fnv::new();
    h.bytes(&buf);
    h.0
}

/// The status and length a request's reply must have, noted before the
/// request is handed over so the loops need not keep a copy of it.
#[derive(Debug, Clone, Copy)]
enum Expect {
    KvValue(usize),
    KvPutDone,
    Data(usize),
    Done,
}

impl Expect {
    fn of(req: &Request, value_len: usize) -> Expect {
        match req {
            Request::KvGet { .. } => Expect::KvValue(value_len),
            Request::KvPut { .. } => Expect::KvPutDone,
            Request::Read { len, .. } => Expect::Data(*len as usize),
            _ => Expect::Done,
        }
    }

    fn met_by(self, reply: &Reply) -> bool {
        match (self, reply) {
            (Expect::KvValue(len), Reply::KvValue(Some(v))) => v.len() == len,
            (Expect::KvPutDone, Reply::KvPutDone) => true,
            (Expect::Data(len), Reply::Data(d)) => d.len() == len,
            (Expect::Done, Reply::Done { .. }) => true,
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------
// The system interface
// ---------------------------------------------------------------------

/// What [`System::finish`] found.
#[derive(Debug)]
pub struct Finish {
    /// Every mismatch between the served run and its replay; empty when
    /// the outputs are correct.
    pub problems: Vec<String>,
    /// Digest of the digested round's reply stream, as served.
    pub reply_digest: Option<u64>,
    /// Counters after each round, warm-up included.
    pub marks: Vec<Counts>,
    /// Final controller statistics of the measured store.
    pub stats: EnvyStats,
    /// Requests served and dispatch batches drained by the shard worker.
    pub served_batches: Option<(u64, u64)>,
}

impl Finish {
    /// Counter deltas over every round after the warm-up (round 0).
    pub fn window(&self) -> Counts {
        self.marks[self.marks.len() - 1].since(&self.marks[0])
    }
}

/// One built, connected, ready-to-measure system.
pub trait System {
    /// Run `ops` operations, pushing one client-observed latency (ns)
    /// per operation; returns how many failed. With `digest` the round's
    /// reply stream is folded into a digest that `finish` compares with
    /// the replay's.
    fn round(&mut self, ops: u64, latencies: &mut Vec<u32>, digest: bool, spans: &mut Spans)
        -> u64;

    /// Stop the system and check everything it produced.
    fn finish(self: Box<Self>) -> Finish;
}

/// The YCSB mix and pipeline depth of a KV workload.
fn kv_mix(workload: &str) -> Option<(YcsbMix, u64)> {
    match workload {
        "kv_read_pipe" => Some((YcsbMix::C, PIPE_DEPTH)),
        "kv_update_pipe" => Some((YcsbMix::A, PIPE_DEPTH)),
        "kv_rtt" => Some((YcsbMix::B, 1)),
        _ => None,
    }
}

pub fn build(workload: &str, seed: u64, shape: &Shape) -> Box<dyn System> {
    match (workload, kv_mix(workload)) {
        (_, Some((mix, depth))) => Box::new(KvSystem::build(seed, shape, mix, depth)),
        ("tpca_sim", _) => Box::new(SimSystem::build(seed, shape)),
        ("txn_tpca", _) => Box::new(TxnSystem::build(seed, shape)),
        (other, _) => panic!("unknown workload {other}"),
    }
}

/// The rounds run so far and the digest of the one that was digested.
#[derive(Debug, Default)]
struct History {
    rounds: Vec<u64>,
    digest: Option<(usize, u64)>,
}

impl History {
    fn begin_round(&mut self, ops: u64, digest: bool) -> Option<Fnv> {
        self.rounds.push(ops);
        digest.then(Fnv::new)
    }

    fn end_round(&mut self, digest: Option<Fnv>) {
        if let Some(h) = digest {
            self.digest = Some((self.rounds.len() - 1, h.0));
        }
    }

    /// The replay's digest for round `index`, if that round was digested.
    fn wants(&self, index: usize) -> Option<Fnv> {
        matches!(self.digest, Some((i, _)) if i == index).then(Fnv::new)
    }

    fn check(&self, index: usize, replayed: Option<Fnv>, problems: &mut Vec<String>) {
        if let (Some(h), Some((i, served))) = (replayed, self.digest) {
            if i == index && h.0 != served {
                problems.push(format!(
                    "round {index}: reply digest {served:#x} differs from the replay's {:#x}",
                    h.0
                ));
            }
        }
    }
}

/// Compare a served store with the replayed one: clock, every statistic,
/// contents (when the array stores payloads) and both invariant checks.
fn compare_stores(served: &mut EnvyStore, replay: &mut EnvyStore, problems: &mut Vec<String>) {
    if served.now() != replay.now() {
        problems.push(format!(
            "simulated clock {} differs from the replay's {}",
            served.now(),
            replay.now()
        ));
    }
    if served.stats() != replay.stats() {
        problems.push("controller statistics differ from the replay's".to_string());
    }
    for (name, store) in [("served", &*served), ("replayed", &*replay)] {
        if let Err(e) = store.check_invariants() {
            problems.push(format!("{name} store invariant: {e}"));
        }
    }
    if served.config().store_data && contents_digest(served) != contents_digest(replay) {
        problems.push("store contents differ from the replay's".to_string());
    }
}

// ---------------------------------------------------------------------
// tpca_sim: the timing array, no server
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SimGen {
    rng: Rng,
    arrivals: Exponential,
    arrival: Ns,
}

impl SimGen {
    fn new(seed: u64) -> SimGen {
        SimGen {
            rng: Rng::seed_from(seed),
            arrivals: Exponential::with_rate_per_sec(SIM_OFFERED_TPS),
            arrival: Ns::ZERO,
        }
    }

    fn next(&mut self, scale: TpcaScale) -> (Ns, Transaction) {
        self.arrival += self.arrivals.sample(&mut self.rng);
        (self.arrival, Transaction::generate(scale, &mut self.rng))
    }
}

struct SimSystem {
    store: EnvyStore,
    driver: AnalyticTpca,
    gen: SimGen,
    replay: (EnvyStore, SimGen),
    history: History,
    marks: Vec<Counts>,
}

impl SimSystem {
    fn build(seed: u64, shape: &Shape) -> SimSystem {
        let (baseline, driver) = timing_system(shape.sim);
        let gen = SimGen::new(seed);
        SimSystem {
            store: baseline.fork(),
            replay: (baseline.fork(), gen.clone()),
            driver,
            gen,
            history: History::default(),
            marks: Vec::new(),
        }
    }
}

impl System for SimSystem {
    fn round(
        &mut self,
        ops: u64,
        latencies: &mut Vec<u32>,
        digest: bool,
        spans: &mut Spans,
    ) -> u64 {
        let mut h = self.history.begin_round(ops, digest);
        let scale = self.driver.layout().scale;
        let mut failed = 0;
        for _ in 0..ops {
            let op = spans.start();
            let (arrival, txn) = spans.time(Span::Generate, || self.gen.next(scale));
            let start = Instant::now();
            let done = spans.time(Span::Core, || {
                self.driver
                    .run_transaction_timed(&mut self.store, arrival, &txn)
            });
            latencies.push(start.elapsed().as_nanos() as u32);
            match done {
                Ok(t) => {
                    if let Some(h) = h.as_mut() {
                        h.word(t.as_nanos());
                    }
                }
                Err(_) => failed += 1,
            }
            spans.stop(Span::Op, op);
        }
        self.history.end_round(h);
        self.marks.push(Counts::of(&self.store));
        failed
    }

    fn finish(mut self: Box<Self>) -> Finish {
        let mut problems = Vec::new();
        // Replay up to and including the digested round on the fork: the
        // simulated domain must repeat exactly.
        let (store, gen) = &mut self.replay;
        let scale = self.driver.layout().scale;
        let upto = self.history.digest.map_or(0, |(i, _)| i + 1);
        for (i, &ops) in self.history.rounds[..upto].iter().enumerate() {
            let mut h = self.history.wants(i);
            for _ in 0..ops {
                let (arrival, txn) = gen.next(scale);
                match self.driver.run_transaction_timed(store, arrival, &txn) {
                    Ok(t) => {
                        if let Some(h) = h.as_mut() {
                            h.word(t.as_nanos());
                        }
                    }
                    Err(e) => problems.push(format!("replay: {e}")),
                }
            }
            self.history.check(i, h, &mut problems);
            if Counts::of(store) != self.marks[i] {
                problems.push(format!(
                    "round {i}: simulated counters differ from the replay's"
                ));
            }
        }
        if let Err(e) = self.store.check_invariants() {
            problems.push(format!("store invariant: {e}"));
        }
        Finish {
            problems,
            reply_digest: self.history.digest.map(|(_, d)| d),
            marks: self.marks,
            stats: self.store.stats().clone(),
            served_batches: None,
        }
    }
}

// ---------------------------------------------------------------------
// kv_*: YCSB over a Unix socket
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct KvGen {
    stream: YcsbStream,
    rng: Rng,
}

impl KvGen {
    fn new(ycsb: &YcsbConfig, seed: u64) -> KvGen {
        KvGen {
            stream: YcsbStream::new(ycsb, 0, 1),
            rng: Rng::seed_from(seed),
        }
    }

    fn next(&mut self) -> Request {
        match self.stream.next_op(&mut self.rng) {
            YcsbOp::Read { key } => Request::KvGet { shard: 0, key },
            YcsbOp::Update { key } => Request::KvPut {
                shard: 0,
                key,
                txn: 0,
                value: self.stream.config().value_for(key, self.stream.version()),
            },
            other => unreachable!("mixes A, B and C only read and update: {other:?}"),
        }
    }
}

/// A served KV store: everything the KV workloads (and the traced run's
/// net and shard probes) share.
pub struct KvServer {
    pub server: ServerHandle,
    pub client: Client,
    /// A fork of the store as it was when the server took it over.
    pub pristine: EnvyStore,
    pub ycsb: YcsbConfig,
}

static SOCKETS: AtomicU32 = AtomicU32::new(0);

impl KvServer {
    /// Build the KV store (prefill, churn, load `kv_records` records by
    /// direct `apply`), launch one shard over it, serve it with the epoll
    /// driver on a Unix socket in the working directory, and connect.
    pub fn launch(shape: &Shape, mix: YcsbMix) -> KvServer {
        let config = kv_serve_config(shape);
        let mut baseline = EnvyStore::new(config.store.clone()).expect("config is valid");
        let slots = baseline.size() / 8;
        prefill_and_churn(&mut baseline, |slot| slot * 8, slots);
        let ycsb = YcsbConfig::standard(mix, shape.kv_records);
        for key in 0..ycsb.records {
            let load = Request::KvPut {
                shard: 0,
                key,
                txn: 0,
                value: ycsb.value_for(key, 0),
            };
            apply(&mut baseline, &load).expect("load phase");
        }
        let store = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let path = format!(
            ".envy-benchmark-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        );
        let listener =
            Listener::bind_unix(&path).expect("bind unix socket in the working directory");
        let net = NetConfig {
            driver: NetDriver::Epoll,
            idle_timeout: None,
        };
        let server = serve_with(listener, store, net).expect("serve");
        let client = Client::connect_unix(&path).expect("connect");
        KvServer {
            server,
            client,
            pristine: baseline.fork(),
            ycsb,
        }
    }

    /// Stop the server; returns the served store, the shard worker's
    /// `(served, batches)` and the pristine fork.
    pub fn stop(self) -> (EnvyStore, (u64, u64), EnvyStore) {
        drop(self.client);
        let mut summary = self.server.shutdown();
        let shard = summary.outcome.shards.remove(0);
        (shard.store, (shard.served, shard.batches), self.pristine)
    }
}

struct KvSystem {
    kv: KvServer,
    depth: u64,
    gen: KvGen,
    gen0: KvGen,
    history: History,
    expect: Vec<Expect>,
}

impl KvSystem {
    fn build(seed: u64, shape: &Shape, mix: YcsbMix, depth: u64) -> KvSystem {
        let mut kv = KvServer::launch(shape, mix);
        kv.client.set_corked(depth > 1).expect("cork");
        let gen = KvGen::new(&kv.ycsb, seed);
        KvSystem {
            kv,
            depth,
            gen0: gen.clone(),
            gen,
            history: History::default(),
            expect: Vec::with_capacity(depth as usize),
        }
    }
}

impl System for KvSystem {
    fn round(
        &mut self,
        ops: u64,
        latencies: &mut Vec<u32>,
        digest: bool,
        spans: &mut Spans,
    ) -> u64 {
        let mut h = self.history.begin_round(ops, digest);
        let value_len = self.kv.ycsb.value_len;
        let corked = self.depth > 1;
        let client = &mut self.kv.client;
        let mut failed = 0;
        let mut left = ops;
        while left > 0 {
            let n = left.min(self.depth);
            left -= n;
            let op = spans.start();
            self.expect.clear();
            let mut first_id = 0;
            // Latency runs from the moment the op's bytes go to the
            // socket — the flush of its corked batch, or at depth 1 the
            // submit itself — to its reply decoded.
            let mut start = Instant::now();
            for i in 0..n {
                let req = spans.time(Span::Generate, || self.gen.next());
                self.expect.push(Expect::of(&req, value_len));
                if !corked {
                    start = Instant::now();
                }
                let id = spans
                    .time(Span::Submit, || client.submit(req, None))
                    .expect("submit");
                if i == 0 {
                    first_id = id;
                }
            }
            if corked {
                start = Instant::now();
                spans
                    .time(Span::Flush, || client.flush_submits())
                    .expect("flush");
            }
            for (i, expect) in self.expect.iter().enumerate() {
                let resp = spans.time(Span::Recv, || client.recv());
                latencies.push(start.elapsed().as_nanos() as u32);
                let ok = match resp {
                    Ok(WireResponse {
                        id,
                        outcome: WireOutcome::Reply(reply),
                        ..
                    }) if id == first_id + i as u64 => {
                        if let Some(h) = h.as_mut() {
                            h.reply(&reply);
                        }
                        expect.met_by(&reply)
                    }
                    _ => false,
                };
                failed += !ok as u64;
            }
            spans.stop(Span::Op, op);
        }
        self.history.end_round(h);
        failed
    }

    fn finish(self: Box<Self>) -> Finish {
        let KvSystem {
            kv,
            mut gen0,
            history,
            ..
        } = *self;
        let (mut served, served_batches, mut replay) = kv.stop();
        let mut problems = Vec::new();
        let mut marks = Vec::with_capacity(history.rounds.len());
        for (i, &ops) in history.rounds.iter().enumerate() {
            let mut h = history.wants(i);
            for _ in 0..ops {
                match apply(&mut replay, &gen0.next()) {
                    Ok(reply) => {
                        if let Some(h) = h.as_mut() {
                            h.reply(&reply);
                        }
                    }
                    Err(e) => problems.push(format!("replay: {e}")),
                }
            }
            history.check(i, h, &mut problems);
            marks.push(Counts::of(&replay));
        }
        let stats = served.stats().clone();
        compare_stores(&mut served, &mut replay, &mut problems);
        Finish {
            problems,
            reply_digest: history.digest.map(|(_, d)| d),
            marks,
            stats,
            served_batches: Some(served_batches),
        }
    }
}

// ---------------------------------------------------------------------
// txn_tpca: atomic TPC-A transactions through the shard queue, no socket
// ---------------------------------------------------------------------

/// One generated transaction: its access list, the fill byte of its
/// writes, its history append and whether it ends in an abort.
#[derive(Debug, Clone, Default)]
struct TxnPlan {
    accesses: Vec<TraceAccess>,
    fill: u8,
    history_addr: u64,
    history_fill: u8,
    abort: bool,
}

#[derive(Debug, Clone)]
struct TxnGen {
    driver: AnalyticTpca,
    rng: Rng,
    /// History ring in the slack past the database layout.
    history_base: u64,
    history_slots: u64,
    history_seq: u64,
}

impl TxnGen {
    fn next(&mut self, plan: &mut TxnPlan) {
        let txn = Transaction::generate(self.driver.layout().scale, &mut self.rng);
        plan.accesses.clear();
        self.driver.for_each_access(&txn, |a| plan.accesses.push(a));
        plan.fill = txn.account as u8;
        plan.history_addr =
            self.history_base + self.history_seq % self.history_slots * HISTORY_RECORD;
        self.history_seq += 1;
        plan.history_fill = (self.history_seq % 251) as u8;
        plan.abort = self.rng.chance(TXN_ABORT_FRACTION);
    }
}

impl TxnPlan {
    /// The transaction's body under id `txn`: reads as `Read`, writes as
    /// `TxnWrite`, then the 16-byte history `TxnWrite`.
    fn body(&self, txn: u64) -> impl Iterator<Item = Request> + '_ {
        let accesses = self.accesses.iter().map(move |a| {
            if a.write {
                Request::TxnWrite {
                    addr: a.addr,
                    bytes: vec![self.fill; a.len],
                    txn,
                }
            } else {
                Request::Read {
                    addr: a.addr,
                    len: a.len as u32,
                }
            }
        });
        accesses.chain(std::iter::once(Request::TxnWrite {
            addr: self.history_addr,
            bytes: vec![self.history_fill; HISTORY_RECORD as usize],
            txn,
        }))
    }

    fn end(&self, txn: u64) -> Request {
        if self.abort {
            Request::TxnAbort { shard: 0, txn }
        } else {
            Request::TxnCommit { shard: 0, txn }
        }
    }
}

struct TxnSystem {
    store: ShardedStore,
    handle: ShardHandle,
    tx: Sender<Response>,
    rx: Receiver<Response>,
    gen: TxnGen,
    replay: (EnvyStore, TxnGen),
    history: History,
    plan: TxnPlan,
    expect: Vec<Expect>,
}

impl TxnSystem {
    fn build(seed: u64, shape: &Shape) -> TxnSystem {
        let (baseline, driver) = timing_system(shape.txn);
        let config = serve_config(baseline.config().clone());
        let used = driver.layout().total_bytes;
        let history_slots = (baseline.size() - used) / HISTORY_RECORD;
        assert!(history_slots > 0, "no room for the history ring");
        let gen = TxnGen {
            driver,
            rng: Rng::seed_from(seed),
            history_base: used,
            history_slots,
            history_seq: 0,
        };
        // The replay store takes the same slot table and id sequence
        // `launch_from` gives a single shard.
        let mut replay = baseline.fork();
        replay.set_txn_slots(config.store.txn_slots);
        replay.seed_txn_ids(1, 1);
        let store = ShardedStore::launch_from(vec![baseline.fork()], &config);
        let (tx, rx) = mpsc::channel();
        TxnSystem {
            handle: store.handle(),
            store,
            tx,
            rx,
            replay: (replay, gen.clone()),
            gen,
            history: History::default(),
            plan: TxnPlan::default(),
            expect: Vec::new(),
        }
    }

    /// Submit one request and await its reply (begin, commit, abort).
    fn call(&mut self, req: Request, h: Option<&mut Fnv>, spans: &mut Spans) -> Option<Reply> {
        let id = spans
            .time(Span::Submit, || self.handle.submit(req, None, &self.tx))
            .ok()?;
        let resp = spans.time(Span::Recv, || self.rx.recv()).ok()?;
        let reply = (resp.id == id).then_some(resp.result.ok()).flatten()?;
        if let Some(h) = h {
            h.reply(&reply);
        }
        Some(reply)
    }

    /// One atomic transaction: `TxnBegin` awaited, the whole body put
    /// into the shard queue together, `TxnCommit`/`TxnAbort` awaited.
    /// `None` if any step failed or answered out of turn.
    fn transaction(
        &mut self,
        plan: &TxnPlan,
        mut h: Option<&mut Fnv>,
        spans: &mut Spans,
    ) -> Option<()> {
        let begin = Request::TxnBegin { shard: 0 };
        let Reply::TxnStarted { txn } = self.call(begin, h.as_deref_mut(), spans)? else {
            return None;
        };
        self.expect.clear();
        let mut first_id = 0;
        for req in plan.body(txn) {
            self.expect.push(Expect::of(&req, 0));
            let id = spans
                .time(Span::Submit, || self.handle.submit(req, None, &self.tx))
                .ok()?;
            if self.expect.len() == 1 {
                first_id = id;
            }
        }
        for (i, expect) in self.expect.iter().enumerate() {
            let resp = spans.time(Span::Recv, || self.rx.recv()).ok()?;
            let reply = resp.result.ok()?;
            if resp.id != first_id + i as u64 || !expect.met_by(&reply) {
                return None;
            }
            if let Some(h) = h.as_deref_mut() {
                h.reply(&reply);
            }
        }
        match (plan.abort, self.call(plan.end(txn), h, spans)?) {
            (false, Reply::Committed { txn: t }) | (true, Reply::Aborted { txn: t }) => {
                (t == txn).then_some(())
            }
            _ => None,
        }
    }
}

impl System for TxnSystem {
    fn round(
        &mut self,
        ops: u64,
        latencies: &mut Vec<u32>,
        digest: bool,
        spans: &mut Spans,
    ) -> u64 {
        let mut h = self.history.begin_round(ops, digest);
        let mut plan = std::mem::take(&mut self.plan);
        let mut failed = 0;
        for _ in 0..ops {
            let op = spans.start();
            spans.time(Span::Generate, || self.gen.next(&mut plan));
            let start = Instant::now();
            let ok = self.transaction(&plan, h.as_mut(), spans).is_some();
            latencies.push(start.elapsed().as_nanos() as u32);
            failed += !ok as u64;
            spans.stop(Span::Op, op);
        }
        self.plan = plan;
        self.history.end_round(h);
        failed
    }

    fn finish(self: Box<Self>) -> Finish {
        let TxnSystem {
            store,
            handle,
            replay: (mut replay, mut gen),
            history,
            ..
        } = *self;
        drop(handle);
        let mut outcome = store.shutdown();
        let shard = outcome.shards.remove(0);
        let mut served = shard.store;
        let mut problems = Vec::new();
        let mut marks = Vec::with_capacity(history.rounds.len());
        let mut plan = TxnPlan::default();
        for (i, &ops) in history.rounds.iter().enumerate() {
            let mut h = history.wants(i);
            for _ in 0..ops {
                gen.next(&mut plan);
                let mut step = |req: &Request| match apply(&mut replay, req) {
                    Ok(reply) => {
                        if let Some(h) = h.as_mut() {
                            h.reply(&reply);
                        }
                        Some(reply)
                    }
                    Err(e) => {
                        problems.push(format!("replay: {e}"));
                        None
                    }
                };
                let Some(Reply::TxnStarted { txn }) = step(&Request::TxnBegin { shard: 0 }) else {
                    continue;
                };
                for req in plan.body(txn) {
                    step(&req);
                }
                step(&plan.end(txn));
            }
            history.check(i, h, &mut problems);
            marks.push(Counts::of(&replay));
        }
        let stats = served.stats().clone();
        compare_stores(&mut served, &mut replay, &mut problems);
        Finish {
            problems,
            reply_digest: history.digest.map(|(_, d)| d),
            marks,
            stats,
            served_batches: Some((shard.served, shard.batches)),
        }
    }
}

/// The request stream a workload would issue, as a digest — what the
/// determinism tests compare across seeds.
#[cfg(test)]
pub fn stream_digest(workload: &str, seed: u64, shape: &Shape, ops: u64) -> u64 {
    let mut h = Fnv::new();
    match workload {
        "tpca_sim" => {
            let config = timing_config(shape.sim);
            let scale = TpcaScale::fit_bytes(config.logical_bytes());
            let mut gen = SimGen::new(seed);
            for _ in 0..ops {
                let (arrival, txn) = gen.next(scale);
                h.word(arrival.as_nanos());
                h.word(txn.account);
            }
        }
        _ => {
            let (mix, _) = kv_mix(workload).expect("a KV workload");
            let ycsb = YcsbConfig::standard(mix, shape.kv_records);
            let mut gen = KvGen::new(&ycsb, seed);
            for _ in 0..ops {
                let frame = envy_server::proto::encode_request(&envy_server::WireRequest {
                    id: 0,
                    deadline_us: 0,
                    body: envy_server::WireBody::Req(gen.next()),
                });
                h.bytes(&frame);
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shrunken run: warm-up, a digested round, one more round.
    fn small_run(workload: &str, seed: u64, ops: u64) -> (u64, Counts) {
        let mut sys = build(workload, seed, &Shape::SMALL);
        let mut latencies = Vec::new();
        let mut spans = Spans::default();
        let mut failed = 0;
        for round in 0..3 {
            failed += sys.round(ops, &mut latencies, round == 1, &mut spans);
        }
        assert_eq!(failed, 0, "{workload}: failed operations");
        assert_eq!(latencies.len() as u64, 3 * ops);
        let finish = sys.finish();
        assert_eq!(finish.problems, Vec::<String>::new(), "{workload}");
        (
            finish.reply_digest.expect("a digested round"),
            finish.window(),
        )
    }

    #[test]
    fn every_workload_agrees_with_its_direct_apply_replay() {
        for (workload, ops) in [("kv_read_pipe", 640), ("kv_rtt", 300), ("txn_tpca", 40)] {
            small_run(workload, 11, ops);
        }
    }

    #[test]
    fn the_same_seed_repeats_the_run_exactly() {
        for (workload, ops) in [("tpca_sim", 4_000), ("kv_update_pipe", 4_000)] {
            let stream = stream_digest(workload, 7, &Shape::SMALL, ops);
            assert_eq!(stream, stream_digest(workload, 7, &Shape::SMALL, ops));
            assert_ne!(stream, stream_digest(workload, 8, &Shape::SMALL, ops));

            // Identical replies and identical simulated-domain counters,
            // hence identical sim_tps, flash_programs_per_op and
            // sim_cleaning_cost.
            let (replies, window) = small_run(workload, 7, ops);
            assert_eq!((replies, window), small_run(workload, 7, ops), "{workload}");
            assert!(
                window.pages_flushed > 0,
                "{workload}: the window must flush"
            );
            let (other_replies, _) = small_run(workload, 8, ops);
            assert_ne!(
                replies, other_replies,
                "{workload}: a new seed must change the run"
            );
        }
    }
}
