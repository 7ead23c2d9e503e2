//! The micro table of the traced run: direct calls into each layer, timed
//! from outside, each entry bracketed by the machine-speed probe.
//!
//! Nested paths give a layer's self time by subtraction:
//! `net.kv_get_rtt_ns − shard.call_get_ns` is the net layer,
//! `shard.call_get_ns − shard.apply_get_ns` the queue and its wake-ups,
//! `shard.apply_get_ns − kv.get_envy_ns` `kv_open` and dispatch, and
//! `kv.get_envy_ns − kv.get_vec_ns` the controller under the KV store.

use crate::probe::quantile_sorted;
use crate::run::Probes;
use crate::workloads::{self, KvServer, Shape};
use envy_btree::BTree;
use envy_core::{EnvyStore, Memory, VecMemory};
use envy_heap::Arena;
use envy_kv::KvStore;
use envy_server::proto::{
    decode_request, decode_response, encode_request, encode_response_frame_into, FrameDecoder,
    WireOutcome, WireResponse,
};
use envy_server::{shard::apply, Reply, Request, ShardedStore, WireBody, WireRequest};
use envy_sim::{Exponential, Rng};
use envy_workload::{Transaction, YcsbMix, YcsbStream};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Calls timed per entry.
pub const CALLS: u64 = 200_000;
/// Requests of the idle-wake probe, sent 1 ms apart.
const IDLE_WAKES: u64 = 2_000;

struct Table<'a> {
    probes: &'a mut Probes,
    calls: u64,
    out: Vec<(&'static str, f64)>,
}

impl Table<'_> {
    /// Time `self.calls` invocations of `f`; record normalised ns per
    /// call.
    fn ns(&mut self, name: &'static str, mut f: impl FnMut(u64)) {
        let start = Instant::now();
        for i in 0..self.calls {
            f(i);
        }
        let ns = start.elapsed().as_nanos() as f64 / self.calls as f64;
        self.out.push((name, self.probes.close().time(ns)));
    }

    /// Time `f`, which reports the bytes it processed; record normalised
    /// MB/s.
    fn mb_per_s(&mut self, name: &'static str, f: impl FnOnce() -> u64) {
        let start = Instant::now();
        let bytes = f();
        let rate = bytes as f64 / 1e6 / start.elapsed().as_secs_f64();
        self.out.push((name, self.probes.close().rate(rate)));
    }
}

/// Scatter a counter over `0..n` (an odd multiplier permutes a
/// power-of-two range; the modulo folds the rest).
fn scatter(i: u64, n: u64) -> u64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) % n
}

pub fn table(seed: u64, calls: u64, probes: &mut Probes) -> Vec<(&'static str, f64)> {
    let shape = Shape::FULL;
    let mut t = Table {
        probes,
        calls,
        out: Vec::new(),
    };
    t.probes.take();
    generators(&mut t, seed, &shape);
    proto(&mut t);
    let kv = KvServer::launch(&shape, YcsbMix::C);
    let records = kv.ycsb.records;
    let value = kv.ycsb.value_for(1, 1);
    served(&mut t, kv, &shape, &value, records);
    structures(&mut t, &value, records);
    timing_store(&mut t, seed, &shape);
    t.out
}

fn generators(t: &mut Table, seed: u64, shape: &Shape) {
    let ycsb = envy_workload::YcsbConfig::standard(YcsbMix::C, shape.kv_records);
    let mut stream = YcsbStream::new(&ycsb, 0, 1);
    let mut rng = Rng::seed_from(seed);
    t.ns("workload.ycsb_next_ns", |_| {
        black_box(stream.next_op(&mut rng));
    });
    let scale = workloads::tpca_scale(shape.txn);
    let arrivals = Exponential::with_rate_per_sec(100_000.0);
    t.ns("workload.tpca_gen_ns", |_| {
        black_box(arrivals.sample(&mut rng));
        black_box(Transaction::generate(scale, &mut rng));
    });
}

fn proto(t: &mut Table) {
    let request = |i: u64| WireRequest {
        id: i,
        deadline_us: 0,
        body: WireBody::Req(Request::KvGet { shard: 0, key: i }),
    };
    t.ns("proto.encode_req_ns", |i| {
        black_box(encode_request(&request(i)));
    });
    let frame = encode_request(&request(7));
    t.ns("proto.decode_req_ns", |_| {
        black_box(decode_request(black_box(&frame)).expect("decodes"));
    });
    let response = WireResponse {
        id: 7,
        shard: 0,
        outcome: WireOutcome::Reply(Reply::KvValue(Some(vec![7; 100]))),
    };
    let mut buf = Vec::new();
    t.ns("proto.encode_resp_ns", |_| {
        black_box(encode_response_frame_into(&mut buf, black_box(&response)));
    });
    let payload = buf[4..].to_vec();
    t.ns("proto.decode_resp_ns", |_| {
        black_box(decode_response(black_box(&payload)).expect("decodes"));
    });

    // A stream of whole response frames, fed to the incremental decoder
    // in 64 KiB chunks and then one byte at a time.
    let mut stream = Vec::new();
    while stream.len() < 1 << 20 {
        stream.extend_from_slice(&buf);
    }
    let frames_per_pass = (stream.len() / buf.len()) as u64;
    let feed = |chunk: usize, passes: u64| {
        let mut decoder = FrameDecoder::new();
        let mut frames = 0u64;
        for _ in 0..passes {
            for piece in stream.chunks(chunk) {
                decoder.push(piece);
                while let Some(p) = decoder.next_frame().expect("frames fit") {
                    black_box(p);
                    frames += 1;
                }
            }
        }
        assert_eq!(frames, passes * frames_per_pass);
        passes * stream.len() as u64
    };
    let calls = t.calls;
    t.mb_per_s("proto.decoder_64k_mb_s", || {
        feed(64 << 10, calls.div_ceil(frames_per_pass))
    });
    t.mb_per_s("proto.decoder_1b_mb_s", || {
        feed(1, calls.div_ceil(stream.len() as u64))
    });
}

/// Entries that need a served store: the socket path, the shard queue
/// alone, direct `apply`, and the KV store and controller beneath it.
fn served(t: &mut Table, mut kv: KvServer, shape: &Shape, value: &[u8], records: u64) {
    t.ns("net.ping_rtt_ns", |_| {
        kv.client.call(Request::Ping { shard: 0 }).expect("ping");
    });
    t.ns("net.kv_get_rtt_ns", |i| {
        let key = scatter(i, records);
        black_box(
            kv.client
                .call(Request::KvGet { shard: 0, key })
                .expect("get"),
        );
    });
    // Unloaded latency: every thread on the path has gone to sleep
    // before each request.
    let wakes = IDLE_WAKES * t.calls / CALLS;
    let mut rtt = Vec::with_capacity(wakes as usize);
    for _ in 0..wakes {
        std::thread::sleep(Duration::from_millis(1));
        let start = Instant::now();
        kv.client.call(Request::Ping { shard: 0 }).expect("ping");
        rtt.push(start.elapsed().as_nanos() as u32);
    }
    rtt.sort_unstable();
    let p50_us = quantile_sorted(&rtt, 0.5) as f64 / 1e3;
    t.out
        .push(("net.idle_wake_p50_us", t.probes.close().time(p50_us)));
    let (_, _, pristine) = kv.stop();

    let inproc =
        ShardedStore::launch_from(vec![pristine.fork()], &workloads::kv_serve_config(shape));
    let handle = inproc.handle();
    let (tx, rx) = mpsc::channel();
    t.ns("shard.ping_rtt_ns", |_| {
        handle
            .submit(Request::Ping { shard: 0 }, None, &tx)
            .expect("admitted");
        black_box(rx.recv().expect("completion"));
    });
    t.ns("shard.call_get_ns", |i| {
        let key = scatter(i, records);
        handle
            .submit(Request::KvGet { shard: 0, key }, None, &tx)
            .expect("admitted");
        black_box(rx.recv().expect("completion"));
    });
    drop(handle);
    inproc.shutdown();

    let mut store = pristine.fork();
    t.ns("shard.apply_get_ns", |i| {
        let key = scatter(i, records);
        black_box(apply(&mut store, &Request::KvGet { shard: 0, key }).expect("get"));
    });
    t.ns("shard.apply_put_ns", |i| {
        let put = Request::KvPut {
            shard: 0,
            key: scatter(i, records),
            txn: 0,
            value: value.to_vec(),
        };
        black_box(apply(&mut store, &put).expect("put"));
    });
    t.ns("kv.open_ns", |_| {
        black_box(KvStore::open(&mut store, 0).expect("open"));
    });
    let mut handle = KvStore::open(&mut store, 0).expect("open");
    kv_entries(
        t,
        ["kv.get_envy_ns", "kv.put_envy_ns"],
        &mut handle,
        &mut store,
        value,
        records,
    );
    let scans = t.calls / 100;
    let mut scanned = 0u64;
    let start = Instant::now();
    for i in 0..scans {
        scanned += handle
            .scan(&mut store, scatter(i, records), 100)
            .expect("scan")
            .len() as u64;
    }
    let ns = start.elapsed().as_nanos() as f64 / scanned as f64;
    t.out
        .push(("kv.scan_ns_per_rec", t.probes.close().time(ns)));

    // Raw controller calls scribble over the KV region, so they get a
    // fork of their own.
    let mut store = pristine.fork();
    let slots = store.size() / 8;
    let mut word = [0u8; 8];
    t.ns("core.read_ns", |i| {
        store.read(scatter(i, slots) * 8, &mut word).expect("read");
    });
    t.ns("core.write_ns", |i| {
        store
            .write(scatter(i, slots) * 8, &i.to_le_bytes())
            .expect("write");
    });
    t.ns("core.read_at_ns", |i| {
        let now = store.now();
        black_box(
            store
                .read_at(now, scatter(i, slots) * 8, &mut word)
                .expect("read"),
        );
    });
    t.ns("core.write_at_ns", |i| {
        let now = store.now();
        black_box(
            store
                .write_at(now, scatter(i, slots) * 8, &i.to_le_bytes())
                .expect("write"),
        );
    });
    let view = store.read_view();
    t.ns("core.view_read_ns", |i| {
        black_box(view.read(scatter(i, slots) * 8, &mut word).expect("read"));
    });
    let pages = store.size() / 256;
    t.ns("core.txn_cycle_ns", |i| {
        let txn = store.txn_begin().expect("begin");
        for k in 0..3 {
            let addr = scatter(3 * i + k, pages) * 256;
            store.txn_write(txn, addr, &i.to_le_bytes()).expect("write");
        }
        store.txn_commit(txn).expect("commit");
    });
}

/// `KvStore::get` and `put` over any memory.
fn kv_entries<M: Memory>(
    t: &mut Table,
    names: [&'static str; 2],
    kv: &mut KvStore,
    mem: &mut M,
    value: &[u8],
    records: u64,
) {
    t.ns(names[0], |i| {
        black_box(kv.get(mem, scatter(i, records)).expect("get"));
    });
    t.ns(names[1], |i| {
        kv.put(mem, scatter(i, records), value).expect("put");
    });
}

/// The data structures alone, over plain RAM: KV store, B-Tree, arena.
fn structures(t: &mut Table, value: &[u8], records: u64) {
    let size = 16u64 << 20;
    let mut mem = VecMemory::new(size);
    let mut kv = KvStore::create(&mut mem, 0, size).expect("create");
    for key in 0..records {
        kv.put(&mut mem, key, value).expect("load");
    }
    kv_entries(
        t,
        ["kv.get_vec_ns", "kv.put_vec_ns"],
        &mut kv,
        &mut mem,
        value,
        records,
    );

    let mut mem = VecMemory::new(size);
    let mut tree = BTree::create(&mut mem, 0, size).expect("create");
    t.ns("btree.insert_ns", |i| {
        tree.insert(&mut mem, scatter(i, u64::MAX), i)
            .expect("insert");
    });
    t.ns("btree.get_ns", |i| {
        black_box(tree.get(&mut mem, scatter(i, u64::MAX)).expect("get"));
    });
    let depth = tree.depth(&mut mem).expect("depth");
    t.out.push(("btree.depth", depth as f64));

    let mut mem = VecMemory::new(size);
    let mut arena = Arena::create(&mut mem, 0, size).expect("create");
    t.ns("heap.alloc_free_ns", |_| {
        let addr = arena.alloc(&mut mem, 104).expect("alloc");
        arena.free(&mut mem, addr).expect("free");
    });
}

/// One analytic TPC-A transaction against the churned timing array of
/// the `txn_tpca` shape, arrivals back to back.
fn timing_store(t: &mut Table, seed: u64, shape: &Shape) {
    let (mut store, driver): (EnvyStore, _) = workloads::timing_system(shape.txn);
    let scale = driver.layout().scale;
    let mut rng = Rng::seed_from(seed);
    t.ns("core.tpca_txn_ns", |_| {
        let txn = Transaction::generate(scale, &mut rng);
        let now = store.now();
        black_box(
            driver
                .run_transaction_timed(&mut store, now, &txn)
                .expect("txn"),
        );
    });
}
