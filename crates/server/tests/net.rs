//! Socket serving: protocol roundtrips over TCP and Unix sockets,
//! pipelining, malformed frames, killed connections, deadlines, and
//! graceful drains.

mod common;

use envy_server::proto::{self, WireOutcome};
use envy_server::{serve, Client, Listener, Reply, Request, ServeConfig, ServeError, ShardedStore};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn launch_tcp(config: ServeConfig) -> (envy_server::ServerHandle, String) {
    let store = ShardedStore::launch(config).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let handle = serve(listener, store).unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn tcp_roundtrip_and_graceful_shutdown() {
    let (server, addr) = launch_tcp(ServeConfig::small(2));
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.ping(0).unwrap();
    client.ping(1).unwrap();
    let latency = client.write(4096, b"over-tcp").unwrap();
    assert!(latency.as_nanos() > 0);
    assert_eq!(client.read(4096, 8).unwrap(), b"over-tcp");
    // Cross-shard ranges surface the typed error over the wire.
    let shard_bytes = {
        let cfg = ServeConfig::small(2);
        envy_core::EnvyStore::new(cfg.store).unwrap().size()
    };
    match client.read(shard_bytes - 4, 8) {
        Err(envy_server::ClientError::Serve(ServeError::CrossesShard { .. })) => {}
        other => panic!("expected CrossesShard, got {other:?}"),
    }
    let summary = server.shutdown();
    assert_eq!(summary.connections, 1);
    // 2 pings + write + read admitted; the crossing range was rejected
    // at submission and never counted.
    assert_eq!(summary.requests, 4);
    assert_eq!(summary.outcome.total_served(), summary.requests);
}

#[test]
fn unix_roundtrip_and_wire_shutdown() {
    let path = std::env::temp_dir().join(format!("envy-serve-test-{}.sock", std::process::id()));
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_unix(&path).unwrap();
    let server = serve(listener, store).unwrap();

    let mut client = Client::connect_unix(&path).unwrap();
    client.write(128, b"unix").unwrap();
    assert_eq!(client.read(128, 4).unwrap(), b"unix");
    // Wire-level SHUTDOWN: acked, then the server drains and exits.
    client.shutdown_server().unwrap();
    let summary = server.wait();
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.outcome.total_served(), summary.requests);
    assert!(!path.exists(), "socket file must be removed after serving");
}

#[test]
fn pipelined_requests_complete_out_of_order_by_id() {
    let (server, addr) = launch_tcp(ServeConfig::small(2));
    let mut client = Client::connect_tcp(&addr).unwrap();
    let mut ids = Vec::new();
    for i in 0..32u64 {
        let id = client
            .submit(
                Request::Write {
                    addr: i * 512,
                    bytes: vec![i as u8; 16],
                },
                None,
            )
            .unwrap();
        ids.push(id);
    }
    let mut seen = Vec::new();
    for _ in 0..ids.len() {
        let resp = client.recv().unwrap();
        assert!(matches!(
            resp.outcome,
            WireOutcome::Reply(Reply::Done { .. })
        ));
        seen.push(resp.id);
    }
    seen.sort_unstable();
    assert_eq!(seen, ids);
    server.shutdown();
}

#[test]
fn malformed_frame_answers_error_and_connection_survives() {
    let (server, addr) = launch_tcp(ServeConfig::small(1));
    let mut raw = TcpStream::connect(&addr).unwrap();
    // A syntactically valid frame with an unknown opcode.
    let garbage = [0xee_u8; 16];
    raw.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    raw.flush().unwrap();
    let payload = proto::read_frame(&mut raw).unwrap().expect("error reply");
    let resp = proto::decode_response(&payload).unwrap();
    assert!(matches!(
        resp.outcome,
        WireOutcome::Err(ServeError::Store(_))
    ));

    // The same connection still serves well-formed requests.
    let ping = proto::encode_request(&proto::WireRequest {
        id: 9,
        deadline_us: 0,
        body: proto::WireBody::Req(Request::Ping { shard: 0 }),
    });
    proto::write_frame(&mut raw, &ping).unwrap();
    let payload = proto::read_frame(&mut raw).unwrap().expect("pong");
    let resp = proto::decode_response(&payload).unwrap();
    assert_eq!(resp.id, 9);
    assert!(matches!(resp.outcome, WireOutcome::Reply(Reply::Pong)));
    server.shutdown();
}

/// A request too long to frame is refused at `submit`, corked or not,
/// before a byte of it is buffered. Sent anyway, the server would drop
/// the connection on the announcement and every reply queued behind it
/// with it; instead the frames around it are untouched and answered.
#[test]
fn over_long_submit_is_refused_and_frames_around_it_survive() {
    let (server, addr) = launch_tcp(ServeConfig::small(1));
    let mut client = Client::connect_tcp(&addr).unwrap();
    let too_long = || Request::Write {
        addr: 0,
        bytes: vec![7; proto::MAX_FRAME],
    };
    for corked in [true, false] {
        client.set_corked(corked).unwrap();
        let first = client.submit(Request::Ping { shard: 0 }, None).unwrap();
        let err = client.submit(too_long(), None).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let second = client.submit(Request::Ping { shard: 0 }, None).unwrap();
        for want in [first, second] {
            let resp = client.recv().unwrap();
            assert_eq!(resp.id, want, "corked: {corked}");
            assert!(matches!(resp.outcome, WireOutcome::Reply(Reply::Pong)));
        }
    }
    let summary = server.shutdown();
    assert_eq!(summary.requests, 4, "only the pings were admitted");
}

#[test]
fn killed_connection_leaves_other_clients_intact() {
    let config = ServeConfig::small(1).with_service_delay(Duration::from_millis(2));
    let (server, addr) = launch_tcp(config);
    let mut victim = Client::connect_tcp(&addr).unwrap();
    let mut survivor = Client::connect_tcp(&addr).unwrap();

    // The victim floods a pipeline, then its socket dies mid-flight.
    for i in 0..16u64 {
        victim
            .submit(
                Request::Write {
                    addr: i * 64,
                    bytes: vec![1; 8],
                },
                None,
            )
            .unwrap();
    }
    drop(victim);

    // The survivor keeps getting service while the victim's requests
    // complete into the void.
    for i in 0..8u64 {
        survivor.write(8192 + i * 64, b"fine").unwrap();
    }
    assert_eq!(survivor.read(8192, 4).unwrap(), b"fine");
    let summary = server.shutdown();
    assert_eq!(summary.connections, 2);
    // Every admitted request — including the dead client's — was served.
    assert_eq!(summary.outcome.total_served(), summary.requests);
}

#[test]
fn wire_deadline_surfaces_typed_timeout() {
    let config = ServeConfig::small(1)
        .with_batch_max(16)
        .with_service_delay(Duration::from_millis(10));
    let store = ShardedStore::launch(config).unwrap();
    // The event loop runs its requests itself, so they queue only
    // behind some other thread: an in-process submitter holds the shard.
    let handle = store.handle();
    let server = serve(Listener::bind_tcp("127.0.0.1:0").unwrap(), store).unwrap();
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let occupant = common::Occupant::hold(&handle);
    common::until_contended(&handle, &tx, &rx);
    let deadline = Some(Duration::from_millis(1));
    for i in 0..6u64 {
        client
            .submit(
                Request::Write {
                    addr: i * 64,
                    bytes: vec![2; 8],
                },
                deadline,
            )
            .unwrap();
    }
    let mut timed_out = 0;
    for _ in 0..6 {
        match client.recv().unwrap().outcome {
            WireOutcome::Err(ServeError::DeadlineExceeded) => timed_out += 1,
            WireOutcome::Reply(_) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(timed_out > 0, "queued-behind-slow requests must expire");
    occupant.release();
    let summary = server.shutdown();
    assert_eq!(summary.outcome.total_timed_out(), timed_out);
}

#[test]
fn wire_transaction_commit_abort_and_ownership() {
    let (server, addr) = launch_tcp(ServeConfig::small(2));
    let mut client = Client::connect_tcp(&addr).unwrap();
    let shard_bytes = {
        let cfg = ServeConfig::small(2);
        envy_core::EnvyStore::new(cfg.store).unwrap().size()
    };

    // Committed multi-page transaction: all writes visible after.
    let txn = client.txn_begin(0).unwrap();
    client.txn_write(0, b"alpha", txn).unwrap();
    client.txn_write(512, b"bravo", txn).unwrap();
    client.txn_commit(0, txn).unwrap();
    assert_eq!(client.read(0, 5).unwrap(), b"alpha");
    assert_eq!(client.read(512, 5).unwrap(), b"bravo");

    // Aborted transaction: the write is undone byte-exactly.
    let txn = client.txn_begin(0).unwrap();
    client.txn_write(0, b"nope!", txn).unwrap();
    client.txn_abort(0, txn).unwrap();
    assert_eq!(client.read(0, 5).unwrap(), b"alpha");

    // Ownership errors arrive typed over the wire — and the slot-full
    // refusal carries no transaction id (ids are capability-like).
    let txn = client.txn_begin(1).unwrap();
    match client.txn_begin(1) {
        Err(envy_server::ClientError::Serve(ServeError::TxnBusy)) => {}
        other => panic!("expected TxnBusy, got {other:?}"),
    }
    match client.txn_write(shard_bytes, b"x", txn + 1) {
        Err(envy_server::ClientError::Serve(ServeError::NoSuchTxn { .. })) => {}
        other => panic!("expected NoSuchTxn, got {other:?}"),
    }
    client.txn_abort(1, txn).unwrap();
    server.shutdown();
}

#[test]
fn plain_write_never_joins_another_connections_transaction() {
    // Regression test for the silent-join bug: a plain WRITE from one
    // connection used to be absorbed into whatever transaction another
    // connection had open on the shard — acknowledged, then silently
    // undone by that transaction's abort. Now a plain write to a page
    // in the open write set is refused with TXN_CONFLICT, and a plain
    // write to any other page executes independently and survives the
    // abort.
    let (server, addr) = launch_tcp(ServeConfig::small(1));
    let mut alice = Client::connect_tcp(&addr).unwrap();
    let mut bob = Client::connect_tcp(&addr).unwrap();
    alice.write(0, b"base").unwrap();
    alice.write(512, b"hold").unwrap();

    let txn = alice.txn_begin(0).unwrap();
    alice.txn_write(0, b"mine", txn).unwrap();

    // Bob's plain write to the page in Alice's write set: typed
    // conflict, no foreign transaction id attached.
    match bob.write(0, b"bobs") {
        Err(envy_server::ClientError::Serve(ServeError::TxnConflict)) => {}
        other => panic!("expected TxnConflict, got {other:?}"),
    }
    // Bob's plain write to an unowned page: acknowledged and durable,
    // independent of Alice's transaction.
    bob.write(512, b"bobs").unwrap();

    alice.txn_abort(0, txn).unwrap();
    assert_eq!(alice.read(0, 4).unwrap(), b"base", "txn write rolled back");
    assert_eq!(
        bob.read(512, 4).unwrap(),
        b"bobs",
        "acknowledged plain write must survive the foreign abort"
    );
    server.shutdown();
}

#[test]
fn disconnect_aborts_open_transaction() {
    let (server, addr) = launch_tcp(ServeConfig::small(1));
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.write(64, b"base").unwrap();

    // Open a transaction, write under it, and vanish without resolving.
    let txn = client.txn_begin(0).unwrap();
    client.txn_write(64, b"gone", txn).unwrap();
    drop(client);

    // The server aborts the orphan: a fresh connection sees the
    // pre-transaction bytes and can open its own transaction (the
    // shard's single slot was released).
    let mut fresh = Client::connect_tcp(&addr).unwrap();
    let opened = std::time::Instant::now();
    loop {
        match fresh.txn_begin(0) {
            Ok(t) => {
                assert_eq!(fresh.read(64, 4).unwrap(), b"base");
                fresh.txn_abort(0, t).unwrap();
                break;
            }
            Err(envy_server::ClientError::Serve(ServeError::TxnBusy)) => {
                // The disconnect cleanup races connection teardown.
                assert!(
                    opened.elapsed() < Duration::from_secs(5),
                    "orphaned transaction never aborted"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("txn_begin: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn disconnect_aborts_open_transactions_on_every_shard() {
    let (server, addr) = launch_tcp(ServeConfig::small(2));
    let shard_bytes = {
        let cfg = ServeConfig::small(2);
        envy_core::EnvyStore::new(cfg.store).unwrap().size()
    };
    let mut client = Client::connect_tcp(&addr).unwrap();
    client.write(64, b"zero").unwrap();
    client.write(shard_bytes + 64, b"one!").unwrap();

    // One connection holds an unresolved transaction on BOTH shards,
    // then vanishes. Ids are globally unique and the cleanup table is
    // keyed by (shard, txn), so neither entry can shadow the other:
    // both transactions must be aborted, releasing both slots.
    let t0 = client.txn_begin(0).unwrap();
    let t1 = client.txn_begin(1).unwrap();
    assert_ne!(t0, t1, "transaction ids must be unique across shards");
    client.txn_write(64, b"lost", t0).unwrap();
    client.txn_write(shard_bytes + 64, b"lost", t1).unwrap();
    drop(client);

    let mut fresh = Client::connect_tcp(&addr).unwrap();
    for (shard, base, want) in [(0u32, 0u64, b"zero"), (1, shard_bytes, b"one!")] {
        let opened = std::time::Instant::now();
        loop {
            match fresh.txn_begin(shard) {
                Ok(t) => {
                    assert_eq!(fresh.read(base + 64, 4).unwrap(), want);
                    fresh.txn_abort(shard, t).unwrap();
                    break;
                }
                Err(envy_server::ClientError::Serve(ServeError::TxnBusy)) => {
                    assert!(
                        opened.elapsed() < Duration::from_secs(5),
                        "orphaned transaction on shard {shard} never aborted"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("txn_begin: {e}"),
            }
        }
    }
    server.shutdown();
}

/// The acceptance anchor for transactions over the wire: a seeded
/// atomic TPC-A run through a real TCP server — with a nonzero seeded
/// abort draw — must land on exactly the simulated clock, statistics
/// (commit/abort/shadow counters included), and bytes of the same
/// spec replayed synchronously against a monolithic store.
#[test]
fn socket_atomic_tpca_matches_monolithic_replay() {
    let config = ServeConfig::small(1);
    let mut baseline = envy_core::EnvyStore::new(config.store.clone()).unwrap();
    baseline.prefill().unwrap();
    let mut mono = baseline.fork();
    let store = ShardedStore::launch_from(vec![baseline.fork()], &config);
    let plan = *store.plan();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve(listener, store).unwrap();
    let addr = server.addr().to_string();

    let spec = envy_server::LoadSpec::closed(1, 24)
        .with_seed(41)
        .atomic(0.2);
    let report =
        envy_server::loadgen::run_socket(|| Client::connect_tcp(&addr), plan, &spec).unwrap();
    let mut summary = server.shutdown();
    let mono_report = envy_server::loadgen::run_monolithic(&mut mono, &spec);

    assert!(report.aborted_txns > 0, "seeded abort draw must be nonzero");
    assert_eq!(report.completed_txns, mono_report.completed_txns);
    assert_eq!(report.aborted_txns, mono_report.aborted_txns);
    assert_eq!(report.completed_ops, mono_report.completed_ops);
    assert_eq!(report.errors, 0);
    let served = &summary.outcome.shards[0].store;
    assert_eq!(served.now(), mono.now(), "simulated clock diverged");
    assert_eq!(served.stats(), mono.stats(), "statistics diverged");
    let mut got = vec![0u8; served.size() as usize];
    let mut want = vec![0u8; mono.size() as usize];
    summary.outcome.shards[0].store.read(0, &mut got).unwrap();
    mono.read(0, &mut want).unwrap();
    assert_eq!(got, want, "contents diverged");
}

/// The same anchor for the KV operations: a YCSB load phase sent over
/// the socket, then a seeded atomic YCSB-A run (gets, puts and seeded
/// aborts under `TXN_BEGIN`/`TXN_COMMIT`/`TXN_ABORT`) must land on the
/// clock, statistics and bytes of the same requests applied to a
/// monolithic store.
#[test]
fn socket_atomic_ycsb_matches_monolithic_replay() {
    use envy_workload::ycsb::{YcsbConfig, YcsbMix};
    let config = ServeConfig::small(1);
    let mut baseline = envy_core::EnvyStore::new(config.store.clone()).unwrap();
    baseline.prefill().unwrap();
    let kv = YcsbConfig::standard(YcsbMix::A, 64);
    let load = envy_server::ycsb_load_requests(&kv, 1);
    let mut mono = baseline.fork();
    for req in &load {
        envy_server::shard::apply(&mut mono, req).unwrap();
    }
    let store = ShardedStore::launch_from(vec![baseline.fork()], &config);
    let plan = *store.plan();
    let server = serve(Listener::bind_tcp("127.0.0.1:0").unwrap(), store).unwrap();
    let addr = server.addr().to_string();
    let mut loader = Client::connect_tcp(&addr).unwrap();
    for req in load {
        loader.call(req).unwrap();
    }
    drop(loader);

    let spec = envy_server::LoadSpec::closed(1, 40)
        .with_seed(43)
        .with_ycsb(kv)
        .atomic(0.2);
    let report =
        envy_server::loadgen::run_socket(|| Client::connect_tcp(&addr), plan, &spec).unwrap();
    let mut summary = server.shutdown();
    let mono_report = envy_server::loadgen::run_monolithic(&mut mono, &spec);

    assert!(report.aborted_txns > 0, "seeded abort draw must be nonzero");
    assert_eq!(report.completed_txns, mono_report.completed_txns);
    assert_eq!(report.aborted_txns, mono_report.aborted_txns);
    assert_eq!(report.completed_ops, mono_report.completed_ops);
    assert_eq!(report.errors, 0);
    let served = &summary.outcome.shards[0].store;
    assert_eq!(served.now(), mono.now(), "simulated clock diverged");
    assert_eq!(served.stats(), mono.stats(), "statistics diverged");
    let mut got = vec![0u8; served.size() as usize];
    let mut want = vec![0u8; mono.size() as usize];
    summary.outcome.shards[0].store.read(0, &mut got).unwrap();
    mono.read(0, &mut want).unwrap();
    assert_eq!(got, want, "contents diverged");
}

#[test]
fn socket_loadgen_closed_loop_over_tcp() {
    let (server, addr) = launch_tcp(ServeConfig::small(2));
    let store_plan = {
        let cfg = ServeConfig::small(2);
        let bytes = envy_core::EnvyStore::new(cfg.store).unwrap().size();
        envy_server::ShardPlan::new(2, bytes)
    };
    let spec = envy_server::LoadSpec::closed(3, 5).with_seed(99);
    let report =
        envy_server::loadgen::run_socket(|| Client::connect_tcp(&addr), store_plan, &spec).unwrap();
    assert_eq!(report.completed_txns, 15);
    assert_eq!(report.errors, 0);
    assert!(report.completed_ops > 0);
    let summary = server.shutdown();
    assert_eq!(summary.connections, 3);
    assert_eq!(summary.outcome.total_served(), report.completed_ops);
}
