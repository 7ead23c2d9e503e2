//! Wire-contract tests for the event loop under both poller backends
//! (`epoll`, `poll`): a seeded pipelined workload must be answered
//! byte for byte as a socket-free replay of the same frames through the
//! shard answers it, with the `ServeSummary` counting exactly the
//! admitted requests; a pipeline whose requests queue behind another
//! thread holding the shard must still be answered in request order,
//! and so must one whose reader falls far behind, with the server
//! holding no more than its output mark plus one reply, whether or not
//! the shard is held; and both backends must run the same disconnect
//! cleanup for half-closed and silent sockets.

mod common;

use common::{until_contended, Occupant};
use envy_server::proto::{self, WireBody, WireOutcome, WireRequest, WireResponse, MAX_FRAME};
use envy_server::{
    serve_with, Client, Listener, NetConfig, NetDriver, Request, ServeConfig, ServeError,
    ShardedStore, KV_SCAN_LIMIT, OUTPUT_HIGH_WATER,
};
use envy_sim::rng::Rng;
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wire id of the over-long `READ` that [`seeded_blob`] plants halfway.
const OVERLONG_ID: u64 = u64::MAX;

/// One framed `READ` of `MAX_FRAME` bytes: 13 bytes of reply header more
/// than a frame can carry, so it is refused before it is routed.
fn overlong_read_frame() -> Vec<u8> {
    let payload = proto::encode_request(&WireRequest {
        id: OVERLONG_ID,
        deadline_us: 0,
        body: WireBody::Req(Request::Read {
            addr: 0,
            len: MAX_FRAME as u32,
        }),
    });
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, &payload).unwrap();
    frame
}

/// Build a seeded pipelined request blob: a deterministic interleave of
/// writes, reads, pings, the four KV operations, a few malformed
/// (unknown-opcode) frames and, halfway, one extra frame — a `READ` too
/// long to answer ([`OVERLONG_ID`]; refused, so not admitted). One
/// shard + FIFO dispatch means completion order equals admission
/// order, so the answer is the one [`replay`] computes.
///
/// Raw writes draw from the top half of the shard only: the KV store's
/// B-Tree nodes grow from the region base, and a raw write landing in a
/// live index node could forge a cyclic child pointer (a hang, not a
/// typed error). Clobbered *heap* blocks in the top half surface as
/// typed `Corrupt` errors, which the server must report as the replay
/// does.
fn seeded_blob(frames: usize) -> (Vec<u8>, u64) {
    let shard_bytes = {
        let cfg = ServeConfig::small(1);
        envy_core::EnvyStore::new(cfg.store).unwrap().size()
    };
    let mut rng = Rng::seed_from(0x000D_1FF9);
    let mut blob = Vec::new();
    let mut admitted = 0u64;
    for i in 0..frames as u64 {
        if i == frames as u64 / 2 {
            blob.extend_from_slice(&overlong_read_frame());
        }
        if rng.chance(0.05) {
            // Unknown opcode: syntactically a frame, semantically
            // garbage. Answered with a typed error under id 0; not
            // admitted, so it never counts as a request.
            let garbage = vec![0xee_u8; 8 + rng.below(16) as usize];
            blob.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
            blob.extend_from_slice(&garbage);
            continue;
        }
        let addr = shard_bytes / 2 + rng.below(shard_bytes / 2 - 600);
        let key = rng.below(64);
        let req = match rng.below(7) {
            0 => Request::Write {
                addr,
                bytes: vec![(i % 251) as u8; 1 + rng.below(500) as usize],
            },
            1 => Request::Read {
                addr,
                len: 1 + rng.below(500) as u32,
            },
            2 => Request::Ping { shard: 0 },
            3 => Request::KvPut {
                shard: 0,
                key,
                txn: 0,
                value: vec![(i % 251) as u8; 1 + rng.below(200) as usize],
            },
            4 => Request::KvGet { shard: 0, key },
            5 => Request::KvDelete {
                shard: 0,
                key,
                txn: 0,
            },
            _ => Request::KvScan {
                shard: 0,
                start: key,
                limit: 1 + rng.below(16) as u32,
            },
        };
        let frame = proto::encode_request(&WireRequest {
            id: i,
            deadline_us: 0,
            body: WireBody::Req(req),
        });
        blob.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        blob.extend_from_slice(&frame);
        admitted += 1;
    }
    (blob, admitted)
}

/// The canonical answer to `blob` as response payloads, computed with
/// no socket: each frame is decoded; one that does not decode is
/// answered `ERR` under id 0, and every other runs, in order, through a
/// fresh 1-shard store. The over-long `READ` is skipped: the wire
/// refuses it before routing, and the in-process API has no frame to
/// bound it by.
fn replay(config: ServeConfig, mut blob: &[u8]) -> Vec<Vec<u8>> {
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    let mut replies = Vec::new();
    while let Some(payload) = proto::read_frame(&mut blob).unwrap() {
        let resp = match proto::decode_request(&payload) {
            Err(_) => WireResponse {
                id: 0,
                shard: 0,
                outcome: WireOutcome::Err(ServeError::Store("malformed request".into())),
            },
            Ok(WireRequest {
                id: OVERLONG_ID, ..
            }) => continue,
            Ok(WireRequest {
                id,
                body: WireBody::Req(req),
                ..
            }) => {
                handle
                    .submit_with_id(id, req, None, &tx)
                    .expect("a lone submitter is admitted");
                let done = rx.recv().unwrap();
                WireResponse {
                    id,
                    shard: done.shard,
                    outcome: match done.result {
                        Ok(reply) => WireOutcome::Reply(reply),
                        Err(e) => WireOutcome::Err(e),
                    },
                }
            }
            Ok(other) => panic!("the blob holds no {other:?}"),
        };
        replies.push(proto::encode_response(&resp));
    }
    store.shutdown();
    replies
}

/// Run the blob against a fresh 1-shard server under `driver`; return
/// the first `frames` response payloads and the summary's request
/// count.
fn run_driver(driver: NetDriver, blob: &[u8], frames: usize) -> (Vec<Vec<u8>>, u64) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: None,
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(blob).unwrap();
    let replies = (0..frames)
        .map(|_| {
            proto::read_frame(&mut raw)
                .expect("read response frame")
                .expect("response before eof")
        })
        .collect();
    drop(raw);
    let summary = server.shutdown();
    (replies, summary.requests)
}

#[test]
fn drivers_produce_identical_wire_bytes_and_counts() {
    const FRAMES: usize = 200;
    let (blob, admitted) = seeded_blob(FRAMES);
    let expected = replay(ServeConfig::small(1), &blob);
    assert_eq!(expected.len(), FRAMES);
    for driver in [NetDriver::Epoll, NetDriver::Poll] {
        // One reply per seeded frame plus the refusal of the over-long
        // read.
        let (mut replies, requests) = run_driver(driver, &blob, FRAMES + 1);
        assert_eq!(requests, admitted, "{driver:?} request count");

        let at = replies
            .iter()
            .position(|r| proto::decode_response(r).unwrap().id == OVERLONG_ID)
            .expect("the over-long read is answered under its own id");
        let overlong = proto::decode_response(&replies.remove(at)).unwrap();

        // Every other reply is the replay's, byte for byte.
        if let Some(i) = (0..FRAMES).find(|&i| replies[i] != expected[i]) {
            panic!(
                "{driver:?} reply {i} differs from the replay: got {:?}, want {:?}",
                proto::decode_response(&replies[i]),
                proto::decode_response(&expected[i]),
            );
        }

        // The over-long read is answered where it was sent — a typed
        // `ERR` under its own id, behind one reply per earlier frame and
        // ahead of the rest.
        assert!(
            matches!(overlong.outcome, WireOutcome::Err(ServeError::Store(_))),
            "{driver:?}: expected ERR, got {:?}",
            overlong.outcome
        );
        assert_eq!(at, FRAMES / 2, "{driver:?}: over-long reply out of place");
    }
}

/// A pipeline whose replies are many times what the two socket buffers
/// hold, one frame each: three 32 KiB writes that fill most of the
/// 128 KiB shard with distinct bytes, then 293 requests, mostly 32 KiB
/// `READ`s with a `PING` every ninth frame (about 8 MiB of replies).
fn slow_reader_frames() -> Vec<Vec<u8>> {
    const READ: u32 = 32 * 1024;
    let frame = |id: u64, req| {
        let payload = proto::encode_request(&WireRequest {
            id,
            deadline_us: 0,
            body: WireBody::Req(req),
        });
        let mut bytes = Vec::new();
        proto::write_frame(&mut bytes, &payload).unwrap();
        bytes
    };
    (0..296u64)
        .map(|i| match i {
            0..3 => Request::Write {
                addr: i * u64::from(READ),
                bytes: vec![i as u8 + 1; READ as usize],
            },
            _ if i % 9 == 0 => Request::Ping { shard: 0 },
            _ => Request::Read {
                addr: i * 4_100 % (3 * u64::from(READ)),
                len: READ,
            },
        })
        .enumerate()
        .map(|(i, req)| frame(i as u64, req))
        .collect()
}

/// A reader that falls behind still gets every reply, in order. The
/// requests go out in four batches; after each of the first three the
/// client reads only a third of the replies it is owed (and nothing
/// for the first 100 ms), so the loop finds the socket full, parks
/// mid-reply, and appends new replies behind a partly written backlog
/// many times over. Every reply must equal the socket-free replay's,
/// byte for byte.
fn slow_reader_gets_every_reply(driver: NetDriver) {
    let frames = slow_reader_frames();
    let expected = replay(ServeConfig::small(1), &frames.concat());
    assert_eq!(expected.len(), frames.len());

    let path = std::env::temp_dir().join(format!(
        "envy-slow-{}-{}.sock",
        std::process::id(),
        driver.name()
    ));
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_unix(&path).unwrap();
    let net = NetConfig {
        driver,
        idle_timeout: None,
    };
    let server = serve_with(listener, store, net).unwrap();
    let mut raw = UnixStream::connect(&path).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    let mut replies = Vec::new();
    let batches: Vec<&[Vec<u8>]> = frames.chunks(frames.len().div_ceil(4)).collect();
    let mut sent = 0;
    for (b, batch) in batches.iter().enumerate() {
        raw.write_all(&batch.concat()).unwrap();
        sent += batch.len();
        if b == 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
        let owed = sent - replies.len();
        let take = if b + 1 == batches.len() {
            owed
        } else {
            owed / 3
        };
        for _ in 0..take {
            replies.push(
                proto::read_frame(&mut raw)
                    .expect("a reply within the timeout")
                    .expect("a reply, not a close"),
            );
        }
    }
    drop(raw);
    let summary = server.shutdown();
    let _ = std::fs::remove_file(&path);
    assert_eq!(replies.len(), expected.len(), "{driver:?}");
    if let Some(i) = (0..expected.len()).find(|&i| replies[i] != expected[i]) {
        panic!(
            "{driver:?} reply {i} differs from the replay: got {:?}, want {:?}",
            proto::decode_response(&replies[i]).map(|r| r.id),
            proto::decode_response(&expected[i]).map(|r| r.id),
        );
    }
    assert_eq!(summary.requests, expected.len() as u64, "{driver:?}");
}

#[test]
fn slow_reader_gets_every_reply_under_epoll() {
    slow_reader_gets_every_reply(NetDriver::Epoll);
}

#[test]
fn slow_reader_gets_every_reply_under_poll_backend() {
    slow_reader_gets_every_reply(NetDriver::Poll);
}

/// A shard with room for [`KV_SCAN_LIMIT`] values of
/// [`envy_kv::MAX_VALUE`] bytes.
fn scan_config() -> ServeConfig {
    ServeConfig {
        store: envy_core::EnvyConfig::scaled(4, 16, 1024, 256).with_utilization(0.5),
        ..ServeConfig::small(1)
    }
}

/// [`KV_SCAN_LIMIT`] `KV_PUT`s of distinct 4 KiB values, then 64
/// `KV_SCAN`s each answered with all of them: about 526 KiB per reply,
/// 33 MiB in all.
fn full_scan_frames() -> Vec<Vec<u8>> {
    let puts = (0..u64::from(KV_SCAN_LIMIT)).map(|key| Request::KvPut {
        shard: 0,
        key,
        txn: 0,
        value: vec![key as u8; envy_kv::MAX_VALUE],
    });
    let scans = (0..64).map(|_| Request::KvScan {
        shard: 0,
        start: 0,
        limit: KV_SCAN_LIMIT,
    });
    puts.chain(scans)
        .enumerate()
        .map(|(id, req)| {
            let payload = proto::encode_request(&WireRequest {
                id: id as u64,
                deadline_us: 0,
                body: WireBody::Req(req),
            });
            let mut frame = Vec::new();
            proto::write_frame(&mut frame, &payload).unwrap();
            frame
        })
        .collect()
}

/// A client that pipelines every frame and reads nothing for a while is
/// held at the output mark: the server never holds more unwritten
/// output than [`OUTPUT_HIGH_WATER`] plus one reply, and once the client
/// reads, every reply equals the socket-free replay's, byte for byte.
/// With `drain`, the server is asked to shut down while the connection
/// is held: it answers what it admitted, drops the frames still waiting
/// in the decoder, and closes. With `occupied`, an [`Occupant`] holds
/// the shard for the whole run, so the loop's requests wait for another
/// thread: the bound holds all the same.
fn pipelined_scans_keep_output_bounded(driver: NetDriver, drain: bool, occupied: bool) {
    let config = if occupied {
        scan_config().with_service_delay(Duration::from_micros(200))
    } else {
        scan_config()
    };
    let frames = full_scan_frames();
    let expected = replay(config.clone(), &frames.concat());
    let largest_frame = expected.iter().map(|r| 4 + r.len()).max().unwrap();
    assert!(largest_frame > 512 * 1024, "a scan answers every value");

    let path = std::env::temp_dir().join(format!(
        "envy-bounded-{}-{}-{drain}-{occupied}.sock",
        std::process::id(),
        driver.name()
    ));
    let listener = Listener::bind_unix(&path).unwrap();
    let net = NetConfig {
        driver,
        idle_timeout: None,
    };
    let store = ShardedStore::launch(config).unwrap();
    let occupant = occupied.then(|| Occupant::hold(&store.handle()));
    let server = serve_with(listener, store, net).unwrap();
    let mut raw = UnixStream::connect(&path).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    raw.write_all(&frames.concat()).unwrap();
    // Long enough for the loop to run past the mark and park, even in a
    // debug build on a loaded host.
    std::thread::sleep(Duration::from_secs(1));
    if drain {
        server.request_shutdown();
    }
    let mut replies = Vec::new();
    while let Some(reply) =
        proto::read_frame(&mut raw).expect("a reply or a close within the timeout")
    {
        replies.push(reply);
        if replies.len() == frames.len() {
            break;
        }
    }
    drop(raw);
    if let Some(occupant) = occupant {
        occupant.release();
    }
    let summary = server.shutdown();
    let _ = std::fs::remove_file(&path);
    if drain {
        assert!(
            replies.len() < expected.len(),
            "{driver:?}: held frames dropped"
        );
    } else {
        assert_eq!(replies.len(), expected.len(), "{driver:?}");
    }
    if let Some(i) = (0..replies.len()).find(|&i| replies[i] != expected[i]) {
        panic!("{driver:?} reply {i} differs from the replay");
    }
    assert_eq!(summary.requests, replies.len() as u64, "{driver:?}");
    assert!(
        summary.max_output_backlog <= OUTPUT_HIGH_WATER + largest_frame,
        "{driver:?}: {} bytes held, mark {OUTPUT_HIGH_WATER} + one reply {largest_frame}",
        summary.max_output_backlog
    );
    assert!(
        summary.max_output_backlog > OUTPUT_HIGH_WATER,
        "{driver:?}: the reader fell behind, so the mark was reached"
    );
}

#[test]
fn pipelined_scans_keep_output_bounded_under_epoll() {
    pipelined_scans_keep_output_bounded(NetDriver::Epoll, false, false);
}

#[test]
fn pipelined_scans_keep_output_bounded_under_poll_backend() {
    pipelined_scans_keep_output_bounded(NetDriver::Poll, false, false);
}

#[test]
fn pipelined_scans_keep_output_bounded_while_shard_held_under_epoll() {
    pipelined_scans_keep_output_bounded(NetDriver::Epoll, false, true);
}

#[test]
fn pipelined_scans_keep_output_bounded_while_shard_held_under_poll_backend() {
    pipelined_scans_keep_output_bounded(NetDriver::Poll, false, true);
}

#[test]
fn held_connection_drains_on_shutdown_under_epoll() {
    pipelined_scans_keep_output_bounded(NetDriver::Epoll, true, false);
}

#[test]
fn held_connection_drains_on_shutdown_under_poll_backend() {
    pipelined_scans_keep_output_bounded(NetDriver::Poll, true, false);
}

/// On a shard larger than a frame the same read passes routing, so
/// nothing but the length bound stands between it and a megabyte-long
/// walk of the timing model whose reply could not be sent. It must come
/// back as the typed `ERR` with the shard never having run a request.
#[test]
fn read_longer_than_a_frame_is_refused_before_it_reaches_the_shard() {
    let config = ServeConfig::scaled(1);
    assert!(config.store.logical_bytes() > MAX_FRAME as u64);
    let store = ShardedStore::launch(config).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(listener, store, NetConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // A server that runs the read and drops the reply would block this
    // test forever; fail instead.
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    raw.write_all(&overlong_read_frame()).unwrap();
    let payload = proto::read_frame(&mut raw)
        .expect("a reply within the timeout")
        .expect("a reply, not a close");
    let reply = proto::decode_response(&payload).unwrap();
    assert_eq!(reply.id, OVERLONG_ID);
    assert!(
        matches!(reply.outcome, WireOutcome::Err(ServeError::Store(_))),
        "expected ERR, got {:?}",
        reply.outcome
    );
    drop(raw);
    let summary = server.shutdown();
    assert_eq!(summary.requests, 0, "the read must not be admitted");
    assert_eq!(summary.outcome.total_served(), 0);
}

/// A malformed KV frame — a valid `KV_PUT` opcode whose payload is
/// truncated mid-field — must be answered with a typed error under
/// id 0, and the connection must survive: a well-formed KV request
/// pipelined right behind it still gets its real answer.
fn malformed_kv_frame_errors_id0_and_survives(driver: NetDriver) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: None,
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();

    let full = proto::encode_request(&WireRequest {
        id: 7,
        deadline_us: 0,
        body: WireBody::Req(Request::KvPut {
            shard: 0,
            key: 42,
            txn: 0,
            value: vec![0xAB; 16],
        }),
    });
    // `KV_PUT`'s value is "rest of frame", so a short value is still a
    // valid put; cut into the fixed fields (the `key`/`txn` words) to
    // make the frame undecodable.
    let truncated = &full[..20];
    let mut blob = Vec::new();
    blob.extend_from_slice(&(truncated.len() as u32).to_le_bytes());
    blob.extend_from_slice(truncated);
    let follow = proto::encode_request(&WireRequest {
        id: 8,
        deadline_us: 0,
        body: WireBody::Req(Request::KvGet { shard: 0, key: 42 }),
    });
    blob.extend_from_slice(&(follow.len() as u32).to_le_bytes());
    blob.extend_from_slice(&follow);
    raw.write_all(&blob).unwrap();

    let first = proto::read_frame(&mut raw).unwrap().expect("error frame");
    let first = proto::decode_response(&first).unwrap();
    assert_eq!(first.id, 0, "malformed frames are answered under id 0");
    assert!(
        matches!(first.outcome, WireOutcome::Err(_)),
        "malformed KV frame must surface a typed error, got {:?} ({driver:?})",
        first.outcome,
    );
    let second = proto::read_frame(&mut raw).unwrap().expect("reply frame");
    let second = proto::decode_response(&second).unwrap();
    assert_eq!(second.id, 8, "the connection must survive the bad frame");
    assert!(
        matches!(
            second.outcome,
            WireOutcome::Reply(envy_server::Reply::KvValue(None))
        ),
        "the truncated put must not have executed, got {:?} ({driver:?})",
        second.outcome,
    );
    drop(raw);
    server.shutdown();
}

#[test]
fn malformed_kv_frame_survives_under_epoll() {
    malformed_kv_frame_errors_id0_and_survives(NetDriver::Epoll);
}

#[test]
fn malformed_kv_frame_survives_under_poll_backend() {
    malformed_kv_frame_errors_id0_and_survives(NetDriver::Poll);
}

/// Frames torn across writes, on a real socket: a header sent alone,
/// then its payload after a pause; then a frame cut mid-payload. The
/// client writes each frame whole, so only this test makes the loop
/// park on a partial frame and finish it on a later readiness event.
/// Each frame must be answered, and the connection must stay open.
fn torn_frames_are_reassembled(driver: NetDriver) {
    let path = std::env::temp_dir().join(format!(
        "envy-torn-{}-{}.sock",
        std::process::id(),
        driver.name()
    ));
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_unix(&path).unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: None,
        },
    )
    .unwrap();
    let mut raw = UnixStream::connect(&path).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let frame = |id, req| {
        let payload = proto::encode_request(&WireRequest {
            id,
            deadline_us: 0,
            body: WireBody::Req(req),
        });
        let mut bytes = Vec::new();
        proto::write_frame(&mut bytes, &payload).unwrap();
        bytes
    };
    let put = frame(
        1,
        Request::KvPut {
            shard: 0,
            key: 5,
            txn: 0,
            value: vec![0x5A; 64],
        },
    );
    let get = frame(2, Request::KvGet { shard: 0, key: 5 });
    let ping = frame(3, Request::Ping { shard: 0 });
    // The header alone, then a cut halfway into the payload.
    let mid = 4 + (get.len() - 4) / 2;
    for (cut, whole) in [(4, &put), (mid, &get)] {
        raw.write_all(&whole[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        raw.write_all(&whole[cut..]).unwrap();
    }
    raw.write_all(&ping).unwrap();
    let want = [
        (1, envy_server::Reply::KvPutDone),
        (2, envy_server::Reply::KvValue(Some(vec![0x5A; 64]))),
        (3, envy_server::Reply::Pong),
    ];
    for (id, answer) in want {
        let payload = proto::read_frame(&mut raw)
            .expect("a reply within the timeout")
            .expect("a reply, not a close");
        let got = proto::decode_response(&payload).unwrap();
        assert_eq!(got.id, id, "{driver:?}");
        assert_eq!(got.outcome, WireOutcome::Reply(answer), "{driver:?}");
    }
    drop(raw);
    let summary = server.shutdown();
    assert_eq!(summary.requests, 3, "{driver:?}");
}

#[test]
fn torn_frames_are_reassembled_under_epoll() {
    torn_frames_are_reassembled(NetDriver::Epoll);
}

#[test]
fn torn_frames_are_reassembled_under_poll_backend() {
    torn_frames_are_reassembled(NetDriver::Poll);
}

/// Request `i` of the mixed KV pipeline: puts, gets, deletes and scans
/// over a few keys, so most gets hit and the replies tell the order the
/// shard ran them in.
fn mixed_kv(i: u64) -> Request {
    let key = i * 7 % 11;
    match i % 5 {
        0 | 3 => Request::KvPut {
            shard: 0,
            key,
            txn: 0,
            value: vec![i as u8; 1 + (i as usize * 13) % 90],
        },
        1 => Request::KvGet { shard: 0, key },
        2 => Request::KvScan {
            shard: 0,
            start: key,
            limit: 4,
        },
        _ => Request::KvDelete {
            shard: 0,
            key,
            txn: 0,
        },
    }
}

/// Replies keep request order while another thread holds the shard. A
/// pipelined request runs on the loop, at once if the shard is idle or
/// after the loop waits for the thread holding it. A 64-request
/// pipeline goes out in eight parts. In each, the first half meets an
/// [`Occupant`] inside the shard; the occupant leaves, and the second
/// half finds the shard free. Every reply must come back in request
/// order, under its own id, with the answer an in-order replay gives.
fn replies_keep_order_while_another_thread_holds_the_shard(driver: NetDriver) {
    const FRAMES: u64 = 64;
    const PARTS: u64 = 8;
    // Each request holds the shard this long: long enough for the
    // loop's first request to meet the occupant inside, even in a loop
    // slowed by a loaded debug build.
    let config = ServeConfig::small(1).with_service_delay(Duration::from_millis(1));
    let expected: Vec<WireOutcome> = {
        let store = ShardedStore::launch(config.clone()).unwrap();
        let handle = store.handle();
        let outcomes = (0..FRAMES)
            .map(|i| match handle.call(mixed_kv(i)) {
                Ok(reply) => WireOutcome::Reply(reply),
                Err(e) => WireOutcome::Err(e),
            })
            .collect();
        store.shutdown();
        outcomes
    };
    let path = std::env::temp_dir().join(format!(
        "envy-order-{}-{}.sock",
        std::process::id(),
        driver.name()
    ));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let listener = Listener::bind_unix(&path).unwrap();
    let net = NetConfig {
        driver,
        idle_timeout: None,
    };
    let server = serve_with(listener, store, net).unwrap();
    let mut client = Client::connect_unix(&path).unwrap();

    let part = FRAMES / PARTS;
    for first in (0..FRAMES).step_by(part as usize) {
        let occupant = Occupant::hold(&handle);
        // A channel per part, so a probe's completion never reads as a
        // later part's.
        let (tx, _rx) = mpsc::channel();
        let probe = until_contended(&handle, &tx);
        // One write: the loop reads this half-part at once, and its
        // first request finds the shard held and waits for it.
        client.set_corked(true).unwrap();
        for i in first..first + part / 2 {
            client.submit_with_id(i, mixed_kv(i), None).unwrap();
        }
        client.set_corked(false).unwrap();
        // The occupant leaves; the next frame is on its way at once and
        // finds the shard free.
        occupant.release();
        probe.join().unwrap();
        for i in first + part / 2..first + part {
            client.submit_with_id(i, mixed_kv(i), None).unwrap();
        }
    }
    for (i, want) in expected.iter().enumerate() {
        let got = client.recv().unwrap();
        assert_eq!(got.id, i as u64, "{driver:?}: reply out of request order");
        assert_eq!(&got.outcome, want, "{driver:?}: reply {i}");
    }
    drop(client);
    let summary = server.shutdown();
    let _ = std::fs::remove_file(&path);
    assert_eq!(summary.requests, FRAMES, "{driver:?}");
    // The shard was held: something waited for it.
    let shard = &summary.outcome.shards[0];
    assert!(
        shard.waited > 0,
        "{driver:?}: nothing waited ({} served)",
        shard.served
    );
}

#[test]
fn replies_keep_order_while_another_thread_holds_the_shard_under_epoll() {
    replies_keep_order_while_another_thread_holds_the_shard(NetDriver::Epoll);
}

#[test]
fn replies_keep_order_while_another_thread_holds_the_shard_under_poll_backend() {
    replies_keep_order_while_another_thread_holds_the_shard(NetDriver::Poll);
}

/// A half-closed socket — the client shuts down only its **write**
/// side and keeps reading — must still get its open transactions
/// aborted (the EOF runs the same disconnect cleanup as a full close),
/// releasing the shard's transaction slot within the idle timeout.
fn half_close_aborts_open_txn(driver: NetDriver) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: Some(Duration::from_millis(300)),
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut client = Client::connect_tcp(&addr).unwrap();
    client.write(64, b"base").unwrap();
    let txn = client.txn_begin(0).unwrap();
    client.txn_write(64, b"gone", txn).unwrap();
    // Half-close: no more requests will come, but the read side stays
    // open — a client that crashed between encode and close behaves
    // exactly like this.
    client.shutdown_write().unwrap();

    let mut fresh = Client::connect_tcp(&addr).unwrap();
    let opened = Instant::now();
    loop {
        match fresh.txn_begin(0) {
            Ok(t) => {
                // The orphan was aborted: pre-transaction bytes, slot free.
                assert_eq!(fresh.read(64, 4).unwrap(), b"base");
                fresh.txn_abort(0, t).unwrap();
                break;
            }
            Err(envy_server::ClientError::Serve(ServeError::TxnBusy)) => {
                assert!(
                    opened.elapsed() < Duration::from_secs(5),
                    "half-closed connection's transaction never aborted ({driver:?})"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("txn_begin: {e}"),
        }
    }
    // After the cleanup the server closes its end, so the half-closed
    // client's read side sees EOF rather than hanging forever.
    match client.recv() {
        Err(envy_server::ClientError::Disconnected) => {}
        other => panic!("expected server-side close, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn half_closed_socket_aborts_txn_under_epoll() {
    half_close_aborts_open_txn(NetDriver::Epoll);
}

#[test]
fn half_closed_socket_aborts_txn_under_poll_backend() {
    half_close_aborts_open_txn(NetDriver::Poll);
}

/// A connection that goes fully silent (no EOF at all) is reaped by
/// the idle timeout and its transaction aborted — the teardown path
/// that EOF-based cleanup alone can never catch.
fn silent_connection_reaped_by_idle_timeout(driver: NetDriver) {
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let server = serve_with(
        listener,
        store,
        NetConfig {
            driver,
            idle_timeout: Some(Duration::from_millis(200)),
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut client = Client::connect_tcp(&addr).unwrap();
    let _txn = client.txn_begin(0).unwrap();
    // No shutdown, no EOF: the socket just goes quiet, still open.

    let mut fresh = Client::connect_tcp(&addr).unwrap();
    let opened = Instant::now();
    loop {
        // The fresh connection keeps talking, so only the silent one
        // can hit the idle timeout.
        match fresh.txn_begin(0) {
            Ok(t) => {
                fresh.txn_abort(0, t).unwrap();
                break;
            }
            Err(envy_server::ClientError::Serve(ServeError::TxnBusy)) => {
                assert!(
                    opened.elapsed() < Duration::from_secs(5),
                    "silent connection's transaction never aborted ({driver:?})"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("txn_begin: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn silent_connection_reaped_under_epoll() {
    silent_connection_reaped_by_idle_timeout(NetDriver::Epoll);
}

#[test]
fn silent_connection_reaped_under_poll_backend() {
    silent_connection_reaped_by_idle_timeout(NetDriver::Poll);
}
