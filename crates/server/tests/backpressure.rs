//! Backpressure and robustness: admission control must be explicit,
//! shutdown must drain, deadlines must surface as typed timeouts.

mod common;

use common::{until_contended, Occupant};
use envy_server::{Request, ServeConfig, ServeError, ShardedStore, SubmitError};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A single slow shard with a tiny queue, occupied by a second
/// submitter: saturating it must return typed `Busy` rejections
/// immediately — never block, never deadlock — and every admitted
/// request must still complete.
#[test]
fn full_queue_returns_busy_and_never_deadlocks() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(2)
        .with_batch_max(1)
        .with_service_delay(Duration::from_millis(4));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    let occupant = Occupant::hold(&handle);
    let probes = until_contended(&handle, &tx, &rx);

    let started = Instant::now();
    let mut admitted = 0u64;
    let mut busy = 0u64;
    for i in 0..64u64 {
        match handle.submit(
            Request::Write {
                addr: (i % 128) * 16,
                bytes: vec![i as u8; 8],
            },
            None,
            &tx,
        ) {
            Ok(_) => admitted += 1,
            Err(SubmitError::Busy(b)) => {
                busy += 1;
                assert_eq!(b.shard, 0);
                assert!(b.retry_after > Duration::ZERO);
            }
            Err(SubmitError::Rejected(e)) => panic!("unexpected rejection: {e}"),
        }
    }
    // The submit loop itself must not have blocked on the full queue.
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "submission blocked: {:?}",
        started.elapsed()
    );
    assert!(
        busy > 0,
        "a 2-deep queue behind a 4 ms/op holder must reject"
    );
    assert!(admitted > 0);

    // Every admitted request completes (the queued probe with them);
    // none are lost or duplicated.
    for _ in 0..admitted + 1 {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("admitted request must complete")
            .result
            .expect("request must succeed");
    }
    let pings = occupant.release();
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), admitted + probes + pings);
}

/// Requests admitted before a graceful shutdown complete during it.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let config = ServeConfig::small(2)
        .with_queue_capacity(64)
        .with_service_delay(Duration::from_millis(2));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    let mut admitted = 0u64;
    for i in 0..32u64 {
        let addr = (i % 2) * handle.plan().shard_bytes() + i * 32;
        if handle
            .submit(
                Request::Write {
                    addr,
                    bytes: vec![0xab; 8],
                },
                None,
                &tx,
            )
            .is_ok()
        {
            admitted += 1;
        }
    }
    // Shut down immediately: most of the queue is still pending.
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), admitted);
    let mut completed = 0u64;
    while let Ok(resp) = rx.try_recv() {
        resp.result.expect("drained write must succeed");
        completed += 1;
    }
    assert_eq!(completed, admitted, "every admitted request completes");

    // And the handle now rejects new work with a typed error.
    let err = handle
        .submit(
            Request::Write {
                addr: 0,
                bytes: vec![1; 4],
            },
            None,
            &tx,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        SubmitError::Rejected(ServeError::ShuttingDown)
    ));
}

/// Requests whose deadline lapses while they wait behind another
/// submitter complete with the typed timeout error instead of
/// executing.
#[test]
fn expired_deadlines_surface_typed_timeouts() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(64)
        .with_batch_max(64)
        .with_service_delay(Duration::from_millis(10));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    let occupant = Occupant::hold(&handle);
    let probes = until_contended(&handle, &tx, &rx);
    let deadline = Some(Duration::from_millis(1));
    let mut admitted = 0u64;
    for i in 0..8u64 {
        if handle
            .submit(
                Request::Write {
                    addr: i * 64,
                    bytes: vec![7; 8],
                },
                deadline,
                &tx,
            )
            .is_ok()
        {
            admitted += 1;
        }
    }
    let mut ok = 0u64;
    let mut timed_out = 0u64;
    // The queued probe (no deadline) is answered first: it was ahead.
    for _ in 0..admitted + 1 {
        let resp = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("completion must arrive");
        match resp.result {
            Ok(envy_server::Reply::Pong) => {}
            Ok(_) => ok += 1,
            Err(ServeError::DeadlineExceeded) => timed_out += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    // The writes queued behind a probe that takes 10 ms to serve, with
    // 1 ms to live: they must expire.
    assert!(timed_out > 0, "queued requests must expire ({ok} ok)");
    let pings = occupant.release();
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), admitted + probes + pings);
    assert_eq!(outcome.total_timed_out(), timed_out);
    // Expired writes never touched the store: host writes counted only
    // for the ones that executed.
    let stats = outcome.aggregate_stats();
    assert_eq!(stats.host_writes.get(), ok * 2, "8-byte write = 2 words");
}

/// Saturation with concurrent producers resolves: a blocked producer
/// retrying through `Busy` makes progress and the system quiesces.
#[test]
fn concurrent_producers_make_progress_under_backpressure() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(4)
        .with_batch_max(2)
        .with_service_delay(Duration::from_micros(200));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let per_thread = 40u64;
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let h = handle.clone();
            scope.spawn(move || {
                let (tx, rx) = mpsc::channel();
                for i in 0..per_thread {
                    loop {
                        match h.submit(
                            Request::Write {
                                addr: (t * per_thread + i) * 8 % 4096,
                                bytes: vec![t as u8; 8],
                            },
                            None,
                            &tx,
                        ) {
                            Ok(_) => break,
                            Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                            Err(SubmitError::Rejected(e)) => panic!("rejected: {e}"),
                        }
                    }
                }
                for _ in 0..per_thread {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("completion must arrive")
                        .result
                        .expect("write must succeed");
                }
            });
        }
    });
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), 4 * per_thread);
}
