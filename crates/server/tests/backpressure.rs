//! Backpressure and robustness: admission control must be explicit,
//! shutdown must lose nothing, deadlines must surface as typed timeouts.

mod common;

use common::{until_contended, until_waiting, Occupant, STEP_BACK};
use envy_server::{
    run_inproc, LoadSpec, Request, ServeConfig, ServeError, ShardedStore, SubmitError,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A single slow shard that admits two waiters, occupied by a second
/// submitter: once two more threads wait behind it, a further submit
/// must be refused with a typed `Busy` at once — never block, never
/// deadlock — and every admitted request must still complete.
#[test]
fn full_queue_returns_busy_and_never_deadlocks() {
    const CAPACITY: usize = 2;
    let config = ServeConfig::small(1)
        .with_queue_capacity(CAPACITY)
        .with_service_delay(Duration::from_millis(4));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    let occupant = Occupant::hold(&handle);
    // Helpers that keep writing, so that at any moment up to CAPACITY
    // of the three contending threads wait for the shard.
    let stop = Arc::new(AtomicBool::new(false));
    let helpers: Vec<_> = (0..CAPACITY as u64)
        .map(|t| {
            let (h, tx, stop) = (handle.clone(), tx.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut admitted = 0u64;
                for i in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let write = Request::Write {
                        addr: (t * 64 + i % 64) * 16,
                        bytes: vec![i as u8; 8],
                    };
                    match h.submit(write, None, &tx) {
                        Ok(_) => admitted += 1,
                        Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                        Err(SubmitError::Rejected(e)) => panic!("unexpected rejection: {e}"),
                    }
                    std::thread::sleep(STEP_BACK);
                }
                admitted
            })
        })
        .collect();

    let mut admitted = 0u64;
    let mut busy = 0u64;
    for i in 0..8u64 {
        until_waiting(&handle, CAPACITY);
        let started = Instant::now();
        let write = Request::Write {
            addr: (i % 128) * 16,
            bytes: vec![i as u8; 8],
        };
        match handle.submit(write, None, &tx) {
            // A waiter took the shard between the look and the submit:
            // this one waited its turn and ran.
            Ok(_) => admitted += 1,
            Err(SubmitError::Busy(b)) => {
                busy += 1;
                assert_eq!(b.shard, 0);
                assert!(b.retry_after > Duration::ZERO);
                // The refusal itself must not have blocked.
                assert!(
                    started.elapsed() < Duration::from_secs(1),
                    "refusal blocked: {:?}",
                    started.elapsed()
                );
            }
            Err(SubmitError::Rejected(e)) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(
        busy > 0,
        "a shard that admits 2 waiters, with 2 waiting behind a 4 ms/op holder, must refuse"
    );

    // Every admitted request completes; none are lost or duplicated.
    stop.store(true, Ordering::SeqCst);
    let helped: u64 = helpers.into_iter().map(|h| h.join().unwrap()).sum();
    for _ in 0..admitted + helped {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("admitted request must complete")
            .result
            .expect("request must succeed");
    }
    let pings = occupant.release();
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), admitted + helped + pings);
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
    // Shut down at once. A lone submitter ran each write before its
    // `submit` returned, so there is nothing left to wait out
    // (`run_to_completion.rs` races shutdown against live submitters).
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), admitted);
    let mut completed = 0u64;
    while let Ok(resp) = rx.try_recv() {
        resp.result.expect("admitted write must succeed");
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
        .with_service_delay(Duration::from_millis(10));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    let occupant = Occupant::hold(&handle);
    let probe = until_contended(&handle, &tx);
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
    let probes = probe.join().unwrap();
    let mut ok = 0u64;
    let mut timed_out = 0u64;
    for _ in 0..admitted + probes {
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
    // The writes waited behind a holder that takes 10 ms to serve, with
    // 1 ms to live: they must expire.
    assert!(timed_out > 0, "waiting requests must expire ({ok} ok)");
    let pings = occupant.release();
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), admitted + probes + pings);
    assert_eq!(outcome.total_timed_out(), timed_out);
    // Expired writes never touched the store: host writes counted only
    // for the ones that executed.
    let stats = outcome.aggregate_stats();
    assert_eq!(stats.host_writes.get(), ok * 2, "8-byte write = 2 words");
}

/// Saturation with concurrent producers resolves: four producers on a
/// shard that admits two waiters, so one is refused whenever the other
/// three wait; a refused producer retrying through `Busy` makes
/// progress and the system quiesces.
#[test]
fn concurrent_producers_make_progress_under_backpressure() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(2)
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

/// Backpressure: a slow shard that admits two waiters must reject with
/// `Busy { retry_after }`, and the loadgen's hinted-backoff retry loop
/// must still complete every transaction (no request lost, no error).
#[test]
fn busy_retries_complete_all_transactions() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(2)
        .with_service_delay(Duration::from_micros(200));
    let store = ShardedStore::launch(config).unwrap();
    let spec = LoadSpec::closed(4, 10);
    let report = run_inproc(&store.handle(), &spec);
    let outcome = store.shutdown();
    assert!(
        report.busy_retries > 0,
        "a shard admitting 2 waiters under 4 clients must reject"
    );
    assert_eq!(report.completed_txns, 40, "retries must finish every txn");
    assert_eq!(report.errors, 0);
    assert_eq!(report.completed_ops, outcome.total_served());
}
