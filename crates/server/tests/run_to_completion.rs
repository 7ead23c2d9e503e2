//! Run to completion: a shard is a passive object — a lock around its
//! store, a bounded queue beside it — and every request runs on the
//! thread that submits it, or on the thread that held the lock when it
//! arrived. These tests hold that design to its contract: one
//! admission order per shard, no stranded job, no `Busy` without
//! contention, no thread of its own, and a shutdown that loses nothing.

mod common;

use common::contents_digest;
use envy_core::EnvyStore;
use envy_server::shard::apply;
use envy_server::{
    ReadPath, Request, Response, ServeConfig, ServeError, ShardHandle, ShardedStore, SubmitError,
};
use envy_sim::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// Submit through `Busy`, the way every client is meant to.
fn submit_retrying(h: &ShardHandle, id: u64, req: &Request, tx: &mpsc::Sender<Response>) {
    loop {
        match h.submit_with_id(id, req.clone(), None, tx) {
            Ok(()) => return,
            Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
            Err(SubmitError::Rejected(e)) => panic!("rejected: {e}"),
        }
    }
}

/// (a) K submitters × M requests on one shard, all completing onto one
/// channel. Completions leave a shard in execution order (they are
/// posted while it is held), so: each submitter's come back in the
/// order it submitted them, every admitted request is served exactly
/// once, and replaying the completion sequence through a direct
/// `apply` on a fork of the same baseline reproduces every reply, the
/// simulated clock, every statistic and the final bytes.
#[test]
fn submitters_interleave_in_one_admission_order() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    // The request behind an id — overlapping addresses across
    // submitters, so the interleaving shows in the bytes. Raw accesses
    // keep to the top half of the shard: the KV region's index grows
    // from its base, and a raw write there forges B-Tree nodes.
    fn request(id: u64, shard_bytes: u64) -> Request {
        let (t, i) = (id >> 32, id & 0xffff_ffff);
        let addr = shard_bytes / 2 + ((t * 7 + i * 13) % 64) * 16;
        match i % 3 {
            0 => Request::Read { addr, len: 16 },
            1 => Request::Write {
                addr,
                bytes: vec![(id % 251) as u8; 16],
            },
            _ => Request::KvPut {
                shard: 0,
                key: (t + i) % 32,
                txn: 0,
                value: vec![(id % 241) as u8; 24],
            },
        }
    }

    let config = ServeConfig::small(1);
    let mut baseline = EnvyStore::new(config.store.clone()).unwrap();
    baseline.prefill().unwrap();
    let mut replay = baseline.fork();
    let store = ShardedStore::launch_from(vec![baseline.fork()], &config);
    let handle = store.handle();
    let shard_bytes = handle.plan().shard_bytes();
    let (tx, rx) = mpsc::channel();
    let start = Barrier::new(THREADS as usize);
    let completions: Vec<Response> = std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (h, tx, start) = (handle.clone(), tx.clone(), &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let id = t << 32 | i;
                    submit_retrying(&h, id, &request(id, shard_bytes), &tx);
                }
            });
        }
        drop(tx);
        rx.iter().collect()
    });
    assert_eq!(completions.len() as u64, THREADS * PER_THREAD);

    let mut next = [0u64; THREADS as usize];
    for resp in &completions {
        let (t, i) = ((resp.id >> 32) as usize, resp.id & 0xffff_ffff);
        assert_eq!(i, next[t], "submitter {t}'s completions out of order");
        next[t] += 1;
        assert_eq!(
            resp.result,
            apply(&mut replay, &request(resp.id, shard_bytes)),
            "request {:#x} answered differently from the replay",
            resp.id
        );
    }
    let mut outcome = store.shutdown();
    let shard = &mut outcome.shards[0];
    assert_eq!(shard.served, THREADS * PER_THREAD, "served == admitted");
    assert!(shard.batches <= shard.served);
    assert_eq!(shard.store.now(), replay.now(), "simulated clock");
    assert_eq!(shard.store.stats(), replay.stats(), "controller statistics");
    assert_eq!(
        contents_digest(&mut shard.store),
        contents_digest(&mut replay)
    );
}

/// (b) Two submitters meet at the idle boundary, over and over: one is
/// leaving the shard as the other queues behind it. Whoever acts second
/// must see the other, or the queued job waits for a holder that never
/// comes — nobody else submits, so the watchdog below would fire.
#[test]
fn no_job_is_stranded_at_the_idle_boundary() {
    const ROUNDS: u64 = 20_000;
    let store = ShardedStore::launch(ServeConfig::small(1)).unwrap();
    let handle = store.handle();
    let round = Barrier::new(2);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (h, round) = (handle.clone(), &round);
            scope.spawn(move || {
                let mut rng = Rng::seed_from(0x1D1E + t);
                let (tx, rx) = mpsc::channel();
                for i in 0..ROUNDS {
                    round.wait();
                    // A seeded stagger of a few tens of nanoseconds
                    // walks the two submits across each other.
                    for _ in 0..rng.below(48) {
                        std::hint::spin_loop();
                    }
                    let req = if i % 2 == t {
                        Request::Ping { shard: 0 }
                    } else {
                        Request::Write {
                            addr: (i % 64) * 16,
                            bytes: vec![t as u8; 8],
                        }
                    };
                    submit_retrying(&h, i, &req, &tx);
                    // The watchdog. The other submitter is parked at the
                    // barrier by now, so a panic here would hang the
                    // scope instead of failing the test: abort.
                    let resp = rx
                        .recv_timeout(Duration::from_secs(10))
                        .unwrap_or_else(|_| {
                            eprintln!("round {i}: submitter {t}'s job is stranded in the queue");
                            std::process::abort();
                        });
                    assert_eq!(resp.id, i);
                    resp.result.expect("request must succeed");
                }
            });
        }
    });
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), 2 * ROUNDS);
}

/// (c) Without a second submitter there is nothing to queue behind: a
/// lone thread runs every request itself and never sees `Busy`, however
/// small the queue and however slow the shard — and each answer is
/// there when `submit` returns.
#[test]
fn lone_submitter_is_never_busy() {
    let config = ServeConfig::small(1)
        .with_queue_capacity(1)
        .with_service_delay(Duration::from_micros(100));
    let store = ShardedStore::launch(config).unwrap();
    let handle = store.handle();
    let (tx, rx) = mpsc::channel();
    for i in 0..200u64 {
        let write = Request::Write {
            addr: (i % 128) * 16,
            bytes: vec![i as u8; 8],
        };
        let id = handle.submit(write, None, &tx).expect("never refused");
        assert_eq!(rx.try_recv().expect("completed inline").id, id);
        assert_eq!(handle.queue_depth(0), 0);
    }
    let outcome = store.shutdown();
    assert_eq!(outcome.total_served(), 200);
    let shard = &outcome.shards[0];
    assert_eq!(shard.batches, 200, "an inline run is a batch of 1");
    assert_eq!(shard.max_batch, 1);
}

/// This process's threads named `envy-shard-*`, each with its count of
/// voluntary context switches (one per sleep: what a polling thread
/// accrues while idle).
#[cfg(target_os = "linux")]
fn shard_threads() -> Vec<(String, u64)> {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        // A thread may exit between the listing and the reads.
        let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        if comm.starts_with("envy-shard") {
            let switches = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("voluntary_ctxt_switches in status");
            found.push((comm.trim().to_string(), switches));
        }
    }
    found
}

/// (d) A launched store owns no thread and, idle, wakes nothing — on
/// either read path. Nothing in the shard layer spawns any more, so the
/// probe is checked against a thread this test starts itself: named
/// like a shard's and polling every 10 ms, as the shard workers and
/// reader threads this design replaced did.
#[cfg(target_os = "linux")]
#[test]
fn a_launched_store_owns_no_thread_and_an_idle_one_never_wakes() {
    let idle = Duration::from_millis(200);
    for path in [ReadPath::Timed, ReadPath::Inline] {
        let store = ShardedStore::launch(ServeConfig::small(4).with_read_path(path)).unwrap();
        let handle = store.handle();
        for shard in 0..4 {
            handle.call(Request::Ping { shard }).unwrap();
            let addr = u64::from(shard) * handle.plan().shard_bytes();
            handle.call(Request::Read { addr, len: 8 }).unwrap();
        }
        std::thread::sleep(idle);
        assert_eq!(shard_threads(), vec![], "{path:?} owns no thread");
        store.shutdown();
    }

    let (stop, stopped) = mpsc::channel::<()>();
    let control = std::thread::Builder::new()
        .name("envy-shard-probe".into())
        .spawn(
            move || {
                while stopped.recv_timeout(Duration::from_millis(10)).is_err() {}
            },
        )
        .unwrap();
    // A new thread names itself, a moment after it is spawned (and
    // `comm` keeps 15 bytes of the name).
    let named = std::time::Instant::now();
    while shard_threads().is_empty() && named.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    let before = shard_threads();
    std::thread::sleep(idle);
    let after = shard_threads();
    assert_eq!(before.len(), 1, "one control thread: {before:?}");
    assert_eq!(before[0].0, after[0].0);
    assert!(
        after[0].1 - before[0].1 >= 5,
        "the probe must see a polling thread wake: {before:?} -> {after:?}"
    );
    stop.send(()).unwrap();
    control.join().unwrap();
}

/// (e) `shutdown()` racing live submitters: every request admitted
/// before or during it completes, nothing is admitted after it, and
/// the outcome accounts for exactly the admitted ones.
#[test]
fn shutdown_racing_submitters_loses_nothing() {
    const THREADS: u64 = 4;
    for round in 0..20u64 {
        let config = ServeConfig::small(2).with_queue_capacity(8);
        let store = ShardedStore::launch(config).unwrap();
        let handle = store.handle();
        let base = handle.plan().shard_bytes();
        let running = Arc::new(AtomicBool::new(false));
        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let (h, running) = (handle.clone(), Arc::clone(&running));
                std::thread::spawn(move || {
                    let (tx, rx) = mpsc::channel();
                    let mut admitted = 0u64;
                    for i in 0.. {
                        let write = Request::Write {
                            addr: (i % 2) * base + (t * 64 + i % 64) * 8,
                            bytes: vec![t as u8; 8],
                        };
                        match h.submit(write, None, &tx) {
                            Ok(_) => admitted += 1,
                            Err(SubmitError::Busy(_)) => std::thread::yield_now(),
                            Err(SubmitError::Rejected(ServeError::ShuttingDown)) => break,
                            Err(SubmitError::Rejected(e)) => panic!("rejected: {e}"),
                        }
                        running.store(true, Ordering::SeqCst);
                    }
                    // Closed stays closed.
                    for _ in 0..3 {
                        let ping = Request::Ping { shard: 0 };
                        assert!(matches!(
                            h.submit(ping, None, &tx),
                            Err(SubmitError::Rejected(ServeError::ShuttingDown))
                        ));
                    }
                    (admitted, rx)
                })
            })
            .collect();
        while !running.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_micros(50 * round));
        let outcome = store.shutdown();
        let mut admitted = 0;
        for s in submitters {
            let (mine, rx) = s.join().expect("submitter");
            let completed: Vec<Response> = rx.try_iter().collect();
            assert!(completed.iter().all(|r| r.result.is_ok()));
            assert_eq!(
                completed.len() as u64,
                mine,
                "every admitted request completes"
            );
            admitted += mine;
        }
        assert!(admitted > 0);
        assert_eq!(outcome.total_served(), admitted, "round {round}");
    }
}
