//! Honest contention for the serving tests. A shard runs each request
//! on the thread that submits it, so a lone submitter never waits: to
//! make a request wait, be refused with `Busy` or let a deadline lapse,
//! a second thread has to be inside the shard at the time.

#![allow(dead_code)] // each test binary uses its own part of this

use envy_core::EnvyStore;
use envy_server::{Request, Response, ShardHandle, SubmitError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a thread that keeps submitting steps back after each
/// request, outside the shard. A shard's lock hands over to whoever
/// takes it first, not to whoever waited longest: a thread that takes
/// it again at once can keep a waiter out for seconds.
pub const STEP_BACK: Duration = Duration::from_micros(200);

/// FNV-1a over a store's whole logical array: the stable,
/// dependency-free digest the differential anchors compare.
pub fn contents_digest(store: &mut EnvyStore) -> u64 {
    let mut buf = vec![0u8; store.size() as usize];
    store.read(0, &mut buf).unwrap();
    buf.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A second submitter that keeps shard 0 occupied: it calls `Ping`
/// again and again, each one holding the shard for the configured
/// `service_delay` (pings never touch the store, so store statistics
/// stay the test's own), and steps back for [`STEP_BACK`] after each.
pub struct Occupant {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

impl Occupant {
    pub fn hold(handle: &ShardHandle) -> Occupant {
        let stop = Arc::new(AtomicBool::new(false));
        let (h, flag) = (handle.clone(), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let mut pings = 0;
            while !flag.load(Ordering::SeqCst) {
                h.call(Request::Ping { shard: 0 }).expect("occupant ping");
                pings += 1;
                std::thread::sleep(STEP_BACK);
            }
            pings
        });
        Occupant { stop, thread }
    }

    /// Stop occupying; returns how many pings the shard served for it.
    pub fn release(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("occupant thread")
    }
}

/// Wait until at least `n` requests wait for shard 0.
pub fn until_waiting(handle: &ShardHandle, n: usize) {
    let started = Instant::now();
    while handle.queue_depth(0) < n {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "never saw {n} requests waiting for the shard"
        );
        std::thread::sleep(Duration::from_micros(20));
    }
}

/// Probe shard 0 with pings from a helper thread, posting onto `tx`,
/// until one request is seen waiting for the shard: someone is inside
/// it then, and the waiter will hold it after them for at least one
/// more `service_delay`. Returns the helper, whose `join` gives the
/// number of probes admitted; each of them completes on `tx`.
pub fn until_contended(handle: &ShardHandle, tx: &Sender<Response>) -> JoinHandle<u64> {
    let stop = Arc::new(AtomicBool::new(false));
    let (h, tx, flag) = (handle.clone(), tx.clone(), Arc::clone(&stop));
    let probe = std::thread::spawn(move || {
        let mut probes = 0;
        while !flag.load(Ordering::SeqCst) {
            match h.submit(Request::Ping { shard: 0 }, None, &tx) {
                Ok(_) => probes += 1,
                Err(SubmitError::Busy(b)) => std::thread::sleep(b.retry_after),
                Err(SubmitError::Rejected(e)) => panic!("probe rejected: {e}"),
            }
            std::thread::sleep(STEP_BACK);
        }
        probes
    });
    until_waiting(handle, 1);
    stop.store(true, Ordering::SeqCst);
    probe
}
