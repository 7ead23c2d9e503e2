//! Honest contention for the serving tests. A shard runs each request
//! on the thread that submits it, so a lone submitter never queues:
//! to fill a queue or let a deadline lapse, a second thread has to be
//! inside the shard at the time.

#![allow(dead_code)] // each test binary uses its own part of this

use envy_core::EnvyStore;
use envy_server::{Request, Response, ShardHandle, SubmitError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
/// back to back, each one holding the shard for the configured
/// `service_delay` (pings never touch the store, so store statistics
/// stay the test's own).
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

/// Probe shard 0 with pings until one is *queued* rather than run: a
/// request that ran on this thread has its completion on `rx` when
/// `submit` returns, so an empty channel proves someone else is inside
/// the shard — and has to stay inside for at least one more
/// `service_delay`, the probe's own. Returns the number of probes
/// admitted; the last one's completion is still due on `rx`.
pub fn until_contended(
    handle: &ShardHandle,
    tx: &Sender<Response>,
    rx: &Receiver<Response>,
) -> u64 {
    let started = Instant::now();
    let mut probes = 0;
    loop {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the occupant never got inside the shard"
        );
        match handle.submit(Request::Ping { shard: 0 }, None, tx) {
            Ok(_) => probes += 1,
            Err(SubmitError::Busy(b)) => {
                std::thread::sleep(b.retry_after);
                continue;
            }
            Err(SubmitError::Rejected(e)) => panic!("probe rejected: {e}"),
        }
        match rx.try_recv() {
            Ok(resp) => {
                resp.result.expect("probe ping");
                // A thread that keeps submitting keeps the shard (it
                // serves what others queue behind it, then finds the
                // lock free again): step back to let the occupant in.
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(TryRecvError::Empty) => return probes,
            Err(TryRecvError::Disconnected) => unreachable!("tx is alive"),
        }
    }
}
