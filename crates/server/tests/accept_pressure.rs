//! `accept` under descriptor exhaustion: a server that cannot take a
//! queued connection because the process is out of file descriptors
//! must shed that load — leave it queued, keep serving the connections
//! it has, accept again once a descriptor is free — not shut down.
//!
//! One test in a binary of its own: it lowers the soft `RLIMIT_NOFILE`,
//! which is process-wide, so nothing else may share the process.

use envy_server::{serve_with, Client, Listener, NetConfig, NetDriver, ServeConfig, ShardedStore};
use std::fs::File;
use std::time::{Duration, Instant};

/// `struct rlimit` (LP64), as `evloop.rs` declares it.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: i32 = 8;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Lower the soft descriptor limit so exhausting it takes a few dozen
/// opens, whatever the environment's limit is.
fn lower_nofile(soft: u64) {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid `struct rlimit` for the call to fill in.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim.cur = soft.min(lim.max);
    // SAFETY: `lim` is a valid `struct rlimit`; lowering the soft limit
    // needs no privilege.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
}

fn accept_survives_exhaustion(driver: NetDriver) {
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
    let addr = server.addr().to_string();

    // Accepted and fully set up before the descriptors run out.
    let mut old = Client::connect_tcp(&addr).unwrap();
    old.ping(0).unwrap();

    // Take every descriptor the process has left, give one back and
    // spend it on a connection. The kernel queues it; nothing else in
    // the process opens anything, so the server's `accept` must fail
    // with `EMFILE`.
    let mut held = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        held.push(f);
    }
    assert!(held.pop().is_some(), "no descriptor to give back");
    let mut queued = Client::connect_tcp(&addr).expect("one descriptor was free");

    // Hold the pressure across several accept retries (one loop tick,
    // 25 ms, apart): the connection the server already has is served
    // throughout. A server that stops on `EMFILE` closes it here.
    let until = Instant::now() + Duration::from_millis(250);
    while Instant::now() < until {
        old.ping(0)
            .expect("an established connection is served while accept cannot proceed");
    }

    // Pressure off: the queued connection is accepted, and so is a new
    // one.
    drop(held);
    queued
        .ping(0)
        .expect("the queued connection is accepted once a descriptor is free");
    let mut new = Client::connect_tcp(&addr).unwrap();
    new.ping(0).unwrap();
    old.ping(0).unwrap();

    drop((old, queued, new));
    let summary = server.shutdown();
    assert_eq!(summary.connections, 3, "{driver:?}");
}

/// Both backends pause the listener the same way, by dropping its read
/// interest for a tick (`Poller::modify`), so each arm of that is run.
#[test]
fn accept_survives_descriptor_exhaustion_under_epoll_and_poll() {
    lower_nofile(64);
    accept_survives_exhaustion(NetDriver::Epoll);
    accept_survives_exhaustion(NetDriver::Poll);
}
