//! Allocations on the client's hot path, counted on the calling thread:
//! after warm-up a `Client::submit` allocates nothing, corked or not,
//! and `recv` of a KV hit allocates exactly once — the value it returns.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. The count is per thread, so the server's event loop,
//! running in this process, does not show in it.

use envy_server::proto::WireOutcome;
use envy_server::{serve, Client, Listener, Reply, Request, ServeConfig, ShardedStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a const-
// initialised thread-local that touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Pipeline depth of a corked batch.
const BATCH: u64 = 10;

#[test]
fn submit_allocates_nothing_and_a_kv_hit_allocates_its_value() {
    let config = ServeConfig::small(1);
    let shard_bytes = envy_core::EnvyStore::new(config.store.clone())
        .unwrap()
        .size();
    let server = serve(
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ShardedStore::launch(config).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.addr()).unwrap();
    client.kv_put(0, 1, &[0xC3; 100], 0).unwrap();
    let txn = client.txn_begin(0).unwrap();
    // Raw writes stay in the top half, clear of the KV index.
    let addr = shard_bytes / 2;
    let request = |i: u64| match i % 3 {
        0 => Request::KvGet { shard: 0, key: 1 },
        1 => Request::KvPut {
            shard: 0,
            key: 2 + i % 64,
            txn: 0,
            value: vec![i as u8; 100],
        },
        _ => Request::TxnWrite {
            addr: addr + (i % 8) * 64,
            bytes: vec![i as u8; 64],
            txn,
        },
    };

    // The measured pass, run once first as warm-up so that every buffer
    // has reached its working size. Requests are built outside the
    // count: their payloads are the caller's allocations.
    let mut measure = || {
        let mut submit_allocs = 0;
        let mut i = 0;
        for (corked, depth) in [(false, 1), (true, BATCH)] {
            client.set_corked(corked).unwrap();
            for _ in 0..500 / depth {
                for _ in 0..depth {
                    let req = request(i);
                    let (id, n) = allocs_in(|| client.submit(req, None));
                    id.unwrap();
                    submit_allocs += n;
                    i += 1;
                }
                for _ in 0..depth {
                    let resp = client.recv().unwrap();
                    assert!(
                        matches!(resp.outcome, WireOutcome::Reply(_)),
                        "{:?}",
                        resp.outcome
                    );
                }
            }
        }
        assert_eq!(i, 1_000);
        client.set_corked(false).unwrap();
        client
            .submit(Request::KvGet { shard: 0, key: 1 }, None)
            .unwrap();
        let (resp, recv_allocs) = allocs_in(|| client.recv());
        assert_eq!(
            resp.unwrap().outcome,
            WireOutcome::Reply(Reply::KvValue(Some(vec![0xC3; 100])))
        );
        (submit_allocs, recv_allocs)
    };
    measure();
    let (submit_allocs, recv_allocs) = measure();
    assert_eq!(submit_allocs, 0, "allocations in 1 000 submits");
    assert_eq!(recv_allocs, 1, "allocations in the recv of a KV hit");

    client.txn_commit(0, txn).unwrap();
    drop(client);
    server.shutdown();
}
