//! Allocations on the event loop's path, counted across the whole
//! process: after warm-up, a pipelined `KV_GET` hit allocates exactly
//! twice — the value the shard reads out of the store, and the value
//! the client decodes. A request the loop runs itself goes straight to
//! its connection's write queue, so the completion channel (one block
//! per 31 messages) and the `pending` map never see it.
//!
//! A test binary of its own, because it installs a counting global
//! allocator. Unlike `client_alloc.rs` the count is process-wide: it
//! covers the event-loop thread and the client alike.

use envy_server::proto::WireOutcome;
use envy_server::{serve, Client, Listener, Reply, Request, ServeConfig, ShardedStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a static
// atomic that touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests per corked batch. One completion-channel block holds 31
/// messages, so a loop that still sent its own completions through the
/// channel would allocate once more per batch.
const DEPTH: u64 = 31;
/// Batches per measured pass.
const BATCHES: u64 = 100;

#[test]
fn a_pipelined_kv_hit_allocates_only_its_two_values() {
    let mut config = ServeConfig::small(1);
    // A queue-depth row is a `Vec`, recorded once per window: make the
    // first window outlast the test.
    config.depth_window = Duration::from_secs(3_600);
    let path = std::env::temp_dir().join(format!("envy-loop-alloc-{}.sock", std::process::id()));
    let server = serve(
        Listener::bind_unix(&path).unwrap(),
        ShardedStore::launch(config).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect_unix(&path).unwrap();
    let value = [0xC3; 100];
    client.kv_put(0, 1, &value, 0).unwrap();

    // The measured pass, run once first as warm-up so that every buffer
    // on both sides has reached its working size.
    let mut pass = || {
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..BATCHES {
            client.set_corked(true).unwrap();
            for _ in 0..DEPTH {
                client
                    .submit(Request::KvGet { shard: 0, key: 1 }, None)
                    .unwrap();
            }
            client.set_corked(false).unwrap();
            for _ in 0..DEPTH {
                let resp = client.recv().unwrap();
                assert!(
                    matches!(
                        &resp.outcome,
                        WireOutcome::Reply(Reply::KvValue(Some(v))) if v[..] == value
                    ),
                    "{:?}",
                    resp.outcome
                );
            }
        }
        ALLOCS.load(Ordering::SeqCst) - before
    };
    pass();
    let allocs = pass();
    assert_eq!(
        allocs,
        2 * DEPTH * BATCHES,
        "allocations in {} pipelined KV hits",
        DEPTH * BATCHES
    );

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
