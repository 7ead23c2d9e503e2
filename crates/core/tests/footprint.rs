//! Host memory per logical page: the bytes `EnvyStore::new` allocates
//! for a state-only store, counted by a global allocator. The page table
//! holds one 32-bit word per logical page (Flash page or SRAM frame) and
//! one reverse entry per physical page, and the Flash array one state
//! byte per physical page; at 0.8 utilisation that is about 10.6 bytes
//! per logical page. A second per-page structure — the write buffer's
//! old logical-page index, or a 64-bit forward word — pushes it past 11.
//!
//! A test binary of its own, because it installs a counting global
//! allocator.

use envy_core::{EnvyConfig, EnvyStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a static
// atomic that touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_state_only_store_allocates_at_most_11_bytes_per_logical_page() {
    // The benchmark's tpca_sim geometry: 8 banks, 128 segments of 8192
    // 256-byte pages, 80 % utilisation, no payload bytes.
    let config = EnvyConfig::scaled(8, 128, 8192, 256)
        .with_utilization(0.8)
        .with_store_data(false);
    let logical_pages = config.logical_pages;
    let before = BYTES.load(Ordering::SeqCst);
    let store = EnvyStore::new(config).unwrap();
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    drop(store);
    let per_page = bytes as f64 / logical_pages as f64;
    assert!(
        per_page <= 11.0,
        "EnvyStore::new allocated {bytes} B for {logical_pages} logical pages ({per_page:.2} B/page)"
    );
}
