//! What the traced run records from outside the program: spans around
//! the benchmark's own calls into each layer, and a counting allocator.
//!
//! Spans are kept in memory while the rounds run and reduced to a table
//! when the run ends; with tracing off a span is one predictable branch.

use crate::probe::quantile_sorted;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// The process allocator: the system allocator, counting calls and bytes
/// of every thread while [`count_allocations`] is on (traced rounds only).
pub struct CountingAlloc;

// Relaxed everywhere: these are statistics and publish no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(calls, bytes)` counted so far.
pub fn allocations() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// The boundaries the benchmark's loops cross. `Op` is one unit of
/// client work (a pipelined batch, a round trip, a transaction); the
/// others are the calls made inside it, so their parent is `Op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    Op,
    /// The `envy-workload` generator producing the next request(s).
    Generate,
    /// `Client::submit` / `ShardHandle::submit`: encode and hand over.
    Submit,
    /// `Client::flush_submits`: the write syscall of a corked batch.
    Flush,
    /// `Client::recv` / completion-channel `recv`: wait, read, decode.
    Recv,
    /// A direct call into `envy-core` (the no-server workload).
    Core,
}

const SPANS: [(Span, &str); 6] = [
    (Span::Op, "op"),
    (Span::Generate, "workload.generate"),
    (Span::Submit, "client.submit"),
    (Span::Flush, "client.flush"),
    (Span::Recv, "client.recv"),
    (Span::Core, "core.call"),
];

/// In-memory span durations (ns) of the traced rounds.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    durations: [Vec<u32>; SPANS.len()],
}

impl Spans {
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Open a span: `None` (and no clock read) when tracing is off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close a span opened by [`start`](Spans::start).
    #[inline]
    pub fn stop(&mut self, span: Span, started: Option<Instant>) {
        if let Some(s) = started {
            let ns = s.elapsed().as_nanos().min(u32::MAX as u128) as u32;
            self.durations[span as usize].push(ns);
        }
    }

    /// Run `f` as one span (for calls that open no spans themselves).
    #[inline]
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let started = self.start();
        let out = f();
        self.stop(span, started);
        out
    }

    /// Mean duration of a span in ns (0 if it never ran).
    pub fn mean_ns(&self, span: Span) -> f64 {
        let d = &self.durations[span as usize];
        if d.is_empty() {
            0.0
        } else {
            d.iter().map(|&x| x as f64).sum::<f64>() / d.len() as f64
        }
    }

    /// The span table as a JSON array: per span its parent, count, total,
    /// mean, exact p50/p99, and for `op` the self time left after its
    /// children.
    pub fn table_json(&mut self) -> String {
        let totals: Vec<f64> = self
            .durations
            .iter()
            .map(|d| d.iter().map(|&x| x as f64).sum())
            .collect();
        let children: f64 = totals[1..].iter().sum();
        let mut rows = Vec::new();
        for (i, (span, name)) in SPANS.iter().enumerate() {
            let d = &mut self.durations[i];
            if d.is_empty() {
                continue;
            }
            d.sort_unstable();
            let self_ns = if *span == Span::Op {
                totals[i] - children
            } else {
                totals[i]
            };
            rows.push(format!(
                "{{\"span\":\"{}\",\"parent\":{},\"count\":{},\"total_ms\":{:.3},\"self_ms\":{:.3},\
                 \"mean_ns\":{:.1},\"p50_ns\":{},\"p99_ns\":{}}}",
                name,
                if *span == Span::Op { "null" } else { "\"op\"" },
                d.len(),
                totals[i] / 1e6,
                self_ns / 1e6,
                totals[i] / d.len() as f64,
                quantile_sorted(d, 0.5),
                quantile_sorted(d, 0.99),
            ));
        }
        format!("[{}]", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_when_enabled() {
        let mut s = Spans::default();
        assert_eq!(s.time(Span::Submit, || 7), 7);
        assert_eq!(s.mean_ns(Span::Submit), 0.0);
        s.set_enabled(true);
        let op = s.start();
        s_sleep();
        s.stop(Span::Op, op);
        s.time(Span::Submit, || ());
        assert!(s.mean_ns(Span::Op) >= 1e6);
        let table = s.table_json();
        assert!(table.contains("\"span\":\"op\"") && table.contains("client.submit"));
    }

    fn s_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
