#![warn(missing_docs)]
//! # envy-sync — single-writer / multi-reader primitives for the eNVy data plane
//!
//! eNVy's front end is battery-backed memory: reads are supposed to complete
//! at memory speed even while the (single) controller mutates the page table,
//! flushes the SRAM write buffer, cleans segments, or levels wear. This crate
//! supplies the two building blocks the reproduction uses to get that
//! concurrency model without locks on the read path:
//!
//! * [`SeqEpoch`] / [`SharedEpoch`] — a seqlock-style version counter. The
//!   writer holds it **odd** for the whole duration of a mutating operation
//!   and publishes **even** values with `Release` ordering; readers snapshot
//!   an even value, copy whatever they need with plain (relaxed) atomic
//!   loads, then validate that the counter is unchanged. A failed validation
//!   means "retry", never "corrupt data".
//! * [`AtomicArena`] / [`SharedArena`] — a byte-addressed arena backed by
//!   `AtomicU64` words, so readers can copy page payloads concurrently with
//!   the writer without data races. Torn *word-level* reads are impossible;
//!   torn *multi-word* reads are caught by the epoch validation and retried.
//!   The owner handle alone can store, and only through `&mut self`, so its
//!   own reads and arena-to-arena copies ([`ArenaSpan`]) are plain `memcpy`s
//!   — the data plane's only `unsafe`, confined to this crate.
//! * [`SharedWords`] / [`SharedSlots`] — shared arrays of `u64` / `u32`
//!   entries (packed page-table words, MMU tags, SRAM buffer index slots)
//!   with single-word atomic access. A single word is always internally
//!   consistent; cross-word consistency again comes from the epoch.
//!
//! ## Memory-ordering contract (the seqlock recipe)
//!
//! * Writer: `write_begin` stores the odd value relaxed then issues a
//!   `Release` fence (so the odd marker is visible before any data stores);
//!   `write_end` stores the even value with `Release` (so all data stores
//!   are visible before the new even value).
//! * Reader: `optimistic_read` loads the counter with `Acquire`; data loads
//!   may be `Relaxed`; `validate` issues an `Acquire` fence **before**
//!   re-loading the counter, so no data load can be reordered after the
//!   validation load.
//!
//! All mutating containers here assume a **single writer at a time**; the
//! sub-word read-modify-write paths in [`AtomicArena`] are not atomic with
//! respect to other writers. The eNVy store upholds this by construction:
//! one shard owns one store, and every mutating entry point runs on that
//! shard's writer thread under one epoch guard.

mod arena;
mod epoch;
mod words;

pub use arena::{ArenaSpan, ArenaView, AtomicArena, SharedArena};
pub use epoch::{EpochView, EpochWriteGuard, SeqEpoch, SharedEpoch};
pub use words::{SharedSlots, SharedWords, SlotsView, WordsView};
