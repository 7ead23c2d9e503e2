#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # envy-sync — the payload byte arena of the eNVy data plane
//!
//! The Flash array's page contents and the SRAM write buffer's page
//! frames are each one flat run of page-sized byte ranges. [`ByteArena`]
//! is that run: a `Vec<u8>` whose every access names its range and
//! panics when the range leaves the arena. Copies between arenas — a
//! copy-on-write from Flash into a frame, a flush from a frame into
//! Flash — borrow the source range as a plain `&[u8]`
//! ([`ByteArena::span`]), and a Flash-to-Flash page move is one
//! `copy_within`.
//!
//! One shard owns one store and every access to it runs under the
//! shard's lock, so nothing here is shared between threads.

mod arena;

pub use arena::ByteArena;
