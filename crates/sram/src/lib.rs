#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Battery-backed SRAM substrate for the eNVy reproduction.
//!
//! eNVy pairs its Flash array with a relatively small battery-backed SRAM
//! (§3.2–3.3): a **FIFO write buffer** absorbs copy-on-write traffic and
//! multiple writes to hot pages, and the **page table** lives in SRAM
//! because mappings change frequently and must update in place.
//!
//! This crate holds the first of the two: [`buffer::WriteBuffer`], the
//! FIFO page buffer — pages enter at the head, are flushed from the
//! tail, and track their segment of origin (needed by the
//! locality-gathering cleaner, §4.3). The page table is
//! `envy_core::page_table`, and the SRAM's 100 ns access time is charged
//! by `envy_core`'s timed store paths; there is no separate device object.

pub mod buffer;

pub use buffer::{BufferedPage, InsertError, WriteBuffer};
