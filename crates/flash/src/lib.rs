#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The Flash memory substrate of the eNVy reproduction.
//!
//! eNVy (Wu & Zwaenepoel, ASPLOS '94) is built on NOR Flash organized as
//! wide memory banks: 256 byte-wide chips per bank, so a 256-byte page
//! transfers in a single memory cycle, and the smallest independently
//! erasable unit — a **segment** — is one erase block across every chip of
//! a bank (16 MB with 64 KB-block chips).
//!
//! This crate models that hierarchy at the level the controller sees it:
//! [`array::FlashArray`], the aggregate bank/segment/page array. Chips
//! within a bank operate in lock-step for page transfers, so the array
//! tracks page state per segment rather than instantiating thousands of
//! chip objects, and it is where the chips' rules (§2) live: a page is
//! programmed once, only a bulk segment erase makes it programmable
//! again, and program/erase times grow with the segment's cycle count.
//! Suspending a long operation for a host read is a timing matter and
//! belongs to `envy_core`'s `TimingState`.
//!
//! # Example
//!
//! ```
//! use envy_flash::{FlashArray, FlashGeometry, FlashTimings, PageData};
//!
//! # fn main() -> Result<(), envy_flash::FlashError> {
//! let geo = FlashGeometry::new(2, 8, 16, 256)?; // 2 banks, 8 segments
//! let mut array = FlashArray::new(geo, FlashTimings::paper(), true);
//!
//! let data = vec![0xAB; 256];
//! array.program_page(0, 0, PageData::Bytes(&data))?;
//! let mut out = vec![0; 256];
//! array.read_page(0, 0, Some(&mut out));
//! assert_eq!(out, data);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod error;
pub mod geometry;

pub use array::{FlashArray, FlashFaults, FlashStats, PageData, PageState};
pub use error::FlashError;
pub use geometry::{FlashGeometry, FlashTimings};
