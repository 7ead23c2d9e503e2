#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # envy-core — the eNVy controller
//!
//! A reproduction of the storage system of *eNVy: A Non-Volatile, Main
//! Memory Storage System* (Wu & Zwaenepoel, ASPLOS '94): a large Flash
//! array presented to the host as a linear, memory-mapped, word-
//! addressable array with in-place update semantics.
//!
//! The controller overcomes Flash's three deficiencies (§2) with the
//! paper's mechanisms:
//!
//! * **No update-in-place** → copy-on-write into a battery-backed SRAM
//!   write buffer plus page remapping through an SRAM page table
//!   ([`page_table`], [`engine`]).
//! * **Slow programs/erases** → FIFO write buffering, background flushing
//!   and cleaning, and suspension of long operations when the host
//!   accesses a busy bank ([`timing`]).
//! * **Limited program/erase cycles** → cleaning policies that minimize
//!   write amplification (greedy, FIFO, locality gathering, and the
//!   hybrid of §4) plus explicit wear leveling.
//!
//! The main entry point is [`EnvyStore`]:
//!
//! ```
//! use envy_core::{EnvyConfig, EnvyStore, PolicyKind};
//!
//! # fn main() -> Result<(), envy_core::EnvyError> {
//! let config = EnvyConfig::small_test().with_policy(PolicyKind::Greedy);
//! let mut store = EnvyStore::new(config)?;
//! store.write(0, &1234u32.to_le_bytes())?;
//! let mut word = [0u8; 4];
//! store.read(0, &mut word)?;
//! assert_eq!(u32::from_le_bytes(word), 1234);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod config;
pub mod engine;
pub mod error;
pub mod memory;
pub mod mmu;
pub mod page_table;
pub mod params;
pub mod stats;
pub mod store;
pub mod telemetry;
pub mod timing;
pub mod trace;
pub mod view;

pub use config::{EnvyConfig, PolicyKind};
pub use engine::{Engine, FaultPlan, InjectionPoint, ReadSource, RecoveryReport, WriteKind};
pub use error::EnvyError;
pub use memory::{Memory, VecMemory};
pub use stats::{lifetime_days, EnvyStats, TimeBreakdown};
pub use store::{EnvyStore, TimedAccess, TxnMemory, SAMPLER_COLUMNS};
pub use telemetry::{SegmentReport, SegmentSnapshot};
pub use timing::{BgKind, BgOp};
pub use trace::{TraceEvent, TraceRecord, TraceRing};
pub use view::ReadView;
