#![warn(missing_docs)]
//! # envy — a reproduction of the eNVy non-volatile main-memory storage system
//!
//! This is the umbrella crate of the workspace: it re-exports every
//! subsystem so examples and downstream users can depend on a single crate.
//!
//! * [`core`] — the eNVy controller: copy-on-write, page remapping, the
//!   SRAM write buffer, cleaning policies, wear leveling, and the timing
//!   model (the paper's primary contribution).
//! * [`flash`] — the Flash array substrate (chips, banks, segments).
//! * [`sram`] — the battery-backed SRAM substrate.
//! * [`sim`] — simulated time, deterministic PRNG, distributions, stats.
//! * [`btree`] — an order-32 B-Tree over the linear memory interface.
//! * [`workload`] — TPC-A and synthetic access-pattern generators.
//! * [`heap`] — a persistent free-list allocator.
//! * [`kv`] — a key-value store layering a [`btree`] index over [`heap`]
//!   records: variable-size values, ordered scans, delete.
//! * [`server`] — a sharded concurrent front end: passive shards that
//!   run each request on its submitter's thread, bounded queues and
//!   backpressure under contention, a binary wire
//!   protocol over TCP/Unix sockets, and a multi-client load generator.
//!
//! ## Quickstart
//!
//! ```
//! use envy::core::{EnvyConfig, EnvyStore};
//!
//! # fn main() -> Result<(), envy::core::EnvyError> {
//! // A small array: 16 segments of 64 pages of 256 bytes.
//! let config = EnvyConfig::small_test();
//! let mut store = EnvyStore::new(config)?;
//!
//! // Word-addressable, in-place-update semantics over Flash.
//! store.write(0x1000, &42u64.to_le_bytes())?;
//! let mut buf = [0u8; 8];
//! store.read(0x1000, &mut buf)?;
//! assert_eq!(u64::from_le_bytes(buf), 42);
//! # Ok(())
//! # }
//! ```

pub use envy_btree as btree;
pub use envy_core as core;
pub use envy_flash as flash;
pub use envy_heap as heap;
pub use envy_kv as kv;
pub use envy_server as server;
pub use envy_sim as sim;
pub use envy_sram as sram;
pub use envy_workload as workload;
