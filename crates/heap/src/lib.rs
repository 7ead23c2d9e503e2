#![warn(missing_docs)]
//! # envy-heap — persistent in-memory data structures over eNVy
//!
//! §1 of the paper argues that word-addressable non-volatile memory lets
//! applications keep their data structures *directly* in stable storage
//! ("substantial reductions in code size and in instruction pathlengths"),
//! and §7 points at the main-memory database work (Starburst) that
//! benefits. This crate supplies the primitive such applications need on
//! top of the raw array, [`Arena`]: a persistent free-list allocator —
//! `alloc`/`free` inside a region of the array, with all metadata stored
//! in the array itself so the heap survives restarts and power failures.
//! `envy-kv` keeps its records in one.
//!
//! It works over any [`envy_core::Memory`] — plain RAM for tests, an
//! [`envy_core::EnvyStore`] for the real thing.
//!
//! ```
//! use envy_core::{Memory, VecMemory};
//! use envy_heap::Arena;
//!
//! # fn main() -> Result<(), envy_heap::HeapError> {
//! let mut mem = VecMemory::new(64 * 1024);
//! let mut arena = Arena::create(&mut mem, 0, 64 * 1024)?;
//! let addr = arena.alloc(&mut mem, 100)?;
//! mem.write(addr, b"persistent bytes!")?;
//! arena.free(&mut mem, addr)?;
//! # Ok(())
//! # }
//! ```

mod arena;

pub use arena::{Arena, ArenaStats};

use envy_core::EnvyError;
use std::error::Error;
use std::fmt;

/// Errors from the persistent heap structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The region does not contain the expected structure.
    BadMagic,
    /// The region cannot satisfy the request.
    OutOfSpace,
    /// `free` was called on an address that is not an allocated block.
    NotABlock {
        /// The offending address.
        addr: u64,
    },
    /// An allocation size was zero or absurd.
    BadSize {
        /// The requested size.
        size: u64,
    },
    /// An error from the underlying memory.
    Memory(EnvyError),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::BadMagic => write!(f, "region does not contain this structure"),
            HeapError::OutOfSpace => write!(f, "region out of space"),
            HeapError::NotABlock { addr } => {
                write!(f, "address {addr:#x} is not an allocated block")
            }
            HeapError::BadSize { size } => write!(f, "invalid allocation size {size}"),
            HeapError::Memory(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl Error for HeapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HeapError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnvyError> for HeapError {
    fn from(e: EnvyError) -> HeapError {
        HeapError::Memory(e)
    }
}
