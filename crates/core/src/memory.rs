//! The linear-memory interface eNVy exposes (§1): "access to this
//! permanent storage system should be provided by means of word-sized
//! reads and writes, just as with conventional memory".
//!
//! Data structures built on top of eNVy (the B-Tree, the heap arena, the
//! KV store) program against [`Memory`] so they also run on plain RAM
//! ([`VecMemory`]) for differential testing.

use crate::error::EnvyError;

/// A byte-addressable, bounded linear memory.
pub trait Memory {
    /// Size of the address space in bytes.
    fn size(&self) -> u64;

    /// Read `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`] if the range exceeds the address space.
    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EnvyError>;

    /// Write `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`EnvyError::OutOfBounds`] if the range exceeds the address space.
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnvyError>;
}

/// Plain-RAM implementation of [`Memory`] for tests and baselines.
#[derive(Debug, Clone)]
pub struct VecMemory {
    data: Vec<u8>,
}

impl VecMemory {
    /// Create a zeroed memory of `size` bytes.
    pub fn new(size: u64) -> VecMemory {
        VecMemory {
            data: vec![0; size as usize],
        }
    }

    fn check(&self, addr: u64, len: usize) -> Result<(), EnvyError> {
        if addr + len as u64 > self.data.len() as u64 {
            return Err(EnvyError::OutOfBounds {
                addr,
                size: self.data.len() as u64,
            });
        }
        Ok(())
    }
}

impl Memory for VecMemory {
    fn size(&self) -> u64 {
        self.data.len() as u64
    }

    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EnvyError> {
        self.check(addr, buf.len())?;
        let start = addr as usize;
        buf.copy_from_slice(&self.data[start..start + buf.len()]);
        Ok(())
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnvyError> {
        self.check(addr, bytes.len())?;
        let start = addr as usize;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_memory_roundtrip() {
        let mut m = VecMemory::new(64);
        assert_eq!(m.size(), 64);
        m.write(10, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        m.read(10, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn vec_memory_bounds() {
        let mut m = VecMemory::new(8);
        assert!(m.write(6, &[0; 3]).is_err());
        let mut buf = [0u8; 9];
        assert!(m.read(0, &mut buf).is_err());
        // Exactly at the boundary is fine.
        m.write(5, &[0; 3]).unwrap();
    }

    #[test]
    fn trait_object_usable() {
        let mut m = VecMemory::new(16);
        let mem: &mut dyn Memory = &mut m;
        mem.write(0, &[42]).unwrap();
        let mut b = [0u8];
        mem.read(0, &mut b).unwrap();
        assert_eq!(b[0], 42);
    }
}
