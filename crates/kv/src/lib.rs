#![warn(missing_docs)]
//! # envy-kv — a key-value store over the eNVy array
//!
//! The canonical NVMM application is key-value serving, and §1 of the
//! paper argues that a word-addressable non-volatile array lets such an
//! application keep its *entire* data structure in stable storage. This
//! crate composes the two persistent primitives the workspace already
//! has into exactly that:
//!
//! * an [`envy_btree::BTree`] index mapping `key: u64` to the address of
//!   its record, and
//! * an [`envy_heap::Arena`] holding the variable-size records
//!   themselves (`len: u32 LE` followed by the value bytes).
//!
//! Both live inside one region of a single [`Memory`], laid out as:
//!
//! ```text
//! region + 0                a 64-byte header (magic, lengths, live count)
//! region + 64               the B-Tree index (¼ of the region)
//! region + 64 + index_len   the record arena (the rest)
//! ```
//!
//! Every piece of state is in the array — a [`KvStore`] handle is just
//! cached header words, and [`KvStore::open`] reattaches after a crash,
//! restart, or transaction rollback. Because the store works over *any*
//! [`Memory`], running it over [`envy_core::TxnMemory`] makes a
//! multi-operation KV transaction ride the store's ACID machinery: all
//! index and record writes of a put/delete land in the transaction's
//! write set and revert together on abort.
//!
//! Deletes are lazy at the index level (see [`envy_btree::BTree::delete`])
//! but the record's arena block is freed eagerly, so value space is
//! recycled even though index node pages are not.
//!
//! ```
//! use envy_core::VecMemory;
//! use envy_kv::KvStore;
//!
//! # fn main() -> Result<(), envy_kv::KvError> {
//! let mut mem = VecMemory::new(1024 * 1024);
//! let mut kv = KvStore::create(&mut mem, 0, 1024 * 1024)?;
//! kv.put(&mut mem, 7, b"seven")?;
//! assert_eq!(kv.get(&mut mem, 7)?.as_deref(), Some(&b"seven"[..]));
//! assert_eq!(kv.scan(&mut mem, 0, 10)?.len(), 1);
//! assert!(kv.delete(&mut mem, 7)?);
//! assert_eq!(kv.get(&mut mem, 7)?, None);
//! # Ok(())
//! # }
//! ```

use envy_btree::{BTree, BTreeError};
use envy_core::{EnvyError, Memory};
use envy_heap::{Arena, HeapError};
use std::error::Error;
use std::fmt;

const MAGIC: u64 = 0x654E_5679_4B56_7374; // "eNVyKVst"
const HEADER: u64 = 64;
/// Bytes of record framing ahead of the value: its length as `u32` LE.
const RECORD_HEADER: u64 = 4;

/// Largest value a record may hold, in bytes. Chosen so the largest
/// wire-visible reply (a full scan page of maximum-size values) stays
/// comfortably under the protocol's 1 MiB frame cap.
pub const MAX_VALUE: usize = 4096;

/// Errors from KV operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The region does not contain a KV store.
    BadMagic,
    /// The index or record region cannot hold the new record.
    OutOfSpace,
    /// The value exceeds [`MAX_VALUE`].
    ValueTooLarge {
        /// The offending value length.
        len: usize,
    },
    /// Stored state contradicts itself (an index entry pointing at a
    /// non-block, an impossible record length, …).
    Corrupt {
        /// What was found to be inconsistent.
        what: &'static str,
        /// The offending address or size.
        addr: u64,
    },
    /// An error from the underlying memory (for a store over
    /// [`envy_core::TxnMemory`] this is where transaction conflicts and
    /// ownership refusals surface).
    Memory(EnvyError),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::BadMagic => write!(f, "region does not contain a kv store"),
            KvError::OutOfSpace => write!(f, "kv region out of space"),
            KvError::ValueTooLarge { len } => {
                write!(f, "value of {len} bytes exceeds the {MAX_VALUE}-byte cap")
            }
            KvError::Corrupt { what, addr } => write!(f, "kv state corrupt: {what} ({addr:#x})"),
            KvError::Memory(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl Error for KvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KvError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnvyError> for KvError {
    fn from(e: EnvyError) -> KvError {
        KvError::Memory(e)
    }
}

impl From<BTreeError> for KvError {
    fn from(e: BTreeError) -> KvError {
        match e {
            BTreeError::BadMagic => KvError::BadMagic,
            BTreeError::OutOfSpace => KvError::OutOfSpace,
            // Bulk loading is not part of the KV surface; an ordering
            // error out of the index means its state is inconsistent.
            BTreeError::NotSorted => KvError::Corrupt {
                what: "index returned unsorted entries",
                addr: 0,
            },
            BTreeError::Memory(e) => KvError::Memory(e),
        }
    }
}

impl From<HeapError> for KvError {
    fn from(e: HeapError) -> KvError {
        match e {
            HeapError::BadMagic => KvError::BadMagic,
            HeapError::OutOfSpace => KvError::OutOfSpace,
            HeapError::NotABlock { addr } => KvError::Corrupt {
                what: "index entry does not point at an allocated record",
                addr,
            },
            HeapError::BadSize { size } => KvError::Corrupt {
                what: "impossible record allocation size",
                addr: size,
            },
            HeapError::Memory(e) => KvError::Memory(e),
        }
    }
}

/// A key-value store in a region of linear memory: a B-Tree index over
/// an arena of length-prefixed records. See the crate docs for layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvStore {
    region: u64,
    total_len: u64,
    index_len: u64,
    count: u64,
    tree: BTree,
    arena: Arena,
}

impl KvStore {
    /// Create a fresh store occupying `[region, region + len)`. A
    /// quarter of the region indexes, the rest holds records.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfSpace`] if the region is too small for the
    /// header plus a one-node index plus a minimal arena; memory errors.
    pub fn create<M: Memory>(mem: &mut M, region: u64, len: u64) -> Result<KvStore, KvError> {
        // Each live key costs ~16 B of leaf entry (~33 B at 2/3 node
        // occupancy) in the index vs a ≥ 24 B record in the arena, so a
        // 1:3 split comfortably favors records while keeping the index
        // from becoming the binding constraint under churn (its bump
        // allocator never reclaims nodes).
        let index_len = (len / 4) & !7;
        if len < HEADER + index_len || index_len < 1024 {
            return Err(KvError::OutOfSpace);
        }
        let heap_len = len - HEADER - index_len;
        let tree = BTree::create(mem, region + HEADER, index_len)?;
        let arena = Arena::create(mem, region + HEADER + index_len, heap_len)?;
        let kv = KvStore {
            region,
            total_len: len,
            index_len,
            count: 0,
            tree,
            arena,
        };
        kv.write_header(mem)?;
        Ok(kv)
    }

    /// Re-open a store previously created in this region.
    ///
    /// # Errors
    ///
    /// [`KvError::BadMagic`] if the header is absent or corrupt.
    pub fn open<M: Memory>(mem: &mut M, region: u64) -> Result<KvStore, KvError> {
        let mut header = [0u8; HEADER as usize];
        mem.read(region, &mut header)?;
        let word = |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8"));
        if word(0) != MAGIC {
            return Err(KvError::BadMagic);
        }
        let total_len = word(1);
        let index_len = word(2);
        let count = word(3);
        let tree = BTree::open(mem, region + HEADER)?;
        let arena = Arena::open(mem, region + HEADER + index_len)?;
        Ok(KvStore {
            region,
            total_len,
            index_len,
            count,
            tree,
            arena,
        })
    }

    fn write_header<M: Memory>(&self, mem: &mut M) -> Result<(), KvError> {
        let mut header = [0u8; HEADER as usize];
        header[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        header[8..16].copy_from_slice(&self.total_len.to_le_bytes());
        header[16..24].copy_from_slice(&self.index_len.to_le_bytes());
        header[24..32].copy_from_slice(&self.count.to_le_bytes());
        mem.write(self.region, &header)?;
        Ok(())
    }

    /// Number of live keys.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Read one record, validating its length prefix against the cap.
    fn read_record<M: Memory>(mem: &mut M, addr: u64) -> Result<Vec<u8>, KvError> {
        let mut len_bytes = [0u8; RECORD_HEADER as usize];
        mem.read(addr, &mut len_bytes)?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_VALUE {
            return Err(KvError::Corrupt {
                what: "record length prefix exceeds the value cap",
                addr,
            });
        }
        let mut value = vec![0u8; len];
        mem.read(addr + RECORD_HEADER, &mut value)?;
        Ok(value)
    }

    /// Look up a key.
    ///
    /// # Errors
    ///
    /// [`KvError::Corrupt`] on an impossible stored record; memory
    /// errors.
    pub fn get<M: Memory>(&self, mem: &mut M, key: u64) -> Result<Option<Vec<u8>>, KvError> {
        match self.tree.get(mem, key)? {
            Some(addr) => Ok(Some(Self::read_record(mem, addr)?)),
            None => Ok(None),
        }
    }

    /// Insert or replace a key's value. On replace the old record's
    /// arena block is freed after the index points at the new one.
    ///
    /// # Errors
    ///
    /// [`KvError::ValueTooLarge`] beyond [`MAX_VALUE`];
    /// [`KvError::OutOfSpace`] when index or arena is exhausted; memory
    /// errors.
    pub fn put<M: Memory>(&mut self, mem: &mut M, key: u64, value: &[u8]) -> Result<(), KvError> {
        if value.len() > MAX_VALUE {
            return Err(KvError::ValueTooLarge { len: value.len() });
        }
        let addr = self.arena.alloc(mem, RECORD_HEADER + value.len() as u64)?;
        // Prefix and value go out as one write, staged on the stack.
        let mut record = [0u8; RECORD_HEADER as usize + MAX_VALUE];
        let (prefix, body) = record.split_at_mut(RECORD_HEADER as usize);
        prefix.copy_from_slice(&(value.len() as u32).to_le_bytes());
        body[..value.len()].copy_from_slice(value);
        mem.write(addr, &record[..RECORD_HEADER as usize + value.len()])?;
        let old = match self.tree.insert(mem, key, addr) {
            Ok(old) => old,
            Err(e) => {
                // The index never learned about the record: hand its
                // block back so a full index does not leak arena space.
                let _ = self.arena.free(mem, addr);
                return Err(e.into());
            }
        };
        match old {
            Some(old_addr) => self.arena.free(mem, old_addr)?,
            None => {
                self.count += 1;
                self.write_header(mem)?;
            }
        }
        Ok(())
    }

    /// Delete a key; returns whether it existed. The index entry goes
    /// first, then the record's block returns to the arena free list.
    ///
    /// # Errors
    ///
    /// [`KvError::Corrupt`] if the index pointed at a non-block; memory
    /// errors.
    pub fn delete<M: Memory>(&mut self, mem: &mut M, key: u64) -> Result<bool, KvError> {
        match self.tree.delete(mem, key)? {
            Some(addr) => {
                self.arena.free(mem, addr)?;
                self.count -= 1;
                self.write_header(mem)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Ordered range read: up to `limit` `(key, value)` records with
    /// `key >= start`, ascending (YCSB workload E's scan).
    ///
    /// # Errors
    ///
    /// [`KvError::Corrupt`] on an impossible stored record; memory
    /// errors.
    pub fn scan<M: Memory>(
        &self,
        mem: &mut M,
        start: u64,
        limit: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, KvError> {
        let entries = self.tree.scan(mem, start, limit)?;
        let mut out = Vec::with_capacity(entries.len());
        for (key, addr) in entries {
            out.push((key, Self::read_record(mem, addr)?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envy_core::VecMemory;
    use std::collections::BTreeMap;

    fn mem() -> VecMemory {
        VecMemory::new(4 * 1024 * 1024)
    }

    #[test]
    fn create_put_get_roundtrip() {
        let mut m = mem();
        let mut kv = KvStore::create(&mut m, 0, 1024 * 1024).unwrap();
        assert_eq!(kv.get(&mut m, 1).unwrap(), None);
        kv.put(&mut m, 1, b"hello").unwrap();
        kv.put(&mut m, 2, &[]).unwrap();
        assert_eq!(kv.get(&mut m, 1).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(kv.get(&mut m, 2).unwrap().as_deref(), Some(&[][..]));
        assert_eq!(kv.count(), 2);
    }

    #[test]
    fn replace_frees_old_record() {
        let mut m = mem();
        let mut kv = KvStore::create(&mut m, 0, 256 * 1024).unwrap();
        // Large values; without freeing replaced records the arena
        // would exhaust long before 2_000 iterations.
        for i in 0..2_000u64 {
            let value = vec![(i % 251) as u8; 1024];
            kv.put(&mut m, 1, &value).unwrap();
        }
        assert_eq!(kv.count(), 1);
        assert_eq!(
            kv.get(&mut m, 1).unwrap().unwrap(),
            vec![(1_999 % 251) as u8; 1024]
        );
    }

    #[test]
    fn delete_frees_and_reports_existence() {
        let mut m = mem();
        let mut kv = KvStore::create(&mut m, 0, 256 * 1024).unwrap();
        assert!(!kv.delete(&mut m, 9).unwrap());
        for round in 0..500u64 {
            kv.put(&mut m, 9, &vec![round as u8; 2048]).unwrap();
            assert!(kv.delete(&mut m, 9).unwrap());
            assert_eq!(kv.get(&mut m, 9).unwrap(), None);
        }
        assert_eq!(kv.count(), 0);
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let mut m = mem();
        let mut kv = KvStore::create(&mut m, 0, 1024 * 1024).unwrap();
        for i in (0..200u64).rev() {
            kv.put(&mut m, i * 2, &i.to_le_bytes()).unwrap();
        }
        let got = kv.scan(&mut m, 5, 4).unwrap();
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![6, 8, 10, 12]);
        assert_eq!(got[0].1, 3u64.to_le_bytes());
        assert_eq!(kv.scan(&mut m, 0, 1_000).unwrap().len(), 200);
        assert_eq!(kv.scan(&mut m, 399, 10).unwrap(), vec![]);
    }

    #[test]
    fn value_cap_enforced() {
        let mut m = mem();
        let mut kv = KvStore::create(&mut m, 0, 1024 * 1024).unwrap();
        kv.put(&mut m, 1, &vec![0u8; MAX_VALUE]).unwrap();
        let err = kv.put(&mut m, 2, &vec![0u8; MAX_VALUE + 1]).unwrap_err();
        assert_eq!(err, KvError::ValueTooLarge { len: MAX_VALUE + 1 });
    }

    #[test]
    fn open_reattaches() {
        let mut m = mem();
        let mut kv = KvStore::create(&mut m, 4096, 512 * 1024).unwrap();
        for i in 0..300u64 {
            kv.put(&mut m, i, &vec![i as u8; (i % 64) as usize])
                .unwrap();
        }
        kv.delete(&mut m, 7).unwrap();
        let reopened = KvStore::open(&mut m, 4096).unwrap();
        assert_eq!(reopened, kv);
        assert_eq!(reopened.get(&mut m, 7).unwrap(), None);
        assert_eq!(
            reopened.get(&mut m, 299).unwrap().unwrap(),
            vec![43u8; 299 % 64]
        );
    }

    #[test]
    fn open_rejects_garbage() {
        let mut m = mem();
        assert_eq!(KvStore::open(&mut m, 0).unwrap_err(), KvError::BadMagic);
    }

    #[test]
    fn arena_exhaustion_is_clean_and_recoverable() {
        let mut m = mem();
        // Tiny region: the arena fills after a handful of 1 KiB records.
        let mut kv = KvStore::create(&mut m, 0, 16 * 1024).unwrap();
        let mut stored = 0u64;
        let err = loop {
            match kv.put(&mut m, stored, &vec![1u8; 1024]) {
                Ok(()) => stored += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, KvError::OutOfSpace);
        assert!(stored > 0);
        // Everything stored before the failure is intact, and deleting
        // one record makes room again.
        for i in 0..stored {
            assert!(kv.get(&mut m, i).unwrap().is_some());
        }
        assert!(kv.delete(&mut m, 0).unwrap());
        kv.put(&mut m, 100, &vec![2u8; 1024]).unwrap();
    }

    /// Seeded put/get/delete/scan stream over a store filling `m`,
    /// checked op by op against a `BTreeMap`.
    fn differential<M: Memory>(m: &mut M) {
        let len = m.size();
        let mut kv = KvStore::create(m, 0, len).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut rng = envy_sim::rng::Rng::seed_from(0x6B76);
        for _ in 0..5_000 {
            let key = rng.below(400);
            match rng.below(4) {
                0 | 1 => {
                    let value = vec![rng.below(256) as u8; rng.below(200) as usize];
                    kv.put(m, key, &value).unwrap();
                    model.insert(key, value);
                }
                2 => {
                    let expected = model.remove(&key).is_some();
                    assert_eq!(kv.delete(m, key).unwrap(), expected);
                }
                _ => {
                    let limit = rng.below(12) as usize;
                    let expected: Vec<(u64, Vec<u8>)> = model
                        .range(key..)
                        .take(limit)
                        .map(|(k, v)| (*k, v.clone()))
                        .collect();
                    assert_eq!(kv.scan(m, key, limit).unwrap(), expected);
                }
            }
            assert_eq!(kv.count(), model.len() as u64);
        }
        for (k, v) in &model {
            assert_eq!(kv.get(m, *k).unwrap().as_ref(), Some(v));
        }
    }

    #[test]
    fn differential_vs_btreemap_model() {
        differential(&mut VecMemory::new(2 * 1024 * 1024));
    }

    /// The same stream over the controller with payloads stored: every
    /// byte crosses the arenas through copy-on-write, flush and cleaning.
    #[test]
    fn differential_vs_btreemap_model_over_envy_store() {
        use envy_core::{EnvyConfig, EnvyStore};
        let mut store = EnvyStore::new(EnvyConfig::small_test()).unwrap();
        differential(&mut store);
        assert!(
            store.stats().cleans.get() > 0,
            "the stream must reach cleaning"
        );
        store.check_invariants().unwrap();
    }

    #[test]
    fn works_over_envy_store() {
        use envy_core::{EnvyConfig, EnvyStore};
        let config = EnvyConfig::small_test();
        let mut store = EnvyStore::new(config).unwrap();
        let len = store.size();
        let mut kv = KvStore::create(&mut store, 0, len).unwrap();
        for i in 0..200u64 {
            kv.put(&mut store, i, &[i as u8; 100]).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(kv.get(&mut store, i).unwrap().unwrap(), vec![i as u8; 100]);
        }
        store.check_invariants().unwrap();
    }

    #[test]
    fn txn_abort_reverts_everything() {
        use envy_core::{EnvyConfig, EnvyStore, TxnMemory};
        let config = EnvyConfig::small_test();
        let mut store = EnvyStore::new(config).unwrap();
        let len = store.size();
        let mut kv = KvStore::create(&mut store, 0, len).unwrap();
        kv.put(&mut store, 1, b"committed").unwrap();

        // A transaction that replaces key 1, inserts key 2, deletes
        // nothing — then aborts. Every byte must revert.
        let txn = store.txn_begin().unwrap();
        {
            let mut tm = TxnMemory::new(&mut store, txn);
            let mut txn_kv = KvStore::open(&mut tm, 0).unwrap();
            txn_kv.put(&mut tm, 1, b"speculative").unwrap();
            txn_kv.put(&mut tm, 2, b"phantom").unwrap();
            assert_eq!(
                txn_kv.get(&mut tm, 1).unwrap().as_deref(),
                Some(&b"speculative"[..])
            );
        }
        store.txn_abort(txn).unwrap();

        let after = KvStore::open(&mut store, 0).unwrap();
        assert_eq!(
            after.get(&mut store, 1).unwrap().as_deref(),
            Some(&b"committed"[..])
        );
        assert_eq!(after.get(&mut store, 2).unwrap(), None);
        assert_eq!(after.count(), 1);
    }

    #[test]
    fn txn_commit_persists() {
        use envy_core::{EnvyConfig, EnvyStore, TxnMemory};
        let config = EnvyConfig::small_test();
        let mut store = EnvyStore::new(config).unwrap();
        let len = store.size();
        KvStore::create(&mut store, 0, len).unwrap();

        let txn = store.txn_begin().unwrap();
        {
            let mut tm = TxnMemory::new(&mut store, txn);
            let mut txn_kv = KvStore::open(&mut tm, 0).unwrap();
            txn_kv.put(&mut tm, 10, b"durable").unwrap();
        }
        store.txn_commit(txn).unwrap();

        let after = KvStore::open(&mut store, 0).unwrap();
        assert_eq!(
            after.get(&mut store, 10).unwrap().as_deref(),
            Some(&b"durable"[..])
        );
    }
}
