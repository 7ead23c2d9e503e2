//! The B-Tree proper: create/open, point lookups, inserts with preemptive
//! splits, in-place value updates, and bottom-up bulk loading.

use crate::node::{Node, ENTRY_BYTES, FANOUT, HEADER_BYTES, NODE_BYTES};
use envy_core::{EnvyError, Memory};
use std::error::Error;
use std::fmt;

const MAGIC: u64 = 0x656E_5679_4254_7265; // "eNVyBTre"
const REGION_HEADER: u64 = 32;

/// Errors from B-Tree operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BTreeError {
    /// The region cannot hold another node.
    OutOfSpace,
    /// The region header does not contain a B-Tree.
    BadMagic,
    /// Bulk-load input was not strictly ascending.
    NotSorted,
    /// An error from the underlying memory.
    Memory(EnvyError),
}

impl fmt::Display for BTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BTreeError::OutOfSpace => write!(f, "b-tree region out of space"),
            BTreeError::BadMagic => write!(f, "region does not contain a b-tree"),
            BTreeError::NotSorted => write!(f, "bulk-load input must be strictly ascending"),
            BTreeError::Memory(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl Error for BTreeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BTreeError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EnvyError> for BTreeError {
    fn from(e: EnvyError) -> BTreeError {
        BTreeError::Memory(e)
    }
}

/// An order-32 B-Tree living in a region of linear memory.
///
/// The region starts with a 32-byte header (magic, root address, bump
/// allocator cursor, region length) so a tree can be re-opened after a
/// crash or from another process — everything lives in the non-volatile
/// array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    region: u64,
    region_len: u64,
    root: u64,
    next_free: u64,
}

impl BTree {
    /// Create a fresh tree occupying `[region, region + len)`.
    ///
    /// # Errors
    ///
    /// [`BTreeError::OutOfSpace`] if the region cannot hold even the
    /// root; memory errors.
    pub fn create<M: Memory>(mem: &mut M, region: u64, len: u64) -> Result<BTree, BTreeError> {
        if len < REGION_HEADER + NODE_BYTES as u64 {
            return Err(BTreeError::OutOfSpace);
        }
        let mut tree = BTree {
            region,
            region_len: len,
            root: region + REGION_HEADER,
            next_free: region + REGION_HEADER,
        };
        let root = tree.alloc(mem)?;
        debug_assert_eq!(root, tree.root);
        Node::new_leaf().store(mem, root)?;
        tree.write_header(mem)?;
        Ok(tree)
    }

    /// Re-open a tree previously created in this region.
    ///
    /// # Errors
    ///
    /// [`BTreeError::BadMagic`] if the header is absent or corrupt.
    pub fn open<M: Memory>(mem: &mut M, region: u64) -> Result<BTree, BTreeError> {
        let mut header = [0u8; REGION_HEADER as usize];
        mem.read(region, &mut header)?;
        let word = |i: usize| u64::from_le_bytes(header[i * 8..i * 8 + 8].try_into().expect("8"));
        if word(0) != MAGIC {
            return Err(BTreeError::BadMagic);
        }
        Ok(BTree {
            region,
            region_len: word(3),
            root: word(1),
            next_free: word(2),
        })
    }

    fn write_header<M: Memory>(&self, mem: &mut M) -> Result<(), BTreeError> {
        let mut header = [0u8; REGION_HEADER as usize];
        header[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        header[8..16].copy_from_slice(&self.root.to_le_bytes());
        header[16..24].copy_from_slice(&self.next_free.to_le_bytes());
        header[24..32].copy_from_slice(&self.region_len.to_le_bytes());
        mem.write(self.region, &header)?;
        Ok(())
    }

    fn alloc<M: Memory>(&mut self, mem: &mut M) -> Result<u64, BTreeError> {
        let addr = self.next_free;
        if addr + NODE_BYTES as u64 > self.region + self.region_len {
            return Err(BTreeError::OutOfSpace);
        }
        self.next_free += NODE_BYTES as u64;
        self.write_header(mem)?;
        Ok(addr)
    }

    /// Look up a key, loading whole nodes (functional path).
    ///
    /// # Errors
    ///
    /// Memory errors.
    pub fn get<M: Memory>(&self, mem: &mut M, key: u64) -> Result<Option<u64>, BTreeError> {
        let mut addr = self.root;
        loop {
            let node = Node::load(mem, addr)?;
            if node.is_leaf() {
                return Ok(node.leaf_search(key).ok().map(|i| node.value(i)));
            }
            if node.is_empty() {
                return Ok(None);
            }
            addr = node.value(node.child_index(key));
        }
    }

    /// Look up a key with the access pattern real hardware would see:
    /// a header read plus a binary search of individual 8-byte key probes
    /// per node, then one value read (§5.2's index search traffic).
    ///
    /// # Errors
    ///
    /// Memory errors.
    pub fn get_probed<M: Memory>(&self, mem: &mut M, key: u64) -> Result<Option<u64>, BTreeError> {
        let mut addr = self.root;
        loop {
            let mut header = [0u8; 2];
            mem.read(addr, &mut header)?;
            let leaf = header[0] == 1;
            let count = header[1] as usize;
            // Binary search over the entry keys, one probe per step.
            let mut lo = 0usize;
            let mut hi = count;
            let mut found: Option<usize> = None;
            while lo < hi {
                let mid = (lo + hi) / 2;
                let mut kb = [0u8; 8];
                mem.read(addr + (HEADER_BYTES + mid * ENTRY_BYTES) as u64, &mut kb)?;
                let k = u64::from_le_bytes(kb);
                match k.cmp(&key) {
                    std::cmp::Ordering::Equal => {
                        found = Some(mid);
                        break;
                    }
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                }
            }
            let read_value = |mem: &mut M, i: usize| -> Result<u64, BTreeError> {
                let mut vb = [0u8; 8];
                mem.read(addr + (HEADER_BYTES + i * ENTRY_BYTES + 8) as u64, &mut vb)?;
                Ok(u64::from_le_bytes(vb))
            };
            if leaf {
                return Ok(match found {
                    Some(i) => Some(read_value(mem, i)?),
                    None => None,
                });
            }
            if count == 0 {
                return Ok(None);
            }
            let idx = match found {
                Some(i) => i,
                None => lo.saturating_sub(1),
            };
            addr = read_value(mem, idx)?;
        }
    }

    /// Insert or replace; returns the previous value if the key existed.
    ///
    /// # Errors
    ///
    /// [`BTreeError::OutOfSpace`] when the region is exhausted; memory
    /// errors.
    pub fn insert<M: Memory>(
        &mut self,
        mem: &mut M,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, BTreeError> {
        // One pass: each node is read once. The child loaded for the
        // fullness check becomes the next level's node, and a split hands
        // back both halves, so nothing is re-read on the way down.
        let mut addr = self.root;
        let mut node = Node::load(mem, addr)?;
        // Preemptive root split keeps the descent simple: every parent we
        // descend from has room for a promoted separator.
        if node.is_full() {
            let left_first = node.key(0);
            let (sep, right_addr, _) = self.split_node(mem, addr, &mut node)?;
            let new_root_at = self.alloc(mem)?;
            let new_root = Node::with_entries(false, &[(left_first, addr), (sep, right_addr)]);
            new_root.store(mem, new_root_at)?;
            self.root = new_root_at;
            self.write_header(mem)?;
            addr = new_root_at;
            node = new_root;
        }
        loop {
            if node.is_leaf() {
                let old = match node.leaf_search(key) {
                    Ok(i) => {
                        let old = node.value(i);
                        node.set_value(i, value);
                        Some(old)
                    }
                    Err(i) => {
                        node.insert(i, (key, value));
                        None
                    }
                };
                node.store(mem, addr)?;
                return Ok(old);
            }
            let idx = node.child_index(key);
            let child_addr = node.value(idx);
            let mut child = Node::load(mem, child_addr)?;
            if child.is_full() {
                let (sep, right_addr, right) = self.split_node(mem, child_addr, &mut child)?;
                node.insert(idx + 1, (sep, right_addr));
                // Descending into the leftmost child with a smaller key
                // than any separator: keep the separator exact.
                node.set_key(idx, node.key(idx).min(key));
                node.store(mem, addr)?;
                (addr, node) = if key >= sep {
                    (right_addr, right)
                } else {
                    (child_addr, child)
                };
            } else {
                addr = child_addr;
                node = child;
            }
        }
    }

    /// Split `node` (stored at `addr`) in half: it keeps the lower half,
    /// the upper half moves to a new node. Both are stored. Returns the
    /// separator key and the new node with its address.
    fn split_node<M: Memory>(
        &mut self,
        mem: &mut M,
        addr: u64,
        node: &mut Node,
    ) -> Result<(u64, u64, Node), BTreeError> {
        let right_addr = self.alloc(mem)?;
        let right = node.split_off(node.len() / 2);
        let sep = right.key(0);
        node.store(mem, addr)?;
        right.store(mem, right_addr)?;
        Ok((sep, right_addr, right))
    }

    /// Update an existing key's value in place — exactly one 8-byte write
    /// (the TPC-A balance update, §5.2). Returns `false` if absent.
    ///
    /// # Errors
    ///
    /// Memory errors.
    pub fn update<M: Memory>(&self, mem: &mut M, key: u64, value: u64) -> Result<bool, BTreeError> {
        let mut addr = self.root;
        loop {
            let node = Node::load(mem, addr)?;
            if node.is_leaf() {
                return match node.leaf_search(key) {
                    Ok(i) => {
                        let value_addr = addr + (HEADER_BYTES + i * ENTRY_BYTES + 8) as u64;
                        mem.write(value_addr, &value.to_le_bytes())?;
                        Ok(true)
                    }
                    Err(_) => Ok(false),
                };
            }
            if node.is_empty() {
                return Ok(false);
            }
            addr = node.value(node.child_index(key));
        }
    }

    /// Remove a key; returns its value if it was present.
    ///
    /// Deletion is *lazy*: the entry is removed from its leaf but no
    /// rebalancing, merging, or node reclamation happens (the region
    /// uses a bump allocator, so node pages are never freed anyway).
    /// Internal separator keys are left untouched — a stale separator
    /// still routes correctly because it only ever *over*-partitions
    /// the key space — and a leaf may become empty, which every read
    /// path (`get`, `get_probed`, `scan`) tolerates. The trade-off is
    /// classic for append-friendly NVM indexes: deletes cost one leaf
    /// rewrite and space is returned only to the leaf, not the region.
    ///
    /// # Errors
    ///
    /// Memory errors.
    pub fn delete<M: Memory>(&mut self, mem: &mut M, key: u64) -> Result<Option<u64>, BTreeError> {
        let mut addr = self.root;
        loop {
            let mut node = Node::load(mem, addr)?;
            if node.is_leaf() {
                return match node.leaf_search(key) {
                    Ok(i) => {
                        let (_, old) = node.remove(i);
                        node.store(mem, addr)?;
                        Ok(Some(old))
                    }
                    Err(_) => Ok(None),
                };
            }
            if node.is_empty() {
                return Ok(None);
            }
            addr = node.value(node.child_index(key));
        }
    }

    /// Ordered range read: up to `limit` `(key, value)` pairs with
    /// `key >= start`, in ascending key order.
    ///
    /// The traversal is a pruned in-order walk: a subtree is skipped
    /// when the *next* separator key is `<= start`, since every key it
    /// holds is strictly below that separator. Leaves have no sibling
    /// links (nodes are immovable once bump-allocated), so the walk
    /// descends from the root; with fanout 32 the extra internal reads
    /// are one node per level per ~32 leaves visited.
    ///
    /// # Errors
    ///
    /// Memory errors.
    pub fn scan<M: Memory>(
        &self,
        mem: &mut M,
        start: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, BTreeError> {
        let mut out = Vec::with_capacity(limit.min(FANOUT));
        if limit > 0 {
            self.scan_node(mem, self.root, start, limit, &mut out)?;
        }
        Ok(out)
    }

    fn scan_node<M: Memory>(
        &self,
        mem: &mut M,
        addr: u64,
        start: u64,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> Result<(), BTreeError> {
        let node = Node::load(mem, addr)?;
        if node.is_leaf() {
            let from = match node.leaf_search(start) {
                Ok(i) | Err(i) => i,
            };
            let room = limit - out.len();
            out.extend(node.entries().skip(from).take(room));
            return Ok(());
        }
        for i in 0..node.len() {
            if out.len() == limit {
                break;
            }
            // Subtree i only holds keys < separator i+1: child_index
            // routes any key >= that separator further right. If that
            // bound is <= start the whole subtree is below the range.
            if i + 1 < node.len() && node.key(i + 1) <= start {
                continue;
            }
            self.scan_node(mem, node.value(i), start, limit, out)?;
        }
        Ok(())
    }

    /// Bulk-load a fresh tree from strictly ascending `(key, value)`
    /// pairs, packing leaves full and building internal levels bottom-up
    /// (how the TPC-A database is initialized).
    ///
    /// # Errors
    ///
    /// [`BTreeError::NotSorted`] on unordered input;
    /// [`BTreeError::OutOfSpace`]; memory errors.
    pub fn bulk_load<M, I>(
        mem: &mut M,
        region: u64,
        len: u64,
        pairs: I,
    ) -> Result<BTree, BTreeError>
    where
        M: Memory,
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut tree = BTree {
            region,
            region_len: len,
            root: region + REGION_HEADER,
            next_free: region + REGION_HEADER,
        };
        // Build the leaf level.
        let mut level: Vec<(u64, u64)> = Vec::new(); // (first key, node addr)
        let mut current = Node::new_leaf();
        let mut last_key: Option<u64> = None;
        for (key, value) in pairs {
            if last_key.is_some_and(|k| key <= k) {
                return Err(BTreeError::NotSorted);
            }
            last_key = Some(key);
            if current.is_full() {
                let addr = tree.alloc_quiet()?;
                current.store(mem, addr)?;
                level.push((current.key(0), addr));
                current = Node::new_leaf();
            }
            current.push((key, value));
        }
        let addr = tree.alloc_quiet()?;
        let first = current.entries().next().map_or(0, |e| e.0);
        current.store(mem, addr)?;
        level.push((first, addr));

        // Build internal levels until a single root remains.
        while level.len() > 1 {
            let mut next: Vec<(u64, u64)> = Vec::new();
            for chunk in level.chunks(FANOUT) {
                let addr = tree.alloc_quiet()?;
                Node::with_entries(false, chunk).store(mem, addr)?;
                next.push((chunk[0].0, addr));
            }
            level = next;
        }
        tree.root = level[0].1;
        tree.write_header(mem)?;
        Ok(tree)
    }

    fn alloc_quiet(&mut self) -> Result<u64, BTreeError> {
        let addr = self.next_free;
        if addr + NODE_BYTES as u64 > self.region + self.region_len {
            return Err(BTreeError::OutOfSpace);
        }
        self.next_free += NODE_BYTES as u64;
        Ok(addr)
    }

    /// Tree depth (1 for a lone leaf).
    ///
    /// # Errors
    ///
    /// Memory errors.
    pub fn depth<M: Memory>(&self, mem: &mut M) -> Result<u32, BTreeError> {
        let mut d = 1;
        let mut addr = self.root;
        loop {
            let node = Node::load(mem, addr)?;
            if node.is_leaf() || node.is_empty() {
                return Ok(d);
            }
            d += 1;
            addr = node.value(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envy_core::VecMemory;

    fn mem() -> VecMemory {
        VecMemory::new(2 * 1024 * 1024)
    }

    #[test]
    fn empty_tree_lookups_miss() {
        let mut m = mem();
        let t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        assert_eq!(t.get(&mut m, 1).unwrap(), None);
        assert_eq!(t.get_probed(&mut m, 1).unwrap(), None);
        assert_eq!(t.depth(&mut m).unwrap(), 1);
    }

    #[test]
    fn insert_then_get() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        assert_eq!(t.insert(&mut m, 10, 100).unwrap(), None);
        assert_eq!(t.insert(&mut m, 10, 200).unwrap(), Some(100));
        assert_eq!(t.get(&mut m, 10).unwrap(), Some(200));
    }

    #[test]
    fn many_inserts_ascending() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        for i in 0..5_000u64 {
            t.insert(&mut m, i, i * 2).unwrap();
        }
        for i in 0..5_000u64 {
            assert_eq!(t.get(&mut m, i).unwrap(), Some(i * 2), "key {i}");
        }
        assert!(t.depth(&mut m).unwrap() >= 3);
    }

    #[test]
    fn many_inserts_shuffled() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        let mut keys: Vec<u64> = (0..5_000).collect();
        let mut rng = envy_sim::rng::Rng::seed_from(3);
        rng.shuffle(&mut keys);
        for &k in &keys {
            t.insert(&mut m, k, k + 7).unwrap();
        }
        for k in 0..5_000u64 {
            assert_eq!(t.get(&mut m, k).unwrap(), Some(k + 7), "key {k}");
            assert_eq!(t.get_probed(&mut m, k).unwrap(), Some(k + 7), "probed {k}");
        }
        assert_eq!(t.get(&mut m, 5_000).unwrap(), None);
    }

    #[test]
    fn probed_and_whole_node_agree() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        for i in (0..2_000u64).map(|i| i * 3) {
            t.insert(&mut m, i, i).unwrap();
        }
        for probe in 0..6_000u64 {
            assert_eq!(
                t.get(&mut m, probe).unwrap(),
                t.get_probed(&mut m, probe).unwrap(),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn update_in_place() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        for i in 0..1_000u64 {
            t.insert(&mut m, i, 0).unwrap();
        }
        assert!(t.update(&mut m, 500, 9_999).unwrap());
        assert_eq!(t.get(&mut m, 500).unwrap(), Some(9_999));
        assert!(!t.update(&mut m, 1_001, 1).unwrap());
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let mut m = mem();
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i * 13)).collect();
        let t = BTree::bulk_load(&mut m, 0, 2 * 1024 * 1024, pairs.iter().copied()).unwrap();
        for &(k, v) in &pairs {
            assert_eq!(t.get(&mut m, k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(t.get(&mut m, 10_000).unwrap(), None);
    }

    #[test]
    fn bulk_load_depths_match_paper_figure_12() {
        // Figure 12: 155 branches -> 2 levels, 1550 tellers -> 3 levels,
        // 15.5M accounts -> 5 levels (we verify the formula at 15,500
        // accounts -> ceil over fanout-32 levels).
        let mut m = mem();
        let t = BTree::bulk_load(&mut m, 0, 64 * 1024, (0..155).map(|i| (i, i))).unwrap();
        assert_eq!(t.depth(&mut m).unwrap(), 2);
        let mut m2 = mem();
        let t2 = BTree::bulk_load(&mut m2, 0, 256 * 1024, (0..1_550).map(|i| (i, i))).unwrap();
        assert_eq!(t2.depth(&mut m2).unwrap(), 3);
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let mut m = mem();
        let r = BTree::bulk_load(&mut m, 0, 64 * 1024, vec![(2, 0), (1, 0)]);
        assert_eq!(r.unwrap_err(), BTreeError::NotSorted);
        let r = BTree::bulk_load(&mut m, 0, 64 * 1024, vec![(1, 0), (1, 0)]);
        assert_eq!(r.unwrap_err(), BTreeError::NotSorted);
    }

    #[test]
    fn open_reattaches_after_drop() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 4096, 512 * 1024).unwrap();
        for i in 0..1_000u64 {
            t.insert(&mut m, i, i).unwrap();
        }
        let reopened = BTree::open(&mut m, 4096).unwrap();
        assert_eq!(reopened, t);
        assert_eq!(reopened.get(&mut m, 999).unwrap(), Some(999));
    }

    #[test]
    fn open_rejects_garbage() {
        let mut m = mem();
        assert_eq!(BTree::open(&mut m, 0).unwrap_err(), BTreeError::BadMagic);
    }

    #[test]
    fn out_of_space_is_clean_error() {
        let mut m = mem();
        // Room for only a few nodes.
        let mut t = BTree::create(&mut m, 0, REGION_HEADER + 3 * NODE_BYTES as u64).unwrap();
        let mut err = None;
        for i in 0..10_000u64 {
            if let Err(e) = t.insert(&mut m, i, i) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(BTreeError::OutOfSpace));
    }

    #[test]
    fn delete_roundtrip() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        assert_eq!(t.delete(&mut m, 5).unwrap(), None);
        t.insert(&mut m, 5, 50).unwrap();
        assert_eq!(t.delete(&mut m, 5).unwrap(), Some(50));
        assert_eq!(t.get(&mut m, 5).unwrap(), None);
        assert_eq!(t.delete(&mut m, 5).unwrap(), None);
        // Reinsertion after delete works.
        t.insert(&mut m, 5, 51).unwrap();
        assert_eq!(t.get(&mut m, 5).unwrap(), Some(51));
    }

    #[test]
    fn delete_many_leaves_survivors_intact() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        for i in 0..5_000u64 {
            t.insert(&mut m, i, i * 2).unwrap();
        }
        // Empty out every even key — many leaves end up sparse or empty.
        for i in (0..5_000u64).step_by(2) {
            assert_eq!(t.delete(&mut m, i).unwrap(), Some(i * 2), "key {i}");
        }
        for i in 0..5_000u64 {
            let want = if i % 2 == 1 { Some(i * 2) } else { None };
            assert_eq!(t.get(&mut m, i).unwrap(), want, "key {i}");
            assert_eq!(t.get_probed(&mut m, i).unwrap(), want, "probed {i}");
        }
    }

    #[test]
    fn delete_whole_tree_then_refill() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        for i in 0..2_000u64 {
            t.insert(&mut m, i, i).unwrap();
        }
        for i in 0..2_000u64 {
            t.delete(&mut m, i).unwrap();
        }
        assert_eq!(t.scan(&mut m, 0, 10).unwrap(), vec![]);
        for i in 0..2_000u64 {
            t.insert(&mut m, i, i + 1).unwrap();
        }
        assert_eq!(t.get(&mut m, 1_999).unwrap(), Some(2_000));
    }

    #[test]
    fn scan_returns_sorted_ranges() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 2 * 1024 * 1024).unwrap();
        let mut keys: Vec<u64> = (0..4_000).map(|i| i * 3).collect();
        let mut rng = envy_sim::rng::Rng::seed_from(9);
        rng.shuffle(&mut keys);
        for &k in &keys {
            t.insert(&mut m, k, k + 1).unwrap();
        }
        // From an existing key.
        let got = t.scan(&mut m, 300, 5).unwrap();
        assert_eq!(
            got,
            vec![(300, 301), (303, 304), (306, 307), (309, 310), (312, 313)]
        );
        // From a key between entries.
        let got = t.scan(&mut m, 301, 2).unwrap();
        assert_eq!(got, vec![(303, 304), (306, 307)]);
        // Past the end.
        assert_eq!(t.scan(&mut m, 12_000, 4).unwrap(), vec![]);
        // Zero limit.
        assert_eq!(t.scan(&mut m, 0, 0).unwrap(), vec![]);
        // Unbounded-ish: whole tree comes back sorted.
        let all = t.scan(&mut m, 0, 10_000).unwrap();
        assert_eq!(all.len(), 4_000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn scan_skips_deleted_entries() {
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 1024 * 1024).unwrap();
        for i in 0..100u64 {
            t.insert(&mut m, i, i).unwrap();
        }
        for i in 40..60u64 {
            t.delete(&mut m, i).unwrap();
        }
        let got = t.scan(&mut m, 35, 10).unwrap();
        let want: Vec<(u64, u64)> = (35..40).chain(60..65).map(|i| (i, i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn differential_vs_btreemap() {
        use std::collections::BTreeMap;
        let mut m = mem();
        let mut t = BTree::create(&mut m, 0, 2 * 1024 * 1024).unwrap();
        let mut model = BTreeMap::new();
        let mut rng = envy_sim::rng::Rng::seed_from(77);
        for _ in 0..20_000 {
            let k = rng.below(3_000);
            let v = rng.next_u64();
            let expected = model.insert(k, v);
            let got = t.insert(&mut m, k, v).unwrap();
            assert_eq!(got, expected);
        }
        for (k, v) in &model {
            assert_eq!(t.get(&mut m, *k).unwrap(), Some(*v));
        }
    }
}
