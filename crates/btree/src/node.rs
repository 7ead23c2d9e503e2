//! On-memory node layout.
//!
//! A node is 16 header bytes plus 32 slots of (u64 key, u64 value), 528
//! bytes total, stored little-endian. Values are child node addresses in
//! internal nodes and user payloads in leaves. Internal nodes use the
//! *rightmost key ≤ search key* convention: entry `i` covers keys in
//! `[key[i], key[i+1])`.

use envy_core::{EnvyError, Memory};

/// Entries per node (§5.2: "a B-Tree with 32 entries per node").
pub const FANOUT: usize = 32;

/// Node header size in bytes.
pub const HEADER_BYTES: usize = 16;

/// Bytes per (key, value) entry.
pub const ENTRY_BYTES: usize = 16;

/// Total node size in bytes.
pub const NODE_BYTES: usize = HEADER_BYTES + FANOUT * ENTRY_BYTES;

/// The working copy of one node: its 528-byte memory image held on the
/// stack, searched and edited in place. [`Node::load`] is one read and
/// [`Node::store`] one write of the image, with no per-entry decode, so a
/// descent costs one `memcpy` per level and never touches the heap.
///
/// Whatever bytes were loaded, [`Node::store`] writes the canonical image
/// — flag byte 0 or 1, count ≤ [`FANOUT`], header padding and unused
/// slots zero — so what reaches memory depends only on the entries.
#[derive(Clone)]
pub struct Node {
    raw: [u8; NODE_BYTES],
}

/// Same kind, same entries (unused slots may hold anything until stored).
impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        self.raw[..slot(self.len())] == other.raw[..slot(other.len())]
    }
}

impl Eq for Node {}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("leaf", &self.is_leaf())
            .field("entries", &self.entries().collect::<Vec<_>>())
            .finish()
    }
}

/// Byte offset of slot `i` within the image.
const fn slot(i: usize) -> usize {
    HEADER_BYTES + i * ENTRY_BYTES
}

impl Node {
    /// An empty leaf.
    pub fn new_leaf() -> Node {
        Node::with_entries(true, &[])
    }

    /// An empty internal node.
    pub fn new_internal() -> Node {
        Node::with_entries(false, &[])
    }

    /// A node holding `entries`, which must already be sorted by key.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`FANOUT`] entries.
    pub fn with_entries(leaf: bool, entries: &[(u64, u64)]) -> Node {
        let mut node = Node {
            raw: [0; NODE_BYTES],
        };
        node.raw[0] = u8::from(leaf);
        for &entry in entries {
            node.push(entry);
        }
        node
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.raw[0] == 1
    }

    /// Number of entries; at most [`FANOUT`].
    pub fn len(&self) -> usize {
        self.raw[1] as usize
    }

    /// Whether the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the node is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= FANOUT
    }

    fn word(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.raw[at..at + 8].try_into().expect("8-byte range"))
    }

    /// Key of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn key(&self, i: usize) -> u64 {
        assert!(i < self.len(), "entry index out of range");
        self.word(slot(i))
    }

    /// Value of entry `i` (a child address in an internal node).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn value(&self, i: usize) -> u64 {
        assert!(i < self.len(), "entry index out of range");
        self.word(slot(i) + 8)
    }

    /// The sorted (key, value) entries.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.len()).map(|i| (self.key(i), self.value(i)))
    }

    /// Replace the key of entry `i` (the caller keeps the keys sorted).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_key(&mut self, i: usize, key: u64) {
        assert!(i < self.len(), "entry index out of range");
        self.raw[slot(i)..slot(i) + 8].copy_from_slice(&key.to_le_bytes());
    }

    /// Replace the value of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_value(&mut self, i: usize, value: u64) {
        assert!(i < self.len(), "entry index out of range");
        self.raw[slot(i) + 8..slot(i + 1)].copy_from_slice(&value.to_le_bytes());
    }

    /// Insert `entry` at position `i`, shifting later entries right.
    ///
    /// # Panics
    ///
    /// Panics if the node is full or `i` is past the end.
    pub fn insert(&mut self, i: usize, (key, value): (u64, u64)) {
        let len = self.len();
        assert!(
            len < FANOUT && i <= len,
            "insert into a full node or past the end"
        );
        self.raw.copy_within(slot(i)..slot(len), slot(i + 1));
        self.raw[1] += 1;
        self.set_key(i, key);
        self.set_value(i, value);
    }

    /// Append `entry` (its key must exceed every present key).
    ///
    /// # Panics
    ///
    /// Panics if the node is full.
    pub fn push(&mut self, entry: (u64, u64)) {
        self.insert(self.len(), entry);
    }

    /// Remove and return the entry at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remove(&mut self, i: usize) -> (u64, u64) {
        let entry = (self.key(i), self.value(i));
        let len = self.len();
        self.raw.copy_within(slot(i + 1)..slot(len), slot(i));
        self.raw[1] -= 1;
        entry
    }

    /// Keep the first `mid` entries and return the rest as a new node of
    /// the same kind.
    ///
    /// # Panics
    ///
    /// Panics if `mid` is past the end.
    pub fn split_off(&mut self, mid: usize) -> Node {
        let len = self.len();
        let mut upper = Node::with_entries(self.is_leaf(), &[]);
        upper.raw[slot(0)..slot(len - mid)].copy_from_slice(&self.raw[slot(mid)..slot(len)]);
        upper.raw[1] = (len - mid) as u8;
        self.raw[1] = mid as u8;
        upper
    }

    /// Load a node from memory at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn load<M: Memory>(mem: &mut M, addr: u64) -> Result<Node, EnvyError> {
        let mut node = Node {
            raw: [0; NODE_BYTES],
        };
        mem.read(addr, &mut node.raw)?;
        // Bound the count and pin the flag and padding (all no-ops on an
        // image `store` wrote); unused slots are settled at store time.
        node.raw[0] = u8::from(node.is_leaf());
        node.raw[1] = node.raw[1].min(FANOUT as u8);
        node.raw[2..HEADER_BYTES].fill(0);
        Ok(node)
    }

    /// Store the node to memory at `addr`: always the whole
    /// [`NODE_BYTES`], unused slots zeroed.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn store<M: Memory>(&self, mem: &mut M, addr: u64) -> Result<(), EnvyError> {
        // Zero the unused slots here rather than on every load: only
        // writers pay, and junk loaded from a foreign image never goes
        // back out.
        let mut raw = self.raw;
        raw[slot(self.len())..].fill(0);
        mem.write(addr, &raw)
    }

    /// Position of `key` in a leaf: `Ok(i)` if present, `Err(i)` for the
    /// insertion point.
    pub fn leaf_search(&self, key: u64) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Equal => return Ok(mid),
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Err(lo)
    }

    /// Child index to descend into for `key` in an internal node: the
    /// rightmost entry whose key is ≤ `key` (entry 0 if all keys are
    /// greater, which only happens transiently for the leftmost path).
    pub fn child_index(&self, key: u64) -> usize {
        match self.leaf_search(key) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use envy_core::VecMemory;

    #[test]
    fn layout_constants() {
        assert_eq!(FANOUT, 32);
        assert_eq!(NODE_BYTES, 528);
    }

    #[test]
    fn store_load_roundtrip() {
        let mut mem = VecMemory::new(4096);
        let mut n = Node::new_leaf();
        for i in 0..10u64 {
            n.push((i * 3, i * 100));
        }
        n.store(&mut mem, 128).unwrap();
        let back = Node::load(&mut mem, 128).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn internal_flag_roundtrips() {
        let mut mem = VecMemory::new(1024);
        let n = Node::new_internal();
        n.store(&mut mem, 0).unwrap();
        assert!(!Node::load(&mut mem, 0).unwrap().is_leaf());
    }

    #[test]
    fn full_node_roundtrip() {
        let mut mem = VecMemory::new(1024);
        let mut n = Node::new_leaf();
        for i in 0..FANOUT as u64 {
            n.push((i, i));
        }
        assert!(n.is_full());
        n.store(&mut mem, 0).unwrap();
        assert_eq!(Node::load(&mut mem, 0).unwrap().len(), FANOUT);
    }

    #[test]
    fn leaf_search_positions() {
        let n = Node::with_entries(true, &[(10, 0), (20, 0), (30, 0)]);
        assert_eq!(n.leaf_search(20), Ok(1));
        assert_eq!(n.leaf_search(5), Err(0));
        assert_eq!(n.leaf_search(25), Err(2));
        assert_eq!(n.leaf_search(99), Err(3));
    }

    #[test]
    fn child_index_convention() {
        let n = Node::with_entries(false, &[(0, 100), (10, 200), (20, 300)]);
        assert_eq!(n.child_index(0), 0);
        assert_eq!(n.child_index(5), 0);
        assert_eq!(n.child_index(10), 1);
        assert_eq!(n.child_index(15), 1);
        assert_eq!(n.child_index(99), 2);
    }
}
