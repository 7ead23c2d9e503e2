//! What the tree asks of its `Memory`: how many node reads an insert
//! costs, and exactly which writes a seeded workload issues. The write
//! list is Flash traffic once the memory is an eNVy store, so it is pinned
//! to a recorded value — a change that alters it must say so here.

use envy_btree::{BTree, NODE_BYTES};
use envy_core::{EnvyError, Memory, VecMemory};
use envy_sim::rng::Rng;
use std::collections::BTreeMap;

/// A `Memory` that counts whole-node reads and logs every write.
struct Counting {
    inner: VecMemory,
    node_reads: u64,
    writes: Vec<(u64, usize)>,
}

impl Counting {
    fn new(size: u64) -> Counting {
        Counting {
            inner: VecMemory::new(size),
            node_reads: 0,
            writes: Vec::new(),
        }
    }
}

impl Memory for Counting {
    fn size(&self) -> u64 {
        self.inner.size()
    }

    fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), EnvyError> {
        self.node_reads += u64::from(buf.len() == NODE_BYTES);
        self.inner.read(addr, buf)
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), EnvyError> {
        self.writes.push((addr, bytes.len()));
        self.inner.write(addr, bytes)
    }
}

const REGION: u64 = 64;
const REGION_LEN: u64 = 256 * 1024;

#[test]
fn no_split_insert_reads_each_level_once() {
    let mut mem = Counting::new(REGION + REGION_LEN);
    let mut tree = BTree::create(&mut mem, REGION, REGION_LEN).unwrap();
    // Ascending keys leave every node but the rightmost path half full,
    // so inserting an even key's odd neighbour splits nothing.
    for key in (0..4_000u64).map(|k| k * 2) {
        tree.insert(&mut mem, key, key).unwrap();
    }
    let depth = u64::from(tree.depth(&mut mem).unwrap());
    assert!(depth >= 3, "want a multi-level descent, got depth {depth}");
    for key in [1u64, 1_001, 3_999] {
        let (reads, writes) = (mem.node_reads, mem.writes.len());
        assert_eq!(tree.insert(&mut mem, key, 7).unwrap(), None);
        assert_eq!(mem.writes.len() - writes, 1, "key {key} must not split");
        assert_eq!(
            mem.node_reads - reads,
            depth,
            "key {key}: one read per level"
        );
        // A replace walks the same path.
        let reads = mem.node_reads;
        assert_eq!(tree.insert(&mut mem, key, 8).unwrap(), Some(7));
        assert_eq!(mem.node_reads - reads, depth, "replacing key {key}");
    }
}

/// `(addr, len, count)` of every write issued by the seeded sequence in
/// `seeded_sequence_issues_the_recorded_writes` (the 32-byte region header
/// first, then one row per node), recorded from seed 0xB7EE on the
/// double-load descent this test's commit replaced: the one-pass descent
/// changed the reads and none of the writes.
const RECORDED_WRITES: &[(u64, usize, u32)] = &[
    (64, 32, 41),
    (96, 528, 64),
    (624, 528, 70),
    (1152, 528, 32),
    (1680, 528, 46),
    (2208, 528, 58),
    (2736, 528, 67),
    (3264, 528, 57),
    (3792, 528, 53),
    (4320, 528, 68),
    (4848, 528, 46),
    (5376, 528, 56),
    (5904, 528, 58),
    (6432, 528, 61),
    (6960, 528, 62),
    (7488, 528, 44),
    (8016, 528, 60),
    (8544, 528, 52),
    (9072, 528, 66),
    (9600, 528, 53),
    (10128, 528, 52),
    (10656, 528, 56),
    (11184, 528, 65),
    (11712, 528, 53),
    (12240, 528, 52),
    (12768, 528, 69),
    (13296, 528, 59),
    (13824, 528, 66),
    (14352, 528, 48),
    (14880, 528, 59),
    (15408, 528, 55),
    (15936, 528, 60),
    (16464, 528, 61),
    (16992, 528, 51),
    (17520, 528, 4),
    (18048, 528, 1),
    (18576, 528, 61),
    (19104, 528, 66),
    (19632, 528, 48),
];

#[test]
fn seeded_sequence_issues_the_recorded_writes() {
    let mut mem = Counting::new(REGION + REGION_LEN);
    let mut tree = BTree::create(&mut mem, REGION, REGION_LEN).unwrap();
    let mut model = BTreeMap::new();
    let mut rng = Rng::seed_from(0xB7EE);
    // An ascending load splits the root twice (depth 3: leaf, internal
    // and root splits all happen), then random inserts, replaces and
    // deletes fill the half-empty leaves and split a few more.
    for key in (0..560u64).map(|k| k * 2) {
        let value = rng.next_u64();
        assert_eq!(
            tree.insert(&mut mem, key, value).unwrap(),
            model.insert(key, value)
        );
    }
    for _ in 0..1_500 {
        let key = rng.below(1_120);
        if rng.below(5) == 0 {
            assert_eq!(tree.delete(&mut mem, key).unwrap(), model.remove(&key));
        } else {
            let value = rng.next_u64();
            assert_eq!(
                tree.insert(&mut mem, key, value).unwrap(),
                model.insert(key, value)
            );
        }
    }
    assert_eq!(tree.depth(&mut mem).unwrap(), 3);
    for (&key, &value) in &model {
        assert_eq!(tree.get(&mut mem, key).unwrap(), Some(value));
    }

    let mut multiset: BTreeMap<(u64, usize), u32> = BTreeMap::new();
    for &write in &mem.writes {
        *multiset.entry(write).or_default() += 1;
    }
    let got: Vec<(u64, usize, u32)> = multiset
        .into_iter()
        .map(|((addr, len), count)| (addr, len, count))
        .collect();
    assert_eq!(got, RECORDED_WRITES);
}
