//! Randomized tests for the B-Tree built on the array, against
//! `std::collections::BTreeMap`.

use envy::btree::BTree;
use envy::core::{EnvyConfig, EnvyStore, VecMemory};
use envy::sim::check::cases;
use std::collections::BTreeMap;

/// B-Tree over plain RAM matches BTreeMap for arbitrary insert/get
/// interleavings.
#[test]
fn btree_matches_btreemap_on_ram() {
    cases(0xB7EE_0001, 48, |g| {
        let ops = g.vec_of(1, 400, |g| (g.chance(0.5), g.below(500), g.u64()));
        let mut mem = VecMemory::new(2 * 1024 * 1024);
        let mut tree = BTree::create(&mut mem, 0, 2 * 1024 * 1024).unwrap();
        let mut model = BTreeMap::new();
        for (is_insert, k, v) in ops {
            if is_insert {
                let expected = model.insert(k, v);
                let got = tree.insert(&mut mem, k, v).unwrap();
                assert_eq!(got, expected);
            } else {
                assert_eq!(tree.get(&mut mem, k).unwrap(), model.get(&k).copied());
                assert_eq!(
                    tree.get_probed(&mut mem, k).unwrap(),
                    model.get(&k).copied()
                );
            }
        }
    });
}

/// Full op mix — insert, delete, point get, ordered scan — matches
/// BTreeMap for arbitrary interleavings, including scans that start
/// inside lazily-emptied leaves.
#[test]
fn btree_delete_scan_match_btreemap() {
    cases(0xB7EE_0004, 48, |g| {
        let ops = g.vec_of(1, 400, |g| (g.below(4) as u8, g.below(500), g.u64()));
        let mut mem = VecMemory::new(2 * 1024 * 1024);
        let mut tree = BTree::create(&mut mem, 0, 2 * 1024 * 1024).unwrap();
        let mut model = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 | 1 => {
                    // Insert twice as often as the others so the tree
                    // actually grows multiple levels.
                    let expected = model.insert(k, v);
                    assert_eq!(tree.insert(&mut mem, k, v).unwrap(), expected);
                }
                2 => {
                    let expected = model.remove(&k);
                    assert_eq!(tree.delete(&mut mem, k).unwrap(), expected);
                }
                _ => {
                    let limit = (v % 17) as usize;
                    let expected: Vec<(u64, u64)> = model
                        .range(k..)
                        .take(limit)
                        .map(|(a, b)| (*a, *b))
                        .collect();
                    assert_eq!(tree.scan(&mut mem, k, limit).unwrap(), expected);
                }
            }
        }
        // Final full scan is the sorted model.
        let all: Vec<(u64, u64)> = model.iter().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(tree.scan(&mut mem, 0, usize::MAX).unwrap(), all);
    });
}

/// The same B-Tree behaviour holds over the eNVy store (copy-on-write
/// and cleaning underneath must be invisible).
#[test]
fn btree_matches_btreemap_on_envy() {
    cases(0xB7EE_0002, 48, |g| {
        let ops = g.vec_of(1, 200, |g| (g.below(300), g.u64()));
        let config = EnvyConfig::scaled(4, 16, 128, 256).with_utilization(0.6);
        let mut store = EnvyStore::new(config).unwrap();
        let region = 128 * 1024;
        let mut tree = BTree::create(&mut store, 0, region).unwrap();
        let mut model = BTreeMap::new();
        for (k, v) in ops {
            model.insert(k, v);
            tree.insert(&mut store, k, v).unwrap();
        }
        for (&k, &v) in &model {
            assert_eq!(tree.get(&mut store, k).unwrap(), Some(v));
        }
        store.check_invariants().unwrap();
    });
}
