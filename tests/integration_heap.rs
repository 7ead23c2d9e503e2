//! Cross-crate integration: the persistent allocator over the eNVy
//! controller, across cleaning and power failures.

use envy::core::{EnvyConfig, EnvyStore, PolicyKind};
use envy::heap::Arena;
use envy::sim::rng::Rng;

fn store() -> EnvyStore {
    let config = EnvyConfig::scaled(4, 16, 256, 256)
        .with_policy(PolicyKind::paper_default())
        .with_utilization(0.7);
    let mut s = EnvyStore::new(config).expect("valid config");
    // Start from the steady-state (populated) array so heap writes go
    // through real copy-on-write and cleaning.
    s.prefill().expect("prefill");
    s
}

#[test]
fn arena_survives_power_failure() {
    let mut s = store();
    let mut arena = Arena::create(&mut s, 0, 128 * 1024).unwrap();
    let a = arena.alloc(&mut s, 64).unwrap();
    s.write(a, b"durable allocation").unwrap();
    s.power_failure();
    s.recover().unwrap();
    let mut reopened = Arena::open(&mut s, 0).unwrap();
    let mut buf = [0u8; 18];
    s.read(a, &mut buf).unwrap();
    assert_eq!(&buf, b"durable allocation");
    reopened.free(&mut s, a).unwrap();
    reopened.check(&mut s).unwrap();
    s.check_invariants().unwrap();
}

#[test]
fn arena_churn_under_cleaning() {
    let mut s = store();
    let mut arena = Arena::create(&mut s, 0, 256 * 1024).unwrap();
    let mut rng = Rng::seed_from(5);
    let mut live: Vec<(u64, u8, u64)> = Vec::new(); // (addr, fill byte, size)
    for _ in 0..20_000 {
        if live.len() < 64 && rng.chance(0.7) {
            let size = rng.range(8, 800);
            if let Ok(addr) = arena.alloc(&mut s, size) {
                let byte = rng.next_u64() as u8;
                s.write(addr, &vec![byte; size as usize]).unwrap();
                live.push((addr, byte, size));
            }
        } else if !live.is_empty() {
            let i = rng.below(live.len() as u64) as usize;
            let (addr, byte, size) = live.swap_remove(i);
            // Contents intact right up to the free.
            let mut buf = vec![0u8; size as usize];
            s.read(addr, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == byte), "corrupted allocation");
            arena.free(&mut s, addr).unwrap();
        }
    }
    assert!(
        s.stats().cleans.get() > 0,
        "heap churn should trigger cleaning"
    );
    arena.check(&mut s).unwrap();
    s.check_invariants().unwrap();
}
