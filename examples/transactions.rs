//! Hardware atomic transactions (§6).
//!
//! "eNVy automatically copies all modified data from Flash to SRAM as
//! part of its copy-on-write mechanism. The original data in Flash is not
//! destroyed, and it can be used to provide a free shadow copy."
//!
//! This example transfers money between two account records atomically,
//! aborts one transfer halfway, and shows the shadows surviving a
//! cleaning pass.
//!
//! Run with: `cargo run --release --example transactions`

use envy::core::{EnvyConfig, EnvyError, EnvyStore};

const ALICE: u64 = 0x100;
const BOB: u64 = 0x2000;

fn balance(store: &mut EnvyStore, addr: u64) -> Result<i64, EnvyError> {
    let mut b = [0u8; 8];
    store.read(addr, &mut b)?;
    Ok(i64::from_le_bytes(b))
}

/// Write a balance, inside `txn` when one is given: a plain write never
/// joins an open transaction, so every write a rollback must undo goes
/// through `txn_write`.
fn set_balance(
    store: &mut EnvyStore,
    txn: Option<u64>,
    addr: u64,
    v: i64,
) -> Result<(), EnvyError> {
    match txn {
        Some(txn) => store.txn_write(txn, addr, &v.to_le_bytes()),
        None => store.write(addr, &v.to_le_bytes()),
    }
}

fn main() -> Result<(), EnvyError> {
    let mut store = EnvyStore::new(EnvyConfig::small_test())?;
    set_balance(&mut store, None, ALICE, 1_000)?;
    set_balance(&mut store, None, BOB, 250)?;

    // A committed transfer.
    let txn = store.txn_begin()?;
    set_balance(&mut store, Some(txn), ALICE, 700)?;
    set_balance(&mut store, Some(txn), BOB, 550)?;
    store.txn_commit(txn)?;
    println!(
        "after committed transfer: alice={} bob={}",
        balance(&mut store, ALICE)?,
        balance(&mut store, BOB)?
    );

    // An aborted transfer: rollback restores the shadow copies.
    let txn = store.txn_begin()?;
    set_balance(&mut store, Some(txn), ALICE, 0)?;
    set_balance(&mut store, Some(txn), BOB, 1_250)?;
    println!(
        "  mid-transaction: alice=0 bob=1250, shadows={}",
        store.engine().shadow_pages()
    );
    store.txn_abort(txn)?;
    println!(
        "after abort: alice={} bob={} (restored from Flash shadows)",
        balance(&mut store, ALICE)?,
        balance(&mut store, BOB)?
    );
    assert_eq!(balance(&mut store, ALICE)?, 700);
    assert_eq!(balance(&mut store, BOB)?, 550);

    // Shadows survive cleaning: the cleaner relocates them (§6: the
    // controller must "protect them from being cleaned").
    let txn = store.txn_begin()?;
    set_balance(&mut store, Some(txn), ALICE, 9_999)?;
    let positions = store.engine().positions();
    let mut ops = Vec::new();
    for pos in 0..positions {
        store.engine_mut().clean_position(pos, &mut ops)?;
        ops.clear();
    }
    println!(
        "cleaned all {} positions; shadow pages relocated: {}",
        positions,
        store.stats().shadow_programs.get()
    );
    store.txn_abort(txn)?;
    assert_eq!(balance(&mut store, ALICE)?, 700);
    println!("rollback still correct after cleaning: alice=700");
    store.check_invariants().expect("consistent");
    Ok(())
}
