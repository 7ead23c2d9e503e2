//! Engine-level behavioural tests: copy-on-write, flushing, cleaning
//! policies, wear leveling, transactions and recovery.

use super::*;
use crate::addr::Location;
use crate::config::{EnvyConfig, PolicyKind};
use crate::engine::host::WriteKind;
use crate::timing::BgOp;
use envy_sim::dist::Bimodal;
use envy_sim::rng::Rng;

fn small(policy: PolicyKind) -> Engine {
    let mut e = Engine::new(EnvyConfig::small_test().with_policy(policy)).unwrap();
    e.prefill().unwrap();
    e
}

fn write_lp(e: &mut Engine, lp: u64, byte: u8) -> WriteKind {
    let mut ops: Vec<BgOp> = Vec::new();
    let r = e.write_page_bytes(lp, 0, &[byte], None, &mut ops).unwrap();
    r.kind
}

fn txn_write_lp(e: &mut Engine, txn: u64, lp: u64, byte: u8) -> WriteKind {
    let mut ops: Vec<BgOp> = Vec::new();
    let r = e
        .write_page_bytes(lp, 0, &[byte], Some(txn), &mut ops)
        .unwrap();
    r.kind
}

fn read_byte(e: &mut Engine, lp: u64) -> u8 {
    let mut b = [0u8];
    e.read_page_bytes(lp, 0, &mut b).unwrap();
    b[0]
}

#[test]
fn prefill_maps_every_logical_page() {
    let e = small(PolicyKind::paper_default());
    for lp in 0..e.config().logical_pages {
        assert!(matches!(e.page_table.lookup(lp), Location::Flash(_)));
    }
    e.check_invariants().unwrap();
}

#[test]
fn prefill_spreads_evenly() {
    let e = small(PolicyKind::paper_default());
    let per: Vec<u32> = e.order.iter().map(|&s| e.flash.valid_pages(s)).collect();
    let max = per.iter().max().unwrap();
    let min = per.iter().min().unwrap();
    assert!(
        max - min <= per[0].div_ceil(1).min(64),
        "uneven fill: {per:?}"
    );
    // Spare untouched.
    assert_eq!(e.flash.valid_pages(e.spare), 0);
}

#[test]
fn fresh_write_then_read() {
    let mut e = Engine::new(EnvyConfig::small_test()).unwrap();
    assert_eq!(write_lp(&mut e, 5, 0xAB), WriteKind::Fresh);
    assert_eq!(read_byte(&mut e, 5), 0xAB);
    assert_eq!(e.stats().fresh_allocs.get(), 1);
    e.check_invariants().unwrap();
}

#[test]
fn unwritten_pages_read_erased() {
    let mut e = Engine::new(EnvyConfig::small_test()).unwrap();
    assert_eq!(read_byte(&mut e, 0), 0xFF);
}

#[test]
fn cow_invalidates_flash_copy_and_remaps() {
    let mut e = small(PolicyKind::paper_default());
    let lp = 7;
    let Location::Flash(loc) = e.page_table.lookup(lp) else {
        panic!("prefilled page must be in flash");
    };
    assert!(matches!(
        write_lp(&mut e, lp, 0x11),
        WriteKind::CopyOnWrite { .. }
    ));
    assert!(matches!(e.page_table.lookup(lp), Location::Sram(_)));
    assert_eq!(
        e.flash.page_state(loc.segment, loc.page),
        envy_flash::PageState::Invalid
    );
    assert_eq!(read_byte(&mut e, lp), 0x11);
    assert_eq!(e.stats().cow_ops.get(), 1);
    e.check_invariants().unwrap();
}

#[test]
fn repeated_writes_absorbed_in_sram() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 3, 1);
    assert_eq!(write_lp(&mut e, 3, 2), WriteKind::SramHit);
    assert_eq!(write_lp(&mut e, 3, 3), WriteKind::SramHit);
    assert_eq!(e.stats().cow_ops.get(), 1);
    assert_eq!(e.stats().sram_write_hits.get(), 2);
    assert_eq!(read_byte(&mut e, 3), 3);
}

#[test]
fn cow_preserves_rest_of_page() {
    let mut e = small(PolicyKind::paper_default());
    let mut ops = Vec::new();
    // Prefilled pages hold 0xFF everywhere; write one byte mid-page.
    e.write_page_bytes(9, 100, &[0x42], None, &mut ops).unwrap();
    let mut buf = [0u8; 3];
    e.read_page_bytes(9, 99, &mut buf).unwrap();
    assert_eq!(buf, [0xFF, 0x42, 0xFF]);
}

#[test]
fn flush_threshold_is_respected() {
    let mut e = small(PolicyKind::paper_default());
    let threshold = e.config().flush_threshold;
    for lp in 0..(threshold as u64 + 20) {
        write_lp(&mut e, lp, 1);
    }
    assert!(e.buffer.len() <= threshold);
    assert!(e.stats().pages_flushed.get() >= 20);
    e.check_invariants().unwrap();
}

#[test]
fn flushed_page_readable_from_flash() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 2, 0x77);
    let mut ops = Vec::new();
    e.flush_all(&mut ops).unwrap();
    assert!(matches!(e.page_table.lookup(2), Location::Flash(_)));
    assert_eq!(read_byte(&mut e, 2), 0x77);
    e.check_invariants().unwrap();
}

#[test]
fn flush_records_bg_ops() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 2, 1);
    let mut ops = Vec::new();
    e.flush_all(&mut ops).unwrap();
    assert!(ops.iter().any(|op| op.kind == crate::timing::BgKind::Flush));
}

fn churn(e: &mut Engine, writes: u64, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let n = e.config().logical_pages;
    for _ in 0..writes {
        let lp = rng.below(n);
        write_lp(e, lp, rng.next_u64() as u8);
    }
}

#[test]
fn greedy_survives_heavy_churn() {
    let mut e = small(PolicyKind::Greedy);
    churn(&mut e, 20_000, 1);
    assert!(e.stats().cleans.get() > 0, "cleaning must have happened");
    assert!(e.stats().cleaning_cost() > 0.0);
    e.check_invariants().unwrap();
}

#[test]
fn fifo_survives_heavy_churn() {
    let mut e = small(PolicyKind::Fifo);
    churn(&mut e, 20_000, 2);
    assert!(e.stats().cleans.get() > 0);
    e.check_invariants().unwrap();
}

#[test]
fn locality_gathering_survives_heavy_churn() {
    let mut e = small(PolicyKind::LocalityGathering);
    churn(&mut e, 20_000, 3);
    assert!(e.stats().cleans.get() > 0);
    e.check_invariants().unwrap();
}

#[test]
fn hybrid_survives_heavy_churn() {
    let mut e = small(PolicyKind::Hybrid {
        segments_per_partition: 4,
    });
    churn(&mut e, 20_000, 4);
    assert!(e.stats().cleans.get() > 0);
    e.check_invariants().unwrap();
}

#[test]
fn cost_benefit_survives_heavy_churn() {
    let mut e = small(PolicyKind::CostBenefit);
    churn(&mut e, 20_000, 5);
    assert!(e.stats().cleans.get() > 0);
    e.check_invariants().unwrap();
}

#[test]
fn cost_benefit_prefers_old_sparse_segments() {
    // Two candidate victims with equal invalid counts: cost-benefit picks
    // the one whose data has been stable longer (higher age).
    let mut e = small(PolicyKind::CostBenefit);
    // Rewrite a few pages of positions 2 and 5 to create invalid space.
    let per = e.config().logical_pages / e.positions() as u64;
    for i in 0..8 {
        write_lp(&mut e, 2 * per + i, 1);
        write_lp(&mut e, 5 * per + i, 1);
    }
    let mut ops = Vec::new();
    e.flush_all(&mut ops).unwrap();
    // Heavy churn makes cleaning happen under the policy; consistency is
    // the contract (victim order is policy-internal).
    churn(&mut e, 10_000, 6);
    assert!(e.stats().cleans.get() > 0);
    e.check_invariants().unwrap();
}

#[test]
fn data_integrity_under_churn_all_policies() {
    for policy in [
        PolicyKind::Greedy,
        PolicyKind::CostBenefit,
        PolicyKind::Fifo,
        PolicyKind::LocalityGathering,
        PolicyKind::Hybrid {
            segments_per_partition: 4,
        },
    ] {
        let mut e = small(policy);
        let n = e.config().logical_pages;
        let mut mirror = vec![0xFFu8; n as usize];
        let mut rng = Rng::seed_from(42);
        for _ in 0..10_000 {
            let lp = rng.below(n);
            let v = rng.next_u64() as u8;
            write_lp(&mut e, lp, v);
            mirror[lp as usize] = v;
        }
        for lp in 0..n {
            assert_eq!(
                read_byte(&mut e, lp),
                mirror[lp as usize],
                "mismatch at page {lp} under {policy:?}"
            );
        }
        e.check_invariants().unwrap();
    }
}

#[test]
fn greedy_picks_most_invalid_segment() {
    let mut e = small(PolicyKind::Greedy);
    // Invalidate many pages of position 3's segment by rewriting its
    // residents, few of position 1's.
    let per = e.config().logical_pages / e.positions() as u64;
    for i in 0..per / 2 {
        write_lp(&mut e, 3 * per + i, 1); // heavy on position 3
    }
    write_lp(&mut e, per, 1); // light on position 1
    let mut ops = Vec::new();
    e.flush_all(&mut ops).unwrap();
    // Fill the greedy active segment until a clean is forced and verify
    // the most-invalid segment was chosen: its invalid count drops to 0.
    let victim_phys = e.order[3];
    let invalid_before = e.flash.invalid_pages(victim_phys);
    assert!(invalid_before > 0);
    churn(&mut e, 5_000, 9);
    // After churn with cleaning, consistency holds and cleans occurred.
    assert!(e.stats().cleans.get() > 0);
    e.check_invariants().unwrap();
}

#[test]
fn cleaning_cost_uniform_is_reasonable() {
    // At 50% utilization with uniform traffic, steady-state cleaning cost
    // should be far below the naive u/(1-u) = 1.0 (FIFO ordering lets
    // segments decay before being cleaned).
    let mut e = small(PolicyKind::Fifo);
    churn(&mut e, 30_000, 7);
    let cost = e.stats().cleaning_cost();
    assert!(cost > 0.0 && cost < 1.5, "uniform FIFO cost {cost}");
}

#[test]
fn locality_gathering_lowers_hot_partition_utilization() {
    // 90% of writes to 10% of pages: the hot partition should end up with
    // more free space than cold partitions.
    let config = EnvyConfig::scaled(4, 16, 64, 256)
        .with_policy(PolicyKind::LocalityGathering)
        .with_utilization(0.8);
    let mut e = Engine::new(config).unwrap();
    e.prefill().unwrap();
    let n = e.config().logical_pages;
    let dist = Bimodal::from_spec(n, 10, 90);
    let mut rng = Rng::seed_from(5);
    for _ in 0..60_000 {
        let lp = dist.sample(&mut rng);
        write_lp(&mut e, lp, 1);
    }
    // Hot logical pages (first 10%) were prefilled into the first
    // positions. Compare utilization of position 0 vs the last position.
    let hot_u = e.flash.utilization(e.order[0]);
    let cold_u = e.flash.utilization(*e.order.last().unwrap());
    assert!(
        hot_u < cold_u,
        "hot segment utilization {hot_u:.2} should be below cold {cold_u:.2}"
    );
    assert!(e.stats().shed_programs.get() > 0, "redistribution must run");
    e.check_invariants().unwrap();
}

#[test]
fn wear_leveling_bounds_cycle_spread() {
    let config = EnvyConfig::scaled(2, 8, 32, 256)
        .with_policy(PolicyKind::LocalityGathering)
        .with_utilization(0.7)
        .with_buffer_pages(8)
        .with_wear_threshold(5);
    let mut e = Engine::new(config).unwrap();
    e.prefill().unwrap();
    // Hammer a hot region larger than the write buffer so flushes (and
    // therefore cleans) concentrate on a few segments.
    let mut rng = Rng::seed_from(11);
    for _ in 0..40_000 {
        let lp = rng.below(64);
        write_lp(&mut e, lp, 1);
    }
    assert!(e.stats().cleans.get() > 0, "cleaning must happen");
    assert!(e.stats().wear_swaps.get() > 0, "wear leveling must trigger");
    // Without wear leveling the hot segments would accumulate thousands
    // of cycles while cold segments stay at ~0; swapping keeps the spread
    // at the threshold. The +1: the last erase may land on the worn
    // segment while it is parked, before the next check swaps it.
    let spread = e.flash.max_erase_cycles() - e.flash.min_erase_cycles();
    let total = e.stats().erases.get();
    let threshold = e.config().wear_threshold;
    assert!(
        spread <= threshold + 1,
        "cycle spread {spread} over threshold {threshold} + 1 after {total} erases"
    );
    e.check_invariants().unwrap();
}

#[test]
fn wear_leveling_disabled_with_max_threshold() {
    let config = EnvyConfig::scaled(2, 8, 32, 256)
        .with_utilization(0.7)
        .with_wear_threshold(u64::MAX);
    let mut e = Engine::new(config).unwrap();
    e.prefill().unwrap();
    let mut rng = Rng::seed_from(12);
    for _ in 0..20_000 {
        write_lp(&mut e, rng.below(16), 1);
    }
    assert_eq!(e.stats().wear_swaps.get(), 0);
}

#[test]
fn txn_commit_keeps_changes() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 1, 0x10);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 1, 0x20);
    e.txn_commit(txn).unwrap();
    assert_eq!(read_byte(&mut e, 1), 0x20);
    assert_eq!(e.shadow_pages(), 0);
    e.check_invariants().unwrap();
}

#[test]
fn txn_abort_restores_pre_transaction_data() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 1, 0x10);
    write_lp(&mut e, 2, 0x11);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 1, 0x99);
    txn_write_lp(&mut e, txn, 2, 0x98);
    txn_write_lp(&mut e, txn, 1, 0x97); // second write to same page: one shadow
    assert_eq!(e.shadow_pages(), 2);
    e.txn_abort(txn).unwrap();
    assert_eq!(read_byte(&mut e, 1), 0x10);
    assert_eq!(read_byte(&mut e, 2), 0x11);
    assert_eq!(e.shadow_pages(), 0);
    e.check_invariants().unwrap();
}

#[test]
fn txn_abort_after_flush_still_restores() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 4, 0x33);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 4, 0x44);
    // Force the dirty copy out of SRAM into a new flash location.
    e.flush_all(&mut ops).unwrap();
    assert!(matches!(e.page_table.lookup(4), Location::Flash(_)));
    e.txn_abort(txn).unwrap();
    assert_eq!(read_byte(&mut e, 4), 0x33);
    e.check_invariants().unwrap();
}

#[test]
fn txn_shadow_survives_cleaning() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 6, 0x55);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 6, 0x66);
    // Clean every position so the shadow's segment is certainly cleaned.
    for pos in 0..e.positions() {
        e.clean_position(pos, &mut ops).unwrap();
    }
    assert!(
        e.stats().shadow_programs.get() > 0,
        "shadow must be relocated"
    );
    e.txn_abort(txn).unwrap();
    assert_eq!(read_byte(&mut e, 6), 0x55);
    e.check_invariants().unwrap();
}

#[test]
fn txn_begin_beyond_slot_capacity_rejected() {
    // Default configuration has one slot: a second begin is refused
    // with the slot count, never with another transaction's id.
    let mut e = small(PolicyKind::paper_default());
    let mut ops = Vec::new();
    let t1 = e.txn_begin(&mut ops).unwrap();
    assert!(matches!(
        e.txn_begin(&mut ops),
        Err(crate::error::EnvyError::TxnSlotsFull { slots: 1 })
    ));
    e.txn_commit(t1).unwrap();
    // A new transaction can open afterwards.
    let t2 = e.txn_begin(&mut ops).unwrap();
    assert!(t2 > t1);
    e.txn_commit(t2).unwrap();
}

fn small_with_slots(slots: u32) -> Engine {
    let mut e = Engine::new(
        EnvyConfig::small_test()
            .with_policy(PolicyKind::paper_default())
            .with_txn_slots(slots),
    )
    .unwrap();
    e.prefill().unwrap();
    e
}

#[test]
fn concurrent_txns_have_isolated_write_sets() {
    let mut e = small_with_slots(2);
    write_lp(&mut e, 1, 0x10);
    write_lp(&mut e, 2, 0x20);
    let mut ops = Vec::new();
    let t1 = e.txn_begin(&mut ops).unwrap();
    let t2 = e.txn_begin(&mut ops).unwrap();
    assert_eq!(e.open_txns(), [t1, t2]);
    txn_write_lp(&mut e, t1, 1, 0x11);
    txn_write_lp(&mut e, t2, 2, 0x22);
    // A third begin is refused: both slots are taken.
    assert!(matches!(
        e.txn_begin(&mut ops),
        Err(crate::error::EnvyError::TxnSlotsFull { slots: 2 })
    ));
    // t2 may not touch t1's page; the refusal names the holder.
    assert_eq!(
        e.write_page_bytes(1, 0, &[0xEE], Some(t2), &mut ops),
        Err(crate::error::EnvyError::TxnConflict { holder: t1 })
    );
    // Neither may a plain write — no silent join, no silent clobber.
    assert_eq!(
        e.write_page_bytes(1, 0, &[0xEF], None, &mut ops),
        Err(crate::error::EnvyError::TxnConflict { holder: t1 })
    );
    assert_eq!(e.stats().txn_conflict_refusals.get(), 2);
    // A plain write to an unowned page proceeds, independent of both.
    e.write_page_bytes(3, 0, &[0x33], None, &mut ops).unwrap();
    // Each transaction resolves independently.
    e.txn_abort(t1).unwrap();
    e.txn_commit(t2).unwrap();
    assert_eq!(read_byte(&mut e, 1), 0x10, "t1's write rolled back");
    assert_eq!(read_byte(&mut e, 2), 0x22, "t2's write committed");
    assert_eq!(read_byte(&mut e, 3), 0x33, "plain write survives the abort");
    assert_eq!(e.shadow_pages(), 0);
    assert_eq!(e.stats().open_txns.get(), 2);
    e.check_invariants().unwrap();
}

#[test]
fn plain_write_during_open_txn_executes_independently() {
    // The silent-join bug this PR removes: before, a plain write issued
    // while a transaction was open was absorbed into its write set and
    // vanished with its abort. Now it lands on its own.
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 7, 0x70);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 1, 0x11);
    write_lp(&mut e, 7, 0x77); // plain, unowned page: independent
    e.txn_abort(txn).unwrap();
    assert_eq!(read_byte(&mut e, 7), 0x77, "plain write must survive abort");
    assert_eq!(e.shadow_pages(), 0);
    e.check_invariants().unwrap();
}

#[test]
fn txn_write_after_plain_cow_pins_durable_shadow() {
    // A plain write pulls the page into SRAM after the transaction
    // begins; a later transactional write to the same page must still
    // pin a durable flash pre-image (the engine drains the buffer
    // first), so abort restores the *plain-written* value.
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 9, 0x90);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    write_lp(&mut e, 9, 0x91); // plain: CoW into SRAM, no shadow
    assert!(matches!(e.page_table.lookup(9), Location::Sram(_)));
    txn_write_lp(&mut e, txn, 9, 0x92);
    assert_eq!(
        e.shadow_pages(),
        1,
        "pre-image pinned despite SRAM residency"
    );
    e.txn_abort(txn).unwrap();
    assert_eq!(read_byte(&mut e, 9), 0x91, "abort restores the plain value");
    e.check_invariants().unwrap();
}

#[test]
fn txn_wrong_id_rejected() {
    let mut e = small(PolicyKind::paper_default());
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    assert!(e.txn_commit(txn + 1).is_err());
    assert!(e.txn_abort(txn + 1).is_err());
    e.txn_commit(txn).unwrap();
    assert!(e.txn_commit(txn).is_err(), "already committed");
}

#[test]
fn interrupted_clean_recovers() {
    let mut e = small(PolicyKind::paper_default());
    churn(&mut e, 2_000, 21);
    let mut ops = Vec::new();
    // Interrupt a clean of position 0 after 3 copies.
    e.clean_interrupted(0, 3, &mut ops).unwrap();
    assert!(e.clean_in_progress());
    // Invariants are violated mid-clean (victim partially copied) — that
    // is the point. Power-fail and recover.
    e.power_failure();
    let report = e.recover(&mut ops).unwrap();
    assert!(report.resumed_clean);
    assert!(!e.clean_in_progress());
    e.check_invariants().unwrap();
}

#[test]
fn interrupted_clean_preserves_data() {
    let mut e = small(PolicyKind::paper_default());
    let n = e.config().logical_pages;
    let mut mirror = vec![0xFFu8; n as usize];
    let mut rng = Rng::seed_from(31);
    for _ in 0..3_000 {
        let lp = rng.below(n);
        let v = rng.next_u64() as u8;
        write_lp(&mut e, lp, v);
        mirror[lp as usize] = v;
    }
    let mut ops = Vec::new();
    e.clean_interrupted(2, 5, &mut ops).unwrap();
    e.power_failure();
    e.recover(&mut ops).unwrap();
    for lp in 0..n {
        assert_eq!(read_byte(&mut e, lp), mirror[lp as usize], "page {lp}");
    }
}

#[test]
fn power_failure_preserves_buffered_writes() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 8, 0xCD);
    assert!(matches!(e.page_table.lookup(8), Location::Sram(_)));
    e.power_failure();
    let mut ops = Vec::new();
    let report = e.recover(&mut ops).unwrap();
    assert!(!report.resumed_clean);
    assert!(report.buffered_pages > 0);
    assert_eq!(read_byte(&mut e, 8), 0xCD);
}

#[test]
fn recovery_rolls_back_open_txn() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 3, 1);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 3, 2);
    e.power_failure();
    let report = e.recover(&mut ops).unwrap();
    // All-or-nothing: the uncommitted transaction is gone.
    assert_eq!(report.txn_rolled_back, [txn]);
    assert!(report.txn_completed.is_empty());
    assert_eq!(report.shadow_pages, 0);
    assert!(e.open_txns().is_empty());
    assert!(e.txn_abort(txn).is_err(), "already resolved by recovery");
    assert_eq!(read_byte(&mut e, 3), 1);
    assert_eq!(e.stats().txn_aborts.get(), 1);
}

#[test]
fn out_of_bounds_rejected() {
    let mut e = small(PolicyKind::paper_default());
    let n = e.config().logical_pages;
    let mut ops = Vec::new();
    assert!(matches!(
        e.write_page_bytes(n, 0, &[0], None, &mut ops),
        Err(crate::error::EnvyError::OutOfBounds { .. })
    ));
    let mut b = [0u8];
    assert!(e.read_page_bytes(n + 5, 0, &mut b).is_err());
}

#[test]
fn mmu_integration_hits_after_repeat_access() {
    let mut e = small(PolicyKind::paper_default());
    assert!(!e.mmu.access(3));
    assert!(e.mmu.access(3));
    // A write to the page invalidates its translation.
    write_lp(&mut e, 3, 1);
    assert!(!e.mmu.access(3));
}

#[test]
fn spare_rotates_through_cleans() {
    let mut e = small(PolicyKind::Fifo);
    let spare_before = e.spare;
    churn(&mut e, 10_000, 41);
    // After many cleans the spare is very likely a different segment,
    // and is always fully erased.
    let pps = e.config().geometry.pages_per_segment();
    assert_eq!(e.flash.erased_pages(e.spare), pps);
    assert!(e.stats().erases.get() > 0);
    let _ = spare_before; // rotation is probabilistic; erasedness is the invariant
}

// ---------------------------------------------------------------------
// Recovery paths (table-driven) and fault injection
// ---------------------------------------------------------------------

#[test]
fn recovery_paths_table() {
    struct Case {
        name: &'static str,
        setup: fn(&mut Engine, &mut Vec<BgOp>),
        check: fn(&RecoveryReport),
    }
    let cases = [
        Case {
            name: "non-empty write buffer",
            setup: |e, _| {
                write_lp(e, 8, 0xCD);
                write_lp(e, 9, 0xCE);
            },
            check: |r| {
                assert!(!r.resumed_clean);
                assert_eq!(r.buffered_pages, 2);
                assert_eq!(r.scavenged_pages, 0);
            },
        },
        Case {
            name: "mid-clean journal replay",
            setup: |e, ops| {
                churn(e, 2_000, 61);
                e.clean_interrupted(0, 3, ops).unwrap();
                assert!(e.clean_in_progress());
            },
            check: |r| assert!(r.resumed_clean),
        },
        Case {
            name: "open-transaction rolled back",
            setup: |e, ops| {
                write_lp(e, 3, 1);
                let txn = e.txn_begin(ops).unwrap();
                txn_write_lp(e, txn, 3, 2);
            },
            check: |r| {
                assert!(!r.txn_rolled_back.is_empty());
                assert_eq!(r.shadow_pages, 0);
                assert_eq!(r.released_shadows, 0);
            },
        },
        Case {
            name: "idle engine",
            setup: |_, _| {},
            check: |r| {
                assert!(!r.resumed_clean);
                assert_eq!(r.buffered_pages, 0);
                assert_eq!(r.dropped_buffer_pages, 0);
            },
        },
    ];
    for case in cases {
        let mut e = small(PolicyKind::paper_default());
        let mut ops = Vec::new();
        (case.setup)(&mut e, &mut ops);
        e.power_failure();
        let report = e.recover(&mut ops).unwrap();
        (case.check)(&report);
        e.check_invariants()
            .unwrap_or_else(|err| panic!("{}: {err}", case.name));
    }
}

#[test]
fn power_failure_drops_volatile_controller_state() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 3, 1);
    assert!(!e.mmu.access(3));
    assert!(e.mmu.access(3), "translation cached");
    e.power_failure();
    // MMU cache gone; battery-backed state intact.
    assert!(!e.mmu.access(3), "MMU cache must not survive power loss");
    assert!(!e.wear_in_progress);
    let mut ops = Vec::new();
    e.recover(&mut ops).unwrap();
    assert_eq!(read_byte(&mut e, 3), 1);
}

#[test]
fn injected_program_fault_on_flush_is_retried_and_counted() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 12, 0x5A);
    // Fail the first program issued from here on (the flush itself).
    e.arm_faults(FaultPlan::default().with_program_failures([1]));
    let mut ops = Vec::new();
    e.flush_all(&mut ops).unwrap();
    assert_eq!(e.stats().program_faults.get(), 1);
    assert_eq!(e.stats().program_retries.get(), 1);
    assert_eq!(e.stats().program_remaps.get(), 0);
    assert_eq!(read_byte(&mut e, 12), 0x5A);
    e.check_invariants().unwrap();
}

#[test]
fn program_faults_exhausting_the_target_segment_remap() {
    // Low utilization so the remapped target has erased room beyond the
    // remaining fault schedule.
    let config = EnvyConfig::scaled(2, 8, 32, 256)
        .with_policy(PolicyKind::Greedy)
        .with_utilization(0.3);
    let mut e = Engine::new(config).unwrap();
    e.prefill().unwrap();
    write_lp(&mut e, 0, 0x77);
    // Fail every program until well past one segment's erased capacity.
    e.arm_faults(FaultPlan::default().with_program_failures(1..=32));
    let mut ops = Vec::new();
    e.flush_all(&mut ops).unwrap();
    assert_eq!(e.stats().program_faults.get(), 32);
    assert!(
        e.stats().program_remaps.get() >= 1,
        "exhausting the target must remap"
    );
    assert_eq!(read_byte(&mut e, 0), 0x77);
    e.check_invariants().unwrap();
}

#[test]
fn injected_erase_fault_is_retried_and_counted() {
    let mut e = small(PolicyKind::paper_default());
    churn(&mut e, 2_000, 71);
    e.arm_faults(FaultPlan::default().with_erase_failures([1]));
    let mut ops = Vec::new();
    e.clean_position(0, &mut ops).unwrap();
    assert_eq!(e.stats().erase_faults.get(), 1);
    assert_eq!(e.stats().erase_retries.get(), 1);
    e.check_invariants().unwrap();
}

#[test]
fn empty_fault_plan_is_behavior_neutral() {
    let mut plain = small(PolicyKind::paper_default());
    let mut armed = small(PolicyKind::paper_default());
    armed.arm_faults(FaultPlan::default());
    churn(&mut plain, 8_000, 77);
    churn(&mut armed, 8_000, 77);
    let (p, a) = (plain.stats(), armed.stats());
    assert_eq!(p.pages_flushed.get(), a.pages_flushed.get());
    assert_eq!(p.clean_programs.get(), a.clean_programs.get());
    assert_eq!(p.cleans.get(), a.cleans.get());
    assert_eq!(p.erases.get(), a.erases.get());
    assert_eq!(p.wear_swaps.get(), a.wear_swaps.get());
    assert_eq!(p.program_faults.get(), 0);
    assert_eq!(a.program_faults.get(), 0);
    for lp in 0..plain.config().logical_pages {
        assert_eq!(read_byte(&mut plain, lp), read_byte(&mut armed, lp));
    }
}

#[test]
fn commit_crash_before_journal_rolls_back() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 5, 0x10);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 5, 0x20);
    e.arm_faults(FaultPlan::crash_at(InjectionPoint::CommitBefore, 1));
    assert_eq!(e.txn_commit(txn), Err(crate::error::EnvyError::PowerLoss));
    e.power_failure();
    let report = e.recover(&mut ops).unwrap();
    // The commit record never reached the journal: the unacknowledged
    // commit never happened, and recovery rolls the transaction back.
    assert_eq!(report.txn_rolled_back, [txn]);
    assert!(e.open_txns().is_empty());
    assert_eq!(report.shadow_pages, 0);
    assert_eq!(read_byte(&mut e, 5), 0x10);
    e.check_invariants().unwrap();
}

#[test]
fn commit_crash_after_journal_completes_commit() {
    // The satellite case: power fails *between* the journaled commit
    // record and the shadow release. The record wins — recovery finishes
    // the commit, never rolls back.
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 5, 0x10);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 5, 0x20);
    e.arm_faults(FaultPlan::crash_at(InjectionPoint::CommitAfterJournal, 1));
    assert_eq!(e.txn_commit(txn), Err(crate::error::EnvyError::PowerLoss));
    assert_eq!(e.commit_records(), [txn], "record survives the crash");
    assert_eq!(e.shadow_pages(), 1, "release had not run yet");
    e.power_failure();
    let report = e.recover(&mut ops).unwrap();
    assert_eq!(report.txn_completed, [txn]);
    assert!(report.txn_rolled_back.is_empty());
    assert!(e.commit_records().is_empty());
    assert!(e.open_txns().is_empty());
    assert_eq!(report.shadow_pages, 0);
    assert!(e.txn_abort(txn).is_err(), "nothing left to abort");
    assert_eq!(read_byte(&mut e, 5), 0x20);
    assert_eq!(e.stats().txn_commits.get(), 1);
    e.check_invariants().unwrap();
}

#[test]
fn commit_crash_after_point_is_durable() {
    let mut e = small(PolicyKind::paper_default());
    write_lp(&mut e, 5, 0x10);
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, 5, 0x20);
    e.arm_faults(FaultPlan::crash_at(InjectionPoint::CommitAfterPoint, 1));
    assert_eq!(e.txn_commit(txn), Err(crate::error::EnvyError::PowerLoss));
    e.power_failure();
    let report = e.recover(&mut ops).unwrap();
    // The commit had fully completed (record written, shadows released,
    // record cleared): recovery finds nothing to resolve.
    assert!(e.open_txns().is_empty());
    assert!(report.txn_completed.is_empty());
    assert!(report.txn_rolled_back.is_empty());
    assert_eq!(report.shadow_pages, 0);
    assert!(e.txn_abort(txn).is_err(), "nothing left to abort");
    assert_eq!(read_byte(&mut e, 5), 0x20);
    e.check_invariants().unwrap();
}

#[test]
fn interleaved_txns_resolve_independently_across_crash() {
    // Two in-flight transactions, power cut between one's journaled
    // commit record and its release: recovery finishes that commit and
    // rolls the other back — each all-or-nothing, independently.
    let mut e = small_with_slots(2);
    write_lp(&mut e, 1, 0x10);
    write_lp(&mut e, 2, 0x20);
    let mut ops = Vec::new();
    let t1 = e.txn_begin(&mut ops).unwrap();
    let t2 = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, t1, 1, 0x11);
    txn_write_lp(&mut e, t2, 2, 0x22);
    e.arm_faults(FaultPlan::crash_at(InjectionPoint::CommitAfterJournal, 1));
    assert_eq!(e.txn_commit(t1), Err(crate::error::EnvyError::PowerLoss));
    assert_eq!(e.commit_records(), [t1]);
    e.power_failure();
    let report = e.recover(&mut ops).unwrap();
    assert_eq!(report.txn_completed, [t1], "journaled commit finishes");
    assert_eq!(report.txn_rolled_back, [t2], "open peer rolls back");
    assert!(e.open_txns().is_empty());
    assert_eq!(report.shadow_pages, 0);
    assert_eq!(read_byte(&mut e, 1), 0x11, "t1's write is durable");
    assert_eq!(read_byte(&mut e, 2), 0x20, "t2's write is gone");
    e.check_invariants().unwrap();
}

#[test]
fn begin_crash_points_leave_no_transaction_behind() {
    // Crash before the slot is taken: nothing to resolve. Crash after
    // the slot is taken but before the id is returned: recovery rolls
    // back an empty transaction. Either way no state changes.
    for (point, rolled_back) in [
        (InjectionPoint::BeginAfterDrain, 0),
        (InjectionPoint::BeginAfterOpen, 1),
    ] {
        let mut e = small(PolicyKind::paper_default());
        write_lp(&mut e, 1, 0x10);
        let mut ops = Vec::new();
        e.arm_faults(FaultPlan::crash_at(point, 1));
        assert_eq!(
            e.txn_begin(&mut ops),
            Err(crate::error::EnvyError::PowerLoss),
            "{point:?}"
        );
        e.power_failure();
        let report = e.recover(&mut ops).unwrap();
        assert_eq!(report.txn_rolled_back.len(), rolled_back, "{point:?}");
        assert!(report.txn_completed.is_empty(), "{point:?}");
        assert!(e.open_txns().is_empty(), "{point:?}");
        assert_eq!(read_byte(&mut e, 1), 0x10, "{point:?}: data untouched");
        // The slot is free again: a fresh transaction opens and works.
        let txn = e.txn_begin(&mut ops).unwrap();
        txn_write_lp(&mut e, txn, 1, 0x11);
        e.txn_commit(txn).unwrap();
        assert_eq!(read_byte(&mut e, 1), 0x11);
        e.check_invariants().unwrap();
    }
}

#[test]
fn abort_crash_points_roll_back_fully() {
    // Crash at every point inside txn_abort over a multi-page write set;
    // recovery must complete the rollback (no partial visibility).
    for (i, point) in [
        InjectionPoint::AbortBefore,
        InjectionPoint::AbortMidRollback,
        InjectionPoint::AbortAfterRollback,
    ]
    .into_iter()
    .enumerate()
    {
        let mut e = small(PolicyKind::paper_default());
        for lp in 0..4 {
            write_lp(&mut e, lp, 0x10 + lp as u8);
        }
        let mut ops = Vec::new();
        let txn = e.txn_begin(&mut ops).unwrap();
        for lp in 0..4 {
            txn_write_lp(&mut e, txn, lp, 0x90 + lp as u8);
        }
        // Fire on the second hit for the mid-rollback point so at least
        // one page is already restored when power cuts.
        let nth = if point == InjectionPoint::AbortMidRollback {
            2
        } else {
            1
        };
        e.arm_faults(FaultPlan::crash_at(point, nth));
        assert_eq!(
            e.txn_abort(txn),
            Err(crate::error::EnvyError::PowerLoss),
            "case {i}: {point:?}"
        );
        e.power_failure();
        let report = e.recover(&mut ops).unwrap();
        assert_eq!(report.txn_rolled_back, [txn], "case {i}: {point:?}");
        assert!(e.open_txns().is_empty());
        assert_eq!(report.shadow_pages, 0);
        for lp in 0..4 {
            assert_eq!(
                read_byte(&mut e, lp),
                0x10 + lp as u8,
                "case {i}: {point:?} page {lp} must show pre-transaction data"
            );
        }
        assert_eq!(e.stats().txn_aborts.get(), 1, "counted exactly once");
        e.check_invariants().unwrap();
    }
}

#[test]
fn abort_crash_restores_fresh_pages_to_unmapped() {
    // A page born inside the transaction has no shadow; a crashed abort
    // must still return it to the unmapped (erased) state. No prefill,
    // so the page really is unmapped before the transaction.
    let mut e = Engine::new(EnvyConfig::small_test()).unwrap();
    let fresh_lp = 5;
    let mut ops = Vec::new();
    let txn = e.txn_begin(&mut ops).unwrap();
    txn_write_lp(&mut e, txn, fresh_lp, 0x42);
    e.arm_faults(FaultPlan::crash_at(InjectionPoint::AbortBefore, 1));
    assert_eq!(e.txn_abort(txn), Err(crate::error::EnvyError::PowerLoss));
    e.power_failure();
    let report = e.recover(&mut ops).unwrap();
    assert_eq!(report.txn_rolled_back, [txn]);
    assert_eq!(read_byte(&mut e, fresh_lp), 0xFF, "fresh page unmapped");
    e.check_invariants().unwrap();
}

/// Drive a mixed workload (plain writes plus transactions) against an
/// engine armed to crash at `point`, then power-fail, recover, and
/// verify the recovery contract: invariants hold, every acknowledged
/// write reads back, and the single in-flight write is either fully old
/// or fully new. Returns `false` if the workload never reached `point`.
fn crash_recover_verify(point: InjectionPoint, seed: u64) -> bool {
    let config = EnvyConfig::scaled(2, 8, 32, 256)
        .with_policy(PolicyKind::LocalityGathering)
        .with_utilization(0.7)
        .with_buffer_pages(8)
        .with_wear_threshold(5);
    let mut e = Engine::new(config).unwrap();
    e.prefill().unwrap();
    let n = e.config().logical_pages;
    let mut mirror = vec![0xFFu8; n as usize];
    let mut rng = Rng::seed_from(seed);
    e.arm_faults(FaultPlan::crash_at(point, 1));
    let mut ops = Vec::new();
    // Open transaction: (id, mirror snapshot at begin).
    let mut txn: Option<(u64, Vec<u8>)> = None;
    // Plain write cut off by the crash: may be old or new.
    let mut in_flight: Option<(u64, u8)> = None;
    let mut crashed = false;
    for step in 0..60_000u64 {
        use crate::error::EnvyError::PowerLoss;
        let phase = step % 37;
        if phase == 0 && txn.is_none() {
            match e.txn_begin(&mut ops) {
                Ok(id) => txn = Some((id, mirror.clone())),
                Err(PowerLoss) => {
                    crashed = true;
                    break;
                }
                Err(err) => panic!("txn_begin: {err}"),
            }
            continue;
        }
        if phase == 20 {
            if let Some((id, ref snapshot)) = txn {
                // Alternate commit and abort so both resolution paths
                // (and their crash points) get exercised.
                if (step / 37) % 2 == 0 {
                    match e.txn_commit(id) {
                        Ok(()) => txn = None,
                        Err(PowerLoss) => {
                            crashed = true;
                            break;
                        }
                        Err(err) => panic!("txn_commit: {err}"),
                    }
                } else {
                    match e.txn_abort(id) {
                        Ok(()) => {
                            mirror = snapshot.clone();
                            txn = None;
                        }
                        Err(PowerLoss) => {
                            crashed = true;
                            break;
                        }
                        Err(err) => panic!("txn_abort: {err}"),
                    }
                }
                continue;
            }
        }
        // Hammer a hot region (concentrates cleaning and wear on a few
        // segments) with occasional full-range writes for coverage.
        let lp = if step % 8 == 7 {
            rng.below(n)
        } else {
            rng.below(64.min(n))
        };
        let v = rng.next_u64() as u8;
        ops.clear();
        // While a transaction is open, write inside it — the snapshot
        // semantics below assume every write joins the open write set.
        let writer = txn.as_ref().map(|&(id, _)| id);
        match e.write_page_bytes(lp, 0, &[v], writer, &mut ops) {
            Ok(_) => mirror[lp as usize] = v,
            Err(PowerLoss) => {
                in_flight = Some((lp, v));
                crashed = true;
                break;
            }
            Err(err) => panic!("write: {err}"),
        }
    }
    if !crashed {
        return false;
    }
    assert!(e.crash_fired());
    e.power_failure();
    let mut rops = Vec::new();
    let report = e
        .recover(&mut rops)
        .unwrap_or_else(|err| panic!("recover after {point:?}: {err}"));
    e.check_invariants()
        .unwrap_or_else(|err| panic!("invariants after {point:?}: {err}"));
    assert!(
        e.open_txns().is_empty(),
        "no transaction stays open across recovery after {point:?}"
    );
    // Recovery is idempotent: a second power failure straight after it
    // finds nothing left to repair and starts no background work.
    e.power_failure();
    let mut again_ops = Vec::new();
    let again = e
        .recover(&mut again_ops)
        .unwrap_or_else(|err| panic!("second recover after {point:?}: {err}"));
    assert!(!again.resumed_clean, "clean resumed twice after {point:?}");
    assert_eq!(
        (
            again.scavenged_pages,
            again.dropped_buffer_pages,
            again.released_shadows
        ),
        (0, 0, 0),
        "second recovery repaired pages after {point:?}: {again:?}"
    );
    assert!(
        again.txn_completed.is_empty() && again.txn_rolled_back.is_empty(),
        "second recovery resolved a transaction after {point:?}: {again:?}"
    );
    assert_eq!(
        again.buffered_pages, report.buffered_pages,
        "after {point:?}"
    );
    assert!(
        again_ops.is_empty(),
        "second recovery emitted background ops after {point:?}"
    );
    e.check_invariants()
        .unwrap_or_else(|err| panic!("invariants after a second recovery at {point:?}: {err}"));
    if let Some((id, snapshot)) = txn {
        if report.txn_rolled_back.contains(&id) {
            // The transaction never reached its durable commit point (or
            // was already aborting): every page it touched — including
            // the in-flight one — reverts to the begin-time snapshot.
            mirror = snapshot;
            in_flight = None;
        } else {
            // The commit record survived the crash (recovery finished
            // the release) or the commit fully completed before it:
            // every acknowledged transaction write is durable, which the
            // full-mirror sweep below verifies.
            assert!(
                report.txn_completed == [id] || report.txn_completed.is_empty(),
                "foreign transaction resolved after {point:?}: {report:?}"
            );
        }
    } else {
        // The only rollback allowed with no acknowledged transaction is
        // an (empty) begin cut between taking its slot and returning the
        // id — the begin_after_open point.
        assert!(
            report.txn_rolled_back.len() <= 1,
            "phantom rollback after {point:?}: {report:?}"
        );
    }
    if let Some((lp, v)) = in_flight {
        let got = read_byte(&mut e, lp);
        assert!(
            got == mirror[lp as usize] || got == v,
            "page {lp} after {point:?}: got {got:#x}, want old {:#x} or new {v:#x}",
            mirror[lp as usize]
        );
        mirror[lp as usize] = got;
    }
    for lp in 0..n {
        assert_eq!(
            read_byte(&mut e, lp),
            mirror[lp as usize],
            "acknowledged write lost at page {lp} after crash at {point:?}"
        );
    }
    e.check_invariants().unwrap();
    // The engine keeps working after recovery.
    e.disarm_faults();
    churn(&mut e, 500, seed ^ 0x5eed);
    e.check_invariants().unwrap();
    true
}

#[test]
fn crash_at_every_injection_point_recovers() {
    for (i, &point) in InjectionPoint::ALL.iter().enumerate() {
        let fired = crash_recover_verify(point, 1000 + i as u64);
        assert!(fired, "workload never reached {point:?}");
    }
}

#[test]
fn policy_partition_counts() {
    let e = small(PolicyKind::Hybrid {
        segments_per_partition: 4,
    });
    // 16 segments -> 15 positions -> ceil(15/4) = 4 partitions.
    assert_eq!(e.policy.partitions(), 4);
    let e = small(PolicyKind::LocalityGathering);
    assert_eq!(e.policy.partitions(), 15);
    let e = small(PolicyKind::Fifo);
    assert_eq!(e.policy.partitions(), 1);
    let e = small(PolicyKind::Greedy);
    assert_eq!(e.policy.partitions(), 1);
    let e = small(PolicyKind::CostBenefit);
    assert_eq!(e.policy.partitions(), 1);
}

/// An engine with nothing prefilled and logical page 8 buffered, and the
/// frame that holds it.
fn one_buffered_page() -> (Engine, u32) {
    let mut e = Engine::new(EnvyConfig::small_test()).unwrap();
    write_lp(&mut e, 8, 0xCD);
    e.check_invariants().unwrap();
    let Location::Sram(frame) = e.page_table.lookup(8) else {
        panic!("page 8 is buffered");
    };
    (e, frame)
}

#[test]
fn invariants_catch_a_frame_whose_page_maps_elsewhere() {
    // Frame side of the frame <-> SRAM-mapping bijection: a second frame
    // for a buffered page (what the buffer's own duplicate check used to
    // refuse), and a frame for a page that is not SRAM-mapped.
    for lp in [8, 9] {
        let (mut e, _) = one_buffered_page();
        e.buffer.insert_frame(lp, None).unwrap();
        let err = e.check_invariants().unwrap_err();
        assert!(err.contains(&format!("holds logical page {lp}")), "{err}");
    }
}

#[test]
fn invariants_catch_an_sram_mapping_to_the_wrong_frame() {
    // Mapping side: an unmapped page pointed at a frame that holds
    // another page, and at a frame nothing occupies.
    let (mut e, frame) = one_buffered_page();
    e.page_table.map_sram(9, frame);
    let err = e.check_invariants().unwrap_err();
    assert!(err.contains("logical page 9 maps to SRAM frame"), "{err}");

    let (mut e, frame) = one_buffered_page();
    e.page_table.map_sram(9, frame + 1);
    let err = e.check_invariants().unwrap_err();
    assert!(err.contains("logical page 9 maps to SRAM frame"), "{err}");
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "already buffered")]
fn duplicate_buffer_insert_panics() {
    let (mut e, _) = one_buffered_page();
    e.buffer_insert(8, None);
}
