//! The borrowed [`ReadView`](envy_core::ReadView) answers what
//! [`EnvyStore::read`] answers, on a payload store whose pages have been
//! flushed, cleaned and relocated, and it leaves the store's statistics,
//! MMU and clock as they were.

use envy_core::{EnvyConfig, EnvyStore};

/// xorshift64*: a deterministic stream.
fn next(seed: &mut u64) -> u64 {
    let mut x = *seed;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *seed = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[test]
fn view_answers_what_read_answers_after_flush_and_clean() {
    let mut store = EnvyStore::new(EnvyConfig::small_test()).unwrap();
    let pb = store.config().geometry.page_bytes() as usize;
    let pages = store.config().logical_pages;
    // Churn whole-page writes over the lower three quarters of the
    // logical pages; the rest stay unmapped.
    let written = pages * 3 / 4;
    let mut seed = 0xDEAD_BEEF_CAFE_F00D;
    let mut page = vec![0u8; pb];
    for i in 0..6_000u64 {
        let lp = next(&mut seed) % written;
        for (k, b) in page.iter_mut().enumerate() {
            *b = (i as usize + k) as u8;
        }
        store.write(lp * pb as u64, &page).unwrap();
        if i % 1024 == 1023 {
            store.flush_all().unwrap();
        }
    }
    store.flush_all().unwrap();
    assert!(store.stats().pages_flushed.get() > 0, "nothing flushed");
    assert!(store.stats().clean_programs.get() > 0, "nothing cleaned");
    // Everything written is in Flash now; these pages go back to SRAM.
    let sram = [3u64, 4, 17];
    for lp in sram {
        store.write(lp * pb as u64 + 5, b"in the buffer").unwrap();
    }

    let pb = pb as u64;
    let ranges: &[(&str, u64, usize)] = &[
        ("unmapped", (pages - 1) * pb, 64),
        ("sram", 3 * pb + 1, 40),
        ("flash", 9 * pb + 7, 100),
        ("sram -> sram page crossing", 4 * pb - 10, 30),
        ("sram -> flash page crossing", 5 * pb - 10, 30),
        ("flash -> sram page crossing", 17 * pb - 10, 30),
        ("flash -> unmapped page crossing", written * pb - 20, 40),
        ("several whole pages", 2 * pb, 4 * pb as usize),
    ];

    let stats = store.stats().clone();
    let flash_stats = store.engine().flash().stats().clone();
    let (hits, misses) = (store.engine().mmu().hits(), store.engine().mmu().misses());
    let now = store.now();
    let view = store.read_view();
    let seen: Vec<Vec<u8>> = ranges
        .iter()
        .map(|&(what, addr, len)| {
            let mut buf = vec![0u8; len];
            assert_eq!(view.read(addr, &mut buf), Ok(0), "{what}");
            buf
        })
        .collect();
    assert_eq!(*store.stats(), stats, "the view moved a statistic");
    let after = store.engine().flash().stats();
    assert_eq!(after.page_reads.get(), flash_stats.page_reads.get());
    assert_eq!(
        store.engine().mmu().hits(),
        hits,
        "the view touched the MMU"
    );
    assert_eq!(
        store.engine().mmu().misses(),
        misses,
        "the view touched the MMU"
    );
    assert_eq!(store.now(), now, "the view moved the clock");

    for (&(what, addr, len), seen) in ranges.iter().zip(&seen) {
        let mut want = vec![0u8; len];
        store.read(addr, &mut want).unwrap();
        assert_eq!(*seen, want, "{what}");
    }
    assert_eq!(&seen[0], &vec![0xFF; 64], "unmapped reads erased");
    store.check_invariants().unwrap();
}
