//! Seeded model-based test of the payload arena: random offsets and
//! lengths over every owner operation (`write_bytes`, `fill`, the
//! arena-to-arena copies) checked byte for byte against a `Vec<u8>`, read
//! back through both the owner's plain path and a reader view's atomic
//! path. Lengths are drawn small so unaligned heads and tails, sub-word
//! ranges and the zero length all occur constantly, and the arenas have
//! odd lengths so the last, partial word is in play.

use envy_sim::rng::Rng;
use envy_sync::SharedArena;

/// An owner arena, a reader view of it, and the bytes it must hold.
struct Modelled {
    arena: SharedArena,
    model: Vec<u8>,
}

impl Modelled {
    fn new(len: usize, fill: u8) -> Modelled {
        Modelled {
            arena: SharedArena::new(len, fill),
            model: vec![fill; len],
        }
    }

    /// Owner read and view read of `offset..offset + len` both match the
    /// model; so does the whole arena (nothing outside a range moved).
    fn check(&self, offset: usize, len: usize, what: &str) {
        let view = self.arena.view();
        let mut owner = vec![0xC3u8; len];
        let mut reader = vec![0x3Cu8; len];
        self.arena.read_bytes(offset, &mut owner);
        view.read_bytes(offset, &mut reader);
        assert_eq!(
            owner,
            &self.model[offset..offset + len],
            "{what}: owner read"
        );
        assert_eq!(reader, owner, "{what}: view read");
        let mut all = vec![0u8; self.model.len()];
        self.arena.read_bytes(0, &mut all);
        assert_eq!(all, self.model, "{what}: bytes outside the range moved");
    }
}

/// A range inside `0..total`, short more often than long.
fn range(rng: &mut Rng, total: usize) -> (usize, usize) {
    let len = match rng.below(4) {
        0 => rng.below(9),
        1 => rng.below(40),
        _ => rng.below(total as u64 + 1),
    } as usize;
    let len = len.min(total);
    (rng.below((total - len) as u64 + 1) as usize, len)
}

#[test]
fn owner_ops_match_a_byte_vector_model() {
    let mut rng = Rng::seed_from(0xA7E4A);
    for (len_a, len_b) in [(13, 29), (301, 77), (64, 64), (1, 9)] {
        let mut a = Modelled::new(len_a, 0xFF);
        let mut b = Modelled::new(len_b, 0x00);
        for step in 0..4_000 {
            let what = format!("lens ({len_a},{len_b}) step {step}");
            match rng.below(5) {
                0 => {
                    let (offset, len) = range(&mut rng, len_a);
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    a.arena.write_bytes(offset, &bytes);
                    a.model[offset..offset + len].copy_from_slice(&bytes);
                    a.check(offset, len, &what);
                }
                1 => {
                    let (offset, len) = range(&mut rng, len_a);
                    let value = rng.next_u64() as u8;
                    a.arena.fill(offset, len, value);
                    a.model[offset..offset + len].fill(value);
                    a.check(offset, len, &what);
                }
                2 => {
                    // a -> b, any alignment on either side.
                    let (src, len) = range(&mut rng, len_a.min(len_b));
                    let dst = rng.below((len_b - len) as u64 + 1) as usize;
                    b.arena.copy_from(dst, a.arena.span(src, len));
                    b.model[dst..dst + len].copy_from_slice(&a.model[src..src + len]);
                    b.check(dst, len, &what);
                    a.check(src, len, &what);
                }
                3 => {
                    // Within a: the destination, widened to words, must
                    // miss the source, so draw until it does.
                    let (src, len) = range(&mut rng, len_a / 2);
                    let dst = rng.below((len_a - len) as u64 + 1) as usize;
                    let (lo, hi) = (dst - dst % 8, (dst + len).next_multiple_of(8));
                    if len != 0 && src < hi && lo < src + len {
                        continue;
                    }
                    a.arena.copy_within(src, dst, len);
                    a.model.copy_within(src..src + len, dst);
                    a.check(dst, len, &what);
                }
                _ => {
                    // A span's prefix copies just the prefix.
                    let (src, len) = range(&mut rng, len_a.min(len_b));
                    let keep = rng.below(len as u64 + 1) as usize;
                    b.arena.copy_from(0, a.arena.span(src, len).prefix(keep));
                    b.model[..keep].copy_from_slice(&a.model[src..src + keep]);
                    b.check(0, keep, &what);
                }
            }
        }
    }
}

/// Every out-of-range access still refuses exactly as before the plain
/// read path: a panic from the owner, `false` from the reader's pre-check.
#[test]
fn out_of_bounds_still_panics_or_refuses() {
    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }
    let view = SharedArena::new(13, 0).view();
    assert!(view.in_bounds(8, 5) && view.in_bounds(13, 0));
    assert!(!view.in_bounds(8, 6) && !view.in_bounds(14, 0) && !view.in_bounds(usize::MAX, 2));
    assert!(panics(|| SharedArena::new(13, 0)
        .view()
        .read_bytes(8, &mut [0; 6])));
    assert!(panics(|| SharedArena::new(13, 0).read_bytes(8, &mut [0; 6])));
    assert!(panics(|| SharedArena::new(13, 0).read_bytes(14, &mut [])));
    assert!(panics(|| SharedArena::new(13, 0).write_bytes(12, &[0; 2])));
    assert!(panics(|| SharedArena::new(13, 0).fill(0, 14, 1)));
    assert!(panics(|| {
        SharedArena::new(13, 0).span(6, 8);
    }));
    assert!(panics(
        || SharedArena::new(13, 0).copy_from(7, SharedArena::new(16, 0).span(0, 7))
    ));
    assert!(panics(|| SharedArena::new(32, 0).copy_within(0, 28, 5)));
    // Overlap, including through a shared edge word: bytes 0..5 and 5..10
    // are disjoint, but storing the destination's first word rewrites both.
    assert!(panics(|| SharedArena::new(32, 0).copy_within(0, 4, 8)));
    assert!(panics(|| SharedArena::new(32, 0).copy_within(0, 5, 5)));
    // Word-disjoint neighbours are fine, and so is a zero length anywhere.
    SharedArena::new(32, 0).copy_within(0, 8, 8);
    SharedArena::new(32, 0).copy_within(3, 3, 0);
}
