//! Seeded model-based test of the payload arena: random offsets and
//! lengths over every operation (`write_bytes`, `fill`, the copies
//! between and within arenas) checked byte for byte against a
//! `Vec<u8>`. Lengths are drawn small so short ranges and the zero
//! length occur constantly, and the arenas have odd lengths.

use envy_sim::rng::Rng;
use envy_sync::ByteArena;

/// An arena and the bytes it must hold.
struct Modelled {
    arena: ByteArena,
    model: Vec<u8>,
}

impl Modelled {
    fn new(len: usize, fill: u8) -> Modelled {
        Modelled {
            arena: ByteArena::new(len, fill),
            model: vec![fill; len],
        }
    }

    /// A read of `offset..offset + len` matches the model; so does the
    /// whole arena (nothing outside a range moved).
    fn check(&self, offset: usize, len: usize, what: &str) {
        let mut read = vec![0xC3u8; len];
        self.arena.read_bytes(offset, &mut read);
        assert_eq!(read, &self.model[offset..offset + len], "{what}: read");
        assert_eq!(
            self.arena.span(0, self.model.len()),
            self.model,
            "{what}: bytes outside the range moved"
        );
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
            match rng.below(4) {
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
                    // a -> b through a borrowed span.
                    let (src, len) = range(&mut rng, len_a.min(len_b));
                    let dst = rng.below((len_b - len) as u64 + 1) as usize;
                    b.arena.write_bytes(dst, a.arena.span(src, len));
                    b.model[dst..dst + len].copy_from_slice(&a.model[src..src + len]);
                    b.check(dst, len, &what);
                    a.check(src, len, &what);
                }
                _ => {
                    // Within a, overlapping ranges included.
                    let (src, len) = range(&mut rng, len_a);
                    let dst = rng.below((len_a - len) as u64 + 1) as usize;
                    a.arena.copy_within(src, dst, len);
                    a.model.copy_within(src..src + len, dst);
                    a.check(dst, len, &what);
                }
            }
        }
    }
}

/// Every out-of-range access panics, an overflowing end included.
#[test]
fn out_of_bounds_still_panics_or_refuses() {
    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }
    assert!(panics(|| ByteArena::new(13, 0).read_bytes(8, &mut [0; 6])));
    assert!(panics(|| ByteArena::new(13, 0).read_bytes(14, &mut [])));
    assert!(panics(|| ByteArena::new(13, 0).write_bytes(12, &[0; 2])));
    assert!(panics(|| ByteArena::new(13, 0).fill(0, 14, 1)));
    assert!(panics(|| {
        ByteArena::new(13, 0).span(6, 8);
    }));
    assert!(panics(|| {
        ByteArena::new(13, 0).span(usize::MAX, 2);
    }));
    assert!(panics(|| ByteArena::new(32, 0).copy_within(0, 28, 5)));
    assert!(panics(|| ByteArena::new(32, 0).copy_within(28, 0, 5)));
    // The last byte and a zero length at the end are in bounds.
    assert_eq!(ByteArena::new(13, 7).span(12, 1), [7]);
    assert!(ByteArena::new(13, 0).span(13, 0).is_empty());
    ByteArena::new(32, 0).copy_within(3, 3, 0);
}
