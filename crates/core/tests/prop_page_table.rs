//! Randomized test: the page table's forward and reverse maps stay
//! mutually consistent under arbitrary map/unmap sequences, and every
//! forward word decodes back to the Flash page or SRAM frame it was
//! given.

use envy_core::addr::{FlashLocation, Location};
use envy_core::page_table::PageTable;
use envy_flash::FlashGeometry;
use envy_sim::check::{cases, Gen};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    MapFlash { lp: u64, seg: u32, page: u32 },
    MapSram { lp: u64, frame: u32 },
    Unmap { lp: u64 },
}

const LPS: u64 = 32;
const SEGS: u32 = 4;
const PPS: u32 = 8;
/// Frames up to the last word the encoding has: 4 segments of 8 pages
/// take words 1..=32, so frames run to `u32::MAX - 33`.
const MAX_FRAME: u64 = u32::MAX as u64 - 33;

fn gen_op(g: &mut Gen) -> Op {
    match g.below(3) {
        0 => Op::MapFlash {
            lp: g.below(LPS),
            seg: g.below(SEGS as u64) as u32,
            page: g.below(PPS as u64) as u32,
        },
        1 => Op::MapSram {
            lp: g.below(LPS),
            // Both ends of the frame range as well as small frames.
            frame: match g.below(3) {
                0 => g.below(64) as u32,
                1 => (MAX_FRAME - g.below(64)) as u32,
                _ => g.below(MAX_FRAME + 1) as u32,
            },
        },
        _ => Op::Unmap { lp: g.below(LPS) },
    }
}

#[test]
fn forward_reverse_consistent() {
    cases(0x9A6E_7AB1, 256, |g| {
        let ops = g.vec_of(1, 150, gen_op);
        let geo = FlashGeometry::new(2, SEGS, PPS, 16).unwrap();
        let mut pt = PageTable::new(LPS, &geo);
        // Model: lp -> location, plus reverse occupancy.
        let mut fwd: HashMap<u64, Location> = HashMap::new();
        let mut occupied: HashMap<(u32, u32), u64> = HashMap::new();

        for op in ops {
            match op {
                Op::MapFlash { lp, seg, page } => {
                    // Skip mappings that would double-book a physical page
                    // (the controller never does this; the table asserts).
                    if occupied.get(&(seg, page)).is_some_and(|&o| o != lp) {
                        continue;
                    }
                    if let Some(Location::Flash(old)) = fwd.get(&lp) {
                        occupied.remove(&(old.segment, old.page));
                    }
                    let loc = FlashLocation { segment: seg, page };
                    pt.map_flash(lp, loc);
                    fwd.insert(lp, Location::Flash(loc));
                    occupied.insert((seg, page), lp);
                }
                Op::MapSram { lp, frame } => {
                    if let Some(Location::Flash(old)) = fwd.get(&lp) {
                        occupied.remove(&(old.segment, old.page));
                    }
                    pt.map_sram(lp, frame);
                    fwd.insert(lp, Location::Sram(frame));
                }
                Op::Unmap { lp } => {
                    if let Some(Location::Flash(old)) = fwd.get(&lp) {
                        occupied.remove(&(old.segment, old.page));
                    }
                    pt.unmap(lp);
                    fwd.remove(&lp);
                }
            }
            pt.check_consistency().unwrap();
        }

        // Final cross-check against the model.
        for lp in 0..LPS {
            let want = fwd.get(&lp).copied().unwrap_or(Location::Unmapped);
            assert_eq!(pt.lookup(lp), want);
            if let Location::Flash(loc) = want {
                assert_eq!(pt.logical_at(loc), Some(lp));
            }
        }
        for seg in 0..SEGS {
            let count = occupied.keys().filter(|(s, _)| *s == seg).count() as u32;
            assert_eq!(pt.resident_count(seg), count);
        }
    });
}
