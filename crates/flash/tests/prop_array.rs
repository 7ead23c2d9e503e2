//! Randomized test: the Flash array's page state machine against a model.
//!
//! Random program/invalidate/erase sequences must keep the per-segment
//! valid/invalid/erased counts consistent with an explicit model, and
//! illegal transitions must be rejected exactly when the model says so.

use envy_flash::{FlashArray, FlashGeometry, FlashTimings, PageData, PageState};
use envy_sim::check::{cases, Gen};

#[derive(Debug, Clone)]
enum Op {
    Program { seg: u32, page: u32 },
    Invalidate { seg: u32, page: u32 },
    Erase { seg: u32 },
}

const SEGS: u32 = 4;
const PPS: u32 = 8;

fn gen_op(g: &mut Gen) -> Op {
    match g.below(3) {
        0 => Op::Program {
            seg: g.below(SEGS as u64) as u32,
            page: g.below(PPS as u64) as u32,
        },
        1 => Op::Invalidate {
            seg: g.below(SEGS as u64) as u32,
            page: g.below(PPS as u64) as u32,
        },
        _ => Op::Erase {
            seg: g.below(SEGS as u64) as u32,
        },
    }
}

#[test]
fn array_matches_model() {
    cases(0xF1A5_4001, 128, |g| {
        let ops = g.vec_of(1, 200, gen_op);
        let geo = FlashGeometry::new(2, SEGS, PPS, 16).unwrap();
        let mut array = FlashArray::new(geo, FlashTimings::paper(), false);
        let mut model = vec![[PageState::Erased; PPS as usize]; SEGS as usize];
        let mut cycles = vec![0u64; SEGS as usize];

        for op in ops {
            match op {
                Op::Program { seg, page } => {
                    let legal = model[seg as usize][page as usize] == PageState::Erased;
                    let got = array.program_page(seg, page, PageData::None);
                    assert_eq!(got.is_ok(), legal, "{op:?}");
                    if legal {
                        model[seg as usize][page as usize] = PageState::Valid;
                    }
                }
                Op::Invalidate { seg, page } => {
                    let legal = model[seg as usize][page as usize] == PageState::Valid;
                    let got = array.invalidate_page(seg, page);
                    assert_eq!(got.is_ok(), legal, "{op:?}");
                    if legal {
                        model[seg as usize][page as usize] = PageState::Invalid;
                    }
                }
                Op::Erase { seg } => {
                    let legal = model[seg as usize].iter().all(|&s| s != PageState::Valid);
                    let got = array.erase_segment(seg);
                    assert_eq!(got.is_ok(), legal, "{op:?}");
                    if legal {
                        model[seg as usize] = [PageState::Erased; PPS as usize];
                        cycles[seg as usize] += 1;
                    }
                }
            }
            // Counts agree with the model after every step.
            for seg in 0..SEGS {
                let valid = model[seg as usize]
                    .iter()
                    .filter(|&&s| s == PageState::Valid)
                    .count() as u32;
                let invalid = model[seg as usize]
                    .iter()
                    .filter(|&&s| s == PageState::Invalid)
                    .count() as u32;
                assert_eq!(array.valid_pages(seg), valid);
                assert_eq!(array.invalid_pages(seg), invalid);
                assert_eq!(array.erased_pages(seg), PPS - valid - invalid);
                assert_eq!(array.erase_cycles(seg), cycles[seg as usize]);
            }
        }
    });
}

#[test]
fn data_mode_preserves_last_programmed_bytes() {
    cases(0xF1A5_4002, 64, |g| {
        let rounds = g.bytes(1, 20);
        let geo = FlashGeometry::new(1, 2, 4, 8).unwrap();
        let mut array = FlashArray::new(geo, FlashTimings::paper(), true);
        for (i, &byte) in rounds.iter().enumerate() {
            let page = (i % 4) as u32;
            if array.page_state(0, page) != PageState::Erased {
                if array.page_state(0, page) == PageState::Valid {
                    array.invalidate_page(0, page).unwrap();
                }
                if array.valid_pages(0) == 0 {
                    array.erase_segment(0).unwrap();
                }
            }
            if array.page_state(0, page) == PageState::Erased {
                let data = [byte; 8];
                array.program_page(0, page, PageData::Bytes(&data)).unwrap();
                let mut out = [0u8; 8];
                array.read_page(0, page, Some(&mut out)).unwrap();
                assert_eq!(out, data);
            }
        }
    });
}
