//! Cleaning-policy state and decisions (§4).
//!
//! All four policies of the paper are implemented over the same machinery:
//!
//! * **Greedy** (§4.2): one global active segment receives flushes; when
//!   it fills, the segment with the most invalid data is cleaned and
//!   becomes the new active segment.
//! * **FIFO** (§4.4): a single partition spanning the array with
//!   round-robin cleaning — the degenerate hybrid.
//! * **Locality gathering** (§4.3): one-segment partitions — all behaviour
//!   comes from flush-to-origin and inter-partition redistribution.
//! * **Hybrid(k)** (§4.4): k-segment partitions; FIFO inside a partition,
//!   locality gathering between partitions.

use crate::config::{EnvyConfig, PolicyKind};
use crate::engine::Engine;
use crate::error::EnvyError;
use crate::timing::BgOp;
use envy_sim::stats::Ewma;

/// How the single-active-segment policies pick their victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimRule {
    /// Most invalid pages (§4.2).
    MostInvalid,
    /// Sprite LFS cost-benefit: maximize `age × (1 − u) / 2u` \[13\].
    CostBenefit,
}

/// Greedy-policy state (shared by the greedy and cost-benefit baselines).
#[derive(Debug, Clone)]
pub struct GreedyState {
    /// Position currently receiving flushed pages.
    active: u32,
    /// Victim-selection rule.
    rule: VictimRule,
}

/// Partitioned-policy state (FIFO / locality gathering / hybrid).
#[derive(Debug, Clone)]
pub struct PartitionedState {
    /// Segments per partition.
    k: u32,
    /// Number of positions (cached).
    positions: u32,
    /// Per-partition active position (absolute).
    active: Vec<u32>,
    /// Per-partition cleaning-frequency estimate (cleans per flushed
    /// page), EWMA-smoothed.
    freq: Vec<Ewma>,
    /// Global flush count at each partition's last clean.
    last_clean_flush: Vec<u64>,
    /// Round-robin cursor for pages with no origin.
    fill_cursor: u32,
}

/// Policy state machine.
#[derive(Debug, Clone)]
pub enum PolicyState {
    /// Greedy victim selection.
    Greedy(GreedyState),
    /// Partitioned FIFO with optional locality gathering.
    Partitioned(PartitionedState),
}

/// A planned redistribution: `count` pages from the cleaned segment are
/// diverted to other partitions instead of the spare.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShedPlan {
    /// Destination slots `(position, pages)` in fill order.
    pub dests: Vec<(u32, u32)>,
    /// Total pages to shed.
    pub total: u32,
    /// Take pages from the head (cold end) of the victim when `true`,
    /// from the tail (hot end) otherwise.
    pub from_head: bool,
}

/// The locality-gathering decision for one clean (§4.3).
#[derive(Debug, Clone, Default)]
pub(crate) enum LgPlan {
    /// Products are balanced (or redistribution is off): plain clean.
    #[default]
    None,
    /// Lower this partition's utilization: divert pages toward the cold
    /// end of the array.
    Shed(ShedPlan),
}

impl PolicyState {
    /// Initialize policy state for `positions` segment positions.
    pub fn new(config: &EnvyConfig, positions: u32) -> PolicyState {
        let k = match config.policy {
            PolicyKind::Greedy => {
                return PolicyState::Greedy(GreedyState {
                    active: 0,
                    rule: VictimRule::MostInvalid,
                });
            }
            PolicyKind::CostBenefit => {
                return PolicyState::Greedy(GreedyState {
                    active: 0,
                    rule: VictimRule::CostBenefit,
                });
            }
            PolicyKind::Fifo => positions,
            PolicyKind::LocalityGathering => 1,
            PolicyKind::Hybrid {
                segments_per_partition,
            } => segments_per_partition.min(positions),
        };
        let nparts = positions.div_ceil(k);
        PolicyState::Partitioned(PartitionedState {
            k,
            positions,
            active: (0..nparts).map(|p| p * k).collect(),
            freq: vec![Ewma::new(0.3); nparts as usize],
            last_clean_flush: vec![0; nparts as usize],
            fill_cursor: 0,
        })
    }

    /// Number of partitions (1 for greedy).
    pub fn partitions(&self) -> u32 {
        match self {
            PolicyState::Greedy(_) => 1,
            PolicyState::Partitioned(p) => p.active.len() as u32,
        }
    }
}

impl PartitionedState {
    /// The partition a position belongs to.
    pub(crate) fn partition_of(&self, pos: u32) -> u32 {
        pos / self.k
    }

    /// The positions of a partition.
    pub(crate) fn positions_of(&self, part: u32) -> std::ops::Range<u32> {
        let start = part * self.k;
        start..(start + self.k).min(self.positions)
    }
}

impl Engine {
    /// Decide where the next flushed page goes, cleaning if necessary.
    /// Returns a position guaranteed to have at least one erased page.
    pub(crate) fn policy_flush_target(
        &mut self,
        origin: Option<u32>,
        ops: &mut Vec<BgOp>,
    ) -> Result<u32, EnvyError> {
        match &self.policy {
            PolicyState::Greedy(g) => {
                let active = g.active;
                let rule = g.rule;
                if self.has_space(self.order[active as usize]) {
                    return Ok(active);
                }
                // §4.2: cleaning happens "when there is no space to flush
                // data" — while any segment still has erased pages (the
                // initial fill), keep writing into the emptiest one.
                let target = match self.most_erased_position() {
                    Some(pos) => pos,
                    None => {
                        let victim = match rule {
                            VictimRule::MostInvalid => self.greedy_victim()?,
                            VictimRule::CostBenefit => self.cost_benefit_victim()?,
                        };
                        self.clean_position(victim, ops)?;
                        if !self.has_space(self.order[victim as usize]) {
                            return Err(EnvyError::ArrayFull);
                        }
                        victim
                    }
                };
                if let PolicyState::Greedy(g) = &mut self.policy {
                    g.active = target;
                }
                Ok(target)
            }
            PolicyState::Partitioned(p) => {
                let k = p.k;
                let nparts = p.active.len() as u32;
                let fill_cursor = p.fill_cursor;
                let part = match origin {
                    Some(pos) if self.config.lg_flush_to_origin => pos / k,
                    _ => {
                        // No origin (fresh page) or flush-to-origin
                        // disabled: round-robin fill.
                        if let PolicyState::Partitioned(p) = &mut self.policy {
                            p.fill_cursor = fill_cursor.wrapping_add(1);
                        }
                        fill_cursor % nparts
                    }
                };
                self.partition_slot(part, ops)
            }
        }
    }

    /// The position with the most erased pages, if any has one.
    fn most_erased_position(&self) -> Option<u32> {
        let best = (0..self.order.len() as u32)
            .max_by_key(|&pos| self.flash.erased_pages(self.order[pos as usize]))?;
        (self.flash.erased_pages(self.order[best as usize]) > 0).then_some(best)
    }

    /// Greedy victim: the position whose segment has the most invalid
    /// pages (§4.2: "the cleaner chooses to clean the segment with the
    /// most invalidated space").
    fn greedy_victim(&self) -> Result<u32, EnvyError> {
        let mut best: Option<(u32, u32)> = None;
        for (pos, &phys) in self.order.iter().enumerate() {
            let invalid = self.flash.invalid_pages(phys);
            if best.is_none_or(|(_, b)| invalid > b) {
                best = Some((pos as u32, invalid));
            }
        }
        match best {
            Some((pos, invalid)) if invalid > 0 => Ok(pos),
            _ => Err(EnvyError::ArrayFull),
        }
    }

    /// Sprite LFS cost-benefit victim \[13\]: maximize
    /// `age × (1 − u) / 2u`, where age is measured in flushed pages since
    /// the segment last received a write and u is its live fraction. The
    /// ratio trades the space reclaimed (1 − u) against the copy work
    /// (the `2u`: read + rewrite of live data) weighted by how long the
    /// segment's free space would likely remain stable (age).
    fn cost_benefit_victim(&self) -> Result<u32, EnvyError> {
        let now = self.flush_clock;
        let pps = self.config.geometry.pages_per_segment() as f64;
        let mut best: Option<(u32, f64)> = None;
        for (pos, &phys) in self.order.iter().enumerate() {
            if self.flash.invalid_pages(phys) == 0 {
                continue;
            }
            let u = self.flash.valid_pages(phys) as f64 / pps;
            let age = (now - self.seg_last_write[phys as usize]) as f64 + 1.0;
            let score = if u <= 0.0 {
                f64::INFINITY
            } else {
                age * (1.0 - u) / (2.0 * u)
            };
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((pos as u32, score));
            }
        }
        best.map(|(pos, _)| pos).ok_or(EnvyError::ArrayFull)
    }

    /// Find (or make) space in a partition: write into the active segment;
    /// when it fills, advance in FIFO order, cleaning the next segment
    /// (§4.4: "a FIFO cleaning order is used within each partition …
    /// written sequentially into the active segment").
    fn partition_slot(&mut self, part: u32, ops: &mut Vec<BgOp>) -> Result<u32, EnvyError> {
        let PolicyState::Partitioned(p) = &self.policy else {
            unreachable!("partition_slot requires partitioned policy");
        };
        let range = p.positions_of(part);
        let len = range.end - range.start;
        let mut pos = p.active[part as usize];
        if self.has_space(self.order[pos as usize]) {
            return Ok(pos);
        }
        for _ in 0..len {
            // Advance FIFO within the partition.
            pos = if pos + 1 >= range.end {
                range.start
            } else {
                pos + 1
            };
            if !self.has_space(self.order[pos as usize]) {
                self.clean_position(pos, ops)?;
            }
            if self.has_space(self.order[pos as usize]) {
                if let PolicyState::Partitioned(p) = &mut self.policy {
                    p.active[part as usize] = pos;
                }
                return Ok(pos);
            }
        }
        Err(EnvyError::ArrayFull)
    }

    /// Plan the locality-gathering redistribution for a clean of `pos`
    /// (§4.3): "When a segment is cleaned, the cleaner computes the
    /// product of that segment's cleaning cost and the frequency with
    /// which it is being cleaned. This value is compared to the average
    /// over all segments. If the value of the product for the cleaned
    /// segment is above the average, its utilization should be lowered.
    /// Otherwise, it should be increased. Pages are transferred between
    /// the cleaned segment and its neighbors."
    ///
    /// Transfers respect the migration directions: pages headed to a
    /// higher-numbered partition leave from the head (cold end); pages
    /// pulled down from a higher neighbour come from its tail (hot end).
    pub(crate) fn lg_plan(&mut self, pos: u32) -> LgPlan {
        let PolicyState::Partitioned(p) = &mut self.policy else {
            return LgPlan::None;
        };
        let nparts = p.active.len() as u32;
        if nparts < 2 || !self.config.lg_redistribute {
            return LgPlan::None;
        }
        let part = p.partition_of(pos);
        let flushes = self.flush_clock;

        // Update this partition's cleaning-frequency estimate from the
        // inter-clean gap measured in flushed pages.
        let gap = flushes.saturating_sub(p.last_clean_flush[part as usize]) + 1;
        p.last_clean_flush[part as usize] = flushes;
        p.freq[part as usize].record(1.0 / gap as f64);
        let freq = p.freq[part as usize].value().expect("recorded above");

        // Partition utilization and cleaning cost u/(1-u), Figure 6.
        let pps = self.config.geometry.pages_per_segment() as f64;
        let part_util = |p: &PartitionedState, q: u32| -> f64 {
            let range = p.positions_of(q);
            let cap = (range.end - range.start) as f64 * pps;
            let live: u64 = range
                .clone()
                .map(|pp| self.flash.valid_pages(self.order[pp as usize]) as u64)
                .sum();
            live as f64 / cap
        };
        let cost_of = |u: f64| -> f64 {
            if u >= 0.99 {
                99.0
            } else {
                u / (1.0 - u)
            }
        };
        let u_here = part_util(p, part);
        let product = freq * cost_of(u_here);

        // Average product over all partitions (unknown frequencies count
        // as zero: partitions that never clean have no cleaning load).
        let mut sum = 0.0;
        for q in 0..nparts {
            let f = p.freq[q as usize].value().unwrap_or(0.0);
            sum += f * cost_of(part_util(p, q));
        }
        let avg = sum / nparts as f64;
        if avg <= 0.0 {
            return LgPlan::None;
        }
        // Dead band: under uniform traffic every product is (noisily)
        // equal; acting on the noise only churns pages. This is what pins
        // pure LG at the fixed cost of 4 for uniform access (§4.3).
        let band = 0.25 * avg;
        let range = p.positions_of(part);
        let cap = (range.end - range.start) as f64 * pps;
        let desired_cost = (avg / freq).max(0.01);
        let u_star = (desired_cost / (1.0 + desired_cost)).clamp(0.02, 0.98);
        let max_move = (pps as u32 / 8).max(1);

        if product <= avg + band {
            return LgPlan::None;
        }
        // Too much cleaning load: shed live pages toward the cold end of
        // the array (from the head — the victim's coldest pages); the
        // last partition sheds downward instead, from its tail.
        let excess = ((u_here - u_star) * cap).floor();
        let victim_live = self.flash.valid_pages(self.order[pos as usize]);
        let want = (excess.max(0.0) as u32).min(max_move).min(victim_live);
        if want == 0 {
            return LgPlan::None;
        }
        // Prefer shedding toward the cold end (cold pages from the head);
        // when everything above is packed — e.g. after a hot spot moved
        // into previously cold territory — fall back to shedding hot
        // (tail) pages downward so free space can flow back. This is the
        // bidirectional aspect of the paper's transfer scheme.
        let upward = part + 1 < nparts;
        let plan = Self::plan_dest_slots(p, &self.order, &self.flash, part, want, upward);
        if plan.total > 0 {
            return LgPlan::Shed(plan);
        }
        let fallback = Self::plan_dest_slots(p, &self.order, &self.flash, part, want, !upward);
        if fallback.total > 0 {
            LgPlan::Shed(fallback)
        } else {
            LgPlan::None
        }
    }

    /// Fill-order slots with erased space in the partitions beyond
    /// `part` in the shed direction (upward when `upward`, else
    /// downward), nearest partition first. Hot neighbours are often full;
    /// scanning onward lets free space keep flowing toward the hot end of
    /// the array.
    fn plan_dest_slots(
        p: &PartitionedState,
        order: &[u32],
        flash: &envy_flash::FlashArray,
        part: u32,
        want: u32,
        upward: bool,
    ) -> ShedPlan {
        let nparts = (p.positions.div_ceil(p.k)).max(1);
        let mut dests = Vec::new();
        let mut remaining = want;
        let parts: Vec<u32> = if upward {
            (part + 1..nparts).collect()
        } else {
            (0..part).rev().collect()
        };
        // Receivers are capped below full so shed pages do not stuff a
        // neighbour to 100% live (which would just move the cleaning
        // hot-spot one partition over).
        let pps = flash.geometry().pages_per_segment();
        let live_cap = pps - (pps / 8).max(1);
        'outer: for dest_part in parts {
            let range = p.positions_of(dest_part);
            let len = range.end - range.start;
            let start = p.active[dest_part as usize].clamp(range.start, range.end - 1);
            for i in 0..len {
                let pos = range.start + (start - range.start + i) % len;
                let seg = order[pos as usize];
                let free = flash.erased_pages(seg);
                let room = live_cap.saturating_sub(flash.valid_pages(seg)).min(free);
                if room > 0 {
                    let take = room.min(remaining);
                    dests.push((pos, take));
                    remaining -= take;
                    if remaining == 0 {
                        break 'outer;
                    }
                }
            }
        }
        ShedPlan {
            total: want - remaining,
            dests,
            from_head: upward,
        }
    }

    /// Emergency shed: the victim segment is 100 % live and cleaning it
    /// in place cannot create space. Divert pages to any partition with
    /// room (rare; only possible when redistribution is disabled or
    /// utilization is extreme).
    pub(crate) fn forced_shed_plan(&self, pos: u32) -> ShedPlan {
        let PolicyState::Partitioned(p) = &self.policy else {
            return ShedPlan::default();
        };
        let part = p.partition_of(pos);
        let pps = self.config.geometry.pages_per_segment();
        let want = (pps / 16).max(1);
        let up = Self::plan_dest_slots(p, &self.order, &self.flash, part, want, true);
        if up.total > 0 {
            return up;
        }
        Self::plan_dest_slots(p, &self.order, &self.flash, part, want, false)
    }
}
