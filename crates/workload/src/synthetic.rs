//! Synthetic page-write workloads for the cleaning studies (§4).
//!
//! The paper evaluates cleaning policies by driving page writes with a
//! bimodal locality-of-reference distribution ("10/90 means that 90 % of
//! all accesses go to 10 % of the data") against arrays of 32–1024
//! segments at 80 % utilization, and reports the *cleaning cost* —
//! cleaner program operations per flushed page (§4.1).

use envy_core::{EnvyConfig, EnvyError, EnvyStore, PolicyKind};
use envy_sim::dist::Bimodal;
use envy_sim::rng::Rng;

/// Configuration of one cleaning-cost measurement.
///
/// Cleaning cost depends on the number of segments, their utilization and
/// the write locality — not on absolute segment size — so studies run
/// with scaled-down segments (`pages_per_segment`) for speed; the paper's
/// own Figure 10 sweeps exactly this dimension.
#[derive(Debug, Clone)]
pub struct CleaningStudy {
    /// Number of Flash banks.
    pub banks: u32,
    /// Number of segments (including the always-erased spare).
    pub segments: u32,
    /// Pages per segment (scaled; the paper's hardware has 65 536).
    pub pages_per_segment: u32,
    /// Live-data fraction of the array (the paper fixes 80 %).
    pub utilization: f64,
    /// Cleaning policy under test.
    pub policy: PolicyKind,
    /// Bimodal locality as (data %, access %); `(50, 50)` is uniform.
    pub locality: (u32, u32),
    /// Writes to run before measuring (steady-state warm-up).
    pub warmup_writes: u64,
    /// Writes measured.
    pub measured_writes: u64,
    /// Wear-leveling trigger (`u64::MAX` disables it so it cannot perturb
    /// the cost measurement).
    pub wear_threshold: u64,
    /// RNG seed.
    pub seed: u64,
}

impl CleaningStudy {
    /// A study over `segments` segments of `pages_per_segment` pages at
    /// the paper's 80 % utilization, with warm-up and measurement windows
    /// of four array turnovers each.
    pub fn sized(
        segments: u32,
        pages_per_segment: u32,
        policy: PolicyKind,
        locality: (u32, u32),
    ) -> CleaningStudy {
        let logical = (segments as u64 * pages_per_segment as u64) * 4 / 5;
        CleaningStudy {
            banks: 8.min(segments),
            segments,
            pages_per_segment,
            utilization: 0.8,
            policy,
            locality,
            warmup_writes: logical * 4,
            measured_writes: logical * 4,
            wear_threshold: u64::MAX,
            seed: 0x5EED,
        }
    }

    /// Run the study and report steady-state cleaning metrics.
    ///
    /// # Errors
    ///
    /// Configuration or cleaning errors from the store.
    pub fn run(&self) -> Result<CleaningOutcome, EnvyError> {
        let config = EnvyConfig::scaled(self.banks, self.segments, self.pages_per_segment, 256)
            .with_store_data(false)
            .with_policy(self.policy)
            .with_utilization(self.utilization)
            .with_wear_threshold(self.wear_threshold)
            .with_buffer_pages(self.pages_per_segment as usize);
        let page_bytes = config.geometry.page_bytes() as u64;
        let mut store = EnvyStore::new(config)?;
        store.prefill()?;
        let logical_pages = store.config().logical_pages;
        let dist = Bimodal::from_spec(logical_pages, self.locality.0, self.locality.1);
        let mut rng = Rng::seed_from(self.seed);

        for _ in 0..self.warmup_writes {
            let lp = dist.sample(&mut rng);
            store.write(lp * page_bytes, &[0])?;
        }
        let flushed_before = store.stats().pages_flushed.get();
        let programs_before = store.stats().clean_programs.get();
        let cleans_before = store.stats().cleans.get();
        for _ in 0..self.measured_writes {
            let lp = dist.sample(&mut rng);
            store.write(lp * page_bytes, &[0])?;
        }
        let flushed = store.stats().pages_flushed.get() - flushed_before;
        let clean_programs = store.stats().clean_programs.get() - programs_before;
        let cleans = store.stats().cleans.get() - cleans_before;
        store
            .check_invariants()
            .map_err(|_| EnvyError::CorruptState)?;
        Ok(CleaningOutcome {
            cleaning_cost: if flushed == 0 {
                0.0
            } else {
                clean_programs as f64 / flushed as f64
            },
            pages_flushed: flushed,
            clean_programs,
            cleans,
            wear_spread: store.engine().flash().max_erase_cycles()
                - store.engine().flash().min_erase_cycles(),
        })
    }
}

/// Steady-state metrics from a [`CleaningStudy`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleaningOutcome {
    /// Cleaner program operations per flushed page (§4.1).
    pub cleaning_cost: f64,
    /// Pages flushed in the measurement window.
    pub pages_flushed: u64,
    /// Cleaner programs in the window.
    pub clean_programs: u64,
    /// Cleaning operations (segments cleaned) in the window.
    pub cleans: u64,
    /// Final erase-cycle spread across segments.
    pub wear_spread: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: PolicyKind, locality: (u32, u32)) -> CleaningOutcome {
        let mut s = CleaningStudy::sized(32, 64, policy, locality);
        s.warmup_writes /= 2;
        s.measured_writes /= 2;
        s.run().unwrap()
    }

    #[test]
    fn uniform_costs_are_positive_and_sane() {
        for policy in [PolicyKind::Greedy, PolicyKind::Fifo] {
            let out = quick(policy, (50, 50));
            assert!(out.pages_flushed > 0);
            assert!(
                out.cleaning_cost > 0.2 && out.cleaning_cost < 4.0,
                "{policy:?} uniform cost {}",
                out.cleaning_cost
            );
        }
    }

    #[test]
    fn greedy_degrades_with_locality() {
        let uniform = quick(PolicyKind::Greedy, (50, 50));
        let skewed = quick(PolicyKind::Greedy, (10, 90));
        assert!(
            skewed.cleaning_cost > uniform.cleaning_cost,
            "greedy: skewed {} should exceed uniform {}",
            skewed.cleaning_cost,
            uniform.cleaning_cost
        );
    }

    #[test]
    fn locality_gathering_improves_with_locality() {
        let uniform = quick(PolicyKind::LocalityGathering, (50, 50));
        let skewed = quick(PolicyKind::LocalityGathering, (5, 95));
        assert!(
            skewed.cleaning_cost < uniform.cleaning_cost,
            "LG: skewed {} should be below uniform {}",
            skewed.cleaning_cost,
            uniform.cleaning_cost
        );
    }

    #[test]
    fn hybrid_beats_locality_gathering_at_uniform() {
        let hybrid = quick(
            PolicyKind::Hybrid {
                segments_per_partition: 8,
            },
            (50, 50),
        );
        let lg = quick(PolicyKind::LocalityGathering, (50, 50));
        assert!(
            hybrid.cleaning_cost < lg.cleaning_cost,
            "hybrid {} should beat pure LG {} on uniform traffic",
            hybrid.cleaning_cost,
            lg.cleaning_cost
        );
    }

    #[test]
    fn outcome_flush_accounting_consistent() {
        let out = quick(PolicyKind::Fifo, (50, 50));
        assert!(out.clean_programs > 0);
        assert!(out.cleans > 0);
        let implied = out.clean_programs as f64 / out.pages_flushed as f64;
        assert!((implied - out.cleaning_cost).abs() < 1e-9);
    }
}
