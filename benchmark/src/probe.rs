//! The machine-speed probe, the per-round normalisation it drives, and
//! exact quantiles over raw samples.
//!
//! The VM this benchmark was sized on has two CPU speed states that flip
//! every few seconds; single-threaded work tracks them exactly. Every
//! timed interval is therefore bracketed by [`probe_ms`] and every
//! host-time quantity is rescaled to a machine on which the probe takes
//! [`REF_MS`].

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the probe loop (~50 ms of register-only integer work).
pub const PROBE_ITERS: u64 = 30_000_000;

/// The probe time every host-time quantity is normalised to.
pub const REF_MS: f64 = 50.0;

/// Time a fixed xorshift loop: no memory traffic, no syscalls, so it
/// measures nothing but how fast this CPU retires integer work now.
/// Runs `PROBE_ITERS / shorten` iterations and scales the time back up,
/// so the result is always in full-probe milliseconds (`--quick` runs
/// shorten the probe tenfold; measured runs never do).
pub fn probe_ms(shorten: u64) -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..PROBE_ITERS / shorten {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3 * shorten as f64
}

/// The speed state of one timed interval: the mean of the probes run
/// immediately before and after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Mean of the two bracketing probe times, in milliseconds.
    pub probe_ms: f64,
}

impl Speed {
    pub fn bracket(before_ms: f64, after_ms: f64) -> Speed {
        Speed {
            probe_ms: (before_ms + after_ms) / 2.0,
        }
    }

    /// A rate measured under this speed, as the reference machine would
    /// have measured it (a slower machine's rate is scaled up).
    pub fn rate(&self, per_s: f64) -> f64 {
        per_s * self.probe_ms / REF_MS
    }

    /// A duration measured under this speed, as the reference machine
    /// would have measured it.
    pub fn time(&self, t: f64) -> f64 {
        t * REF_MS / self.probe_ms
    }
}

/// Exact quantile of sorted samples: the element at rank `⌈q·n⌉`
/// (nearest-rank, 1-based), so the result is always a sample that was
/// measured and `n·(1−q)` samples lie beyond it.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of per-round values (mean of the middle two
/// when the count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Lower quartile (nearest rank) of a small set of per-round values.
/// Used for the tail latency: interference from outside the process adds
/// slow operations to a round and never removes any, so the quieter
/// rounds are the ones that measure the program.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        // Nearest rank never interpolates between samples.
        assert_eq!(quantile_sorted(&[10, 20, 30, 40], 0.5), 20);
        assert_eq!(quantile_sorted(&[10, 20, 30, 40], 0.51), 30);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lower_quartile_is_a_measured_value() {
        let rounds: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&rounds), 4.0);
        assert_eq!(lower_quartile(&[9.0, 7.0, 8.0]), 7.0);
        assert_eq!(lower_quartile(&[5.0]), 5.0);
    }

    #[test]
    fn a_doubled_probe_halves_the_rate_it_excuses() {
        // The same work timed on a machine running at half speed: the
        // probe takes twice as long and so does the round, so the raw
        // rate halves. Normalising must bring both to the same number.
        let fast = Speed::bracket(50.0, 50.0);
        let slow = Speed::bracket(100.0, 100.0);
        let ops = 1_000_000.0;
        let (fast_secs, slow_secs) = (1.0, 2.0);
        assert_eq!(fast.rate(ops / fast_secs), slow.rate(ops / slow_secs));
        assert_eq!(fast.time(10.0), slow.time(20.0));
        // And a round timed under a doubled probe, same raw rate, is
        // credited twice the rate.
        assert_eq!(slow.rate(500.0), 2.0 * fast.rate(500.0));
    }

    #[test]
    fn the_probe_takes_measurable_time_and_scales_with_work() {
        let t = probe_ms(1);
        assert!(t > 1.0, "probe finished in {t} ms: optimised away?");
    }
}
