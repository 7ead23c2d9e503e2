//! Statistics gathering: counters, histograms, moving averages and
//! windowed time series.
//!
//! These are the building blocks for the paper's reported metrics: average
//! read/write latency (Figure 15), achieved throughput (Figures 13–14),
//! cleaning cost (Figures 6, 8–10), and the controller time breakdown
//! (§5.3).

use crate::time::Ns;
use std::fmt;

/// A plain event counter.
///
/// # Example
///
/// ```
/// use envy_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.incr();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Reset to zero, returning the prior value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Sub-bucket resolution of [`Histogram`]: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: values below `SUBS` get one exact bucket each;
/// each of the remaining `64 - SUB_BITS` octaves gets `SUBS` sub-buckets.
const BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Latency histogram with log-linear buckets.
///
/// Each power-of-two octave `[2^e, 2^(e+1))` is split into 16 linear
/// sub-buckets, so any quantile is resolved to a relative error of at
/// most 1/16 (≈6 %); values below 16 ns are recorded exactly. The range
/// spans 1 ns to `u64::MAX` ns (~584 years), plenty for read latencies
/// (180 ns) through segment erases (50 ms) and beyond.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The bucket index a nanosecond value falls into.
fn bucket_of(n: u64) -> usize {
    if n < SUBS as u64 {
        return n as usize;
    }
    let e = 63 - n.leading_zeros(); // e >= SUB_BITS
    let shift = e - SUB_BITS;
    let sub = (n >> shift) as usize - SUBS; // in [0, SUBS)
    (e - SUB_BITS + 1) as usize * SUBS + sub
}

/// The largest nanosecond value contained in a bucket.
fn bucket_upper(b: usize) -> u64 {
    if b < SUBS {
        return b as u64;
    }
    let group = (b / SUBS) as u32; // >= 1
    let sub = (b % SUBS) as u64;
    let shift = group - 1;
    ((SUBS as u64 + sub) << shift) + ((1u64 << shift) - 1)
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Record one duration.
    pub fn record(&mut self, d: Ns) {
        let n = d.as_nanos();
        self.buckets[bucket_of(n)] += 1;
        self.count += 1;
        self.sum_ns += n;
        self.min_ns = self.min_ns.min(n);
        self.max_ns = self.max_ns.max(n);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean duration ([`Ns::ZERO`] if empty).
    pub fn mean(&self) -> Ns {
        match self.sum_ns.checked_div(self.count) {
            Some(mean) => Ns::from_nanos(mean),
            None => Ns::ZERO,
        }
    }

    /// Smallest recorded duration (`None` if empty).
    pub fn min(&self) -> Option<Ns> {
        (self.count > 0).then(|| Ns::from_nanos(self.min_ns))
    }

    /// Largest recorded duration (`None` if empty).
    pub fn max(&self) -> Option<Ns> {
        (self.count > 0).then(|| Ns::from_nanos(self.max_ns))
    }

    /// Approximate quantile (`q` in `[0, 1]`), resolved to the upper
    /// bound of the log-linear bucket containing the target rank and
    /// clamped to the observed `[min, max]`; `None` if empty. The error
    /// is at most one sub-bucket (≤1/16 relative).
    pub fn quantile(&self, q: f64) -> Option<Ns> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let upper = bucket_upper(i);
                return Some(Ns::from_nanos(upper.min(self.max_ns).max(self.min_ns)));
            }
        }
        Some(Ns::from_nanos(self.max_ns))
    }

    /// The standard percentile summary `(p50, p95, p99, p999)`; `None`
    /// if empty.
    pub fn percentiles(&self) -> Option<[Ns; 4]> {
        Some([
            self.quantile(0.5)?,
            self.quantile(0.95)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
        ])
    }

    /// Total of all recorded durations.
    pub fn sum(&self) -> Ns {
        Ns::from_nanos(self.sum_ns)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }
}

/// Exponentially-weighted moving average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create with smoothing factor `alpha` in `(0, 1]`; larger alpha
    /// weights recent samples more.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current smoothed value (`None` before the first sample).
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// A bounded time series of periodic samples: named columns, one row of
/// values per elapsed window of simulated time.
///
/// The series is dumb storage plus window bookkeeping: callers check
/// [`TimeSeries::due`] as simulated time advances and push one row per
/// window via [`TimeSeries::record`]. When the row bound is reached the
/// oldest rows are dropped, so a long run keeps the most recent history
/// at a fixed memory ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window: Ns,
    columns: Vec<&'static str>,
    rows: Vec<(Ns, Vec<f64>)>,
    next_end: Ns,
    max_rows: usize,
}

impl TimeSeries {
    /// Create a series sampling every `window`, keeping at most
    /// `max_rows` recent rows.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `max_rows` is zero.
    pub fn new(window: Ns, columns: &[&'static str], max_rows: usize) -> TimeSeries {
        assert!(window > Ns::ZERO, "window must be positive");
        assert!(max_rows > 0, "max_rows must be positive");
        TimeSeries {
            window,
            columns: columns.to_vec(),
            rows: Vec::new(),
            next_end: window,
            max_rows,
        }
    }

    /// The sampling window.
    pub fn window(&self) -> Ns {
        self.window
    }

    /// The column names.
    pub fn columns(&self) -> &[&'static str] {
        &self.columns
    }

    /// Whether the current window has elapsed at `now`.
    pub fn due(&self, now: Ns) -> bool {
        now >= self.next_end
    }

    /// End of the window currently being accumulated.
    pub fn next_end(&self) -> Ns {
        self.next_end
    }

    /// Record one row for the window ending at [`TimeSeries::next_end`]
    /// and advance past `now` (skipping empty windows in one step after
    /// an idle stretch).
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub fn record(&mut self, now: Ns, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        if self.rows.len() == self.max_rows {
            self.rows.remove(0);
        }
        self.rows.push((self.next_end, values));
        while self.next_end <= now {
            self.next_end += self.window;
        }
    }

    /// The recorded rows, oldest first: `(window end, values)`.
    pub fn rows(&self) -> &[(Ns, Vec<f64>)] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_mean_and_extremes() {
        let mut h = Histogram::new();
        h.record(Ns::from_nanos(100));
        h.record(Ns::from_nanos(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Ns::from_nanos(200));
        assert_eq!(h.min(), Some(Ns::from_nanos(100)));
        assert_eq!(h.max(), Some(Ns::from_nanos(300)));
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Ns::from_nanos(i * 10));
        }
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q99);
        assert!(q99 <= h.max().unwrap());
    }

    #[test]
    fn histogram_empty_quantile() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_consistent() {
        // Every bucket's upper bound maps back into that bucket, and the
        // mapping is monotone over a wide sample of values.
        for b in 0..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_upper(b)), b, "bucket {b}");
            assert!(bucket_upper(b) < bucket_upper(b + 1));
        }
        let mut last = 0;
        for e in 0..64u32 {
            for n in [1u64 << e, (1u64 << e) + (1u64 << e) / 3] {
                let b = bucket_of(n);
                assert!(b >= last, "bucket_of not monotone at {n}");
                last = b;
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    /// Regression test for the coarse log-bucket quantile, which rounded
    /// every quantile up to a power of two (overstating p50 by up to 2×).
    /// The log-linear histogram must track exact sample percentiles to
    /// within one sub-bucket (1/16 relative error).
    #[test]
    fn quantile_matches_exact_percentiles_within_one_sub_bucket() {
        let mut rng = crate::rng::Rng::seed_from(0xDECADE);
        // A latency-shaped mixture: a tight mode near 180 ns, a slower
        // mode near 4 µs, and a rare 50 ms tail.
        let mut samples: Vec<u64> = Vec::new();
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            let r = rng.below(1000);
            let v = if r < 850 {
                150 + rng.below(80)
            } else if r < 995 {
                3_500 + rng.below(1_000)
            } else {
                50_000_000 + rng.below(1_000_000)
            };
            samples.push(v);
            h.record(Ns::from_nanos(v));
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((samples.len() as f64 * q).ceil() as usize).max(1) - 1;
            let exact = samples[rank];
            let approx = h.quantile(q).unwrap().as_nanos();
            let eb = bucket_of(exact);
            let ab = bucket_of(approx);
            assert!(
                ab.abs_diff(eb) <= 1,
                "q={q}: exact {exact} (bucket {eb}) vs approx {approx} (bucket {ab})"
            );
        }
    }

    #[test]
    fn percentiles_summary_ordered() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Ns::from_nanos(i));
        }
        let [p50, p95, p99, p999] = h.percentiles().unwrap();
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
        // Within one sub-bucket of the exact values.
        assert!(p50.as_nanos().abs_diff(500) <= 500 / 16 + 1, "p50 {p50}");
        assert!(p99.as_nanos().abs_diff(990) <= 990 / 16 + 1, "p99 {p99}");
        assert_eq!(Histogram::new().percentiles(), None);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Ns::from_nanos(10));
        b.record(Ns::from_nanos(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(Ns::from_nanos(10)));
        assert_eq!(a.max(), Some(Ns::from_nanos(1000)));
    }

    #[test]
    fn histogram_zero_duration() {
        let mut h = Histogram::new();
        h.record(Ns::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Ns::ZERO);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.record(0.0);
        for _ in 0..64 {
            e.record(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn time_series_windows_and_bound() {
        let mut ts = TimeSeries::new(Ns::from_micros(10), &["a", "b"], 3);
        assert!(!ts.due(Ns::from_micros(9)));
        assert!(ts.due(Ns::from_micros(10)));
        ts.record(Ns::from_micros(10), vec![1.0, 2.0]);
        assert_eq!(ts.next_end(), Ns::from_micros(20));
        // An idle stretch skips whole windows in one step.
        ts.record(Ns::from_micros(55), vec![3.0, 4.0]);
        assert_eq!(ts.next_end(), Ns::from_micros(60));
        ts.record(Ns::from_micros(60), vec![5.0, 6.0]);
        ts.record(Ns::from_micros(70), vec![7.0, 8.0]);
        // Bounded at 3 rows: the oldest was dropped.
        assert_eq!(ts.rows().len(), 3);
        assert_eq!(ts.rows()[0].0, Ns::from_micros(20));
        assert_eq!(ts.rows()[2].1, vec![7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn time_series_rejects_bad_row() {
        let mut ts = TimeSeries::new(Ns::from_micros(1), &["a"], 4);
        ts.record(Ns::from_micros(1), vec![1.0, 2.0]);
    }
}
