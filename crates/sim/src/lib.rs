#![warn(missing_docs)]
//! Discrete-event simulation kernel for the eNVy reproduction.
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`time::Ns`] — simulated time in nanoseconds, the unit used throughout
//!   the paper (reads ≈180 ns, programs 4 µs, erases 50 ms).
//! * [`rng::Rng`] — a small, fully deterministic PRNG (xoshiro256**), so
//!   every experiment is reproducible bit-for-bit run to run.
//! * [`dist`] — the access distributions used in the paper's evaluation:
//!   uniform, the bimodal "x/y" locality-of-reference distributions of
//!   Figures 8–10, and exponential inter-arrival times (§5.2).
//! * [`stats`] — counters, histograms, EWMA and windowed time series used
//!   for latency/throughput/cleaning-cost accounting.
//! * [`report`] — plain-text table formatting shared by the figure binaries.
//!
//! # Example
//!
//! ```
//! use envy_sim::time::Ns;
//! use envy_sim::rng::Rng;
//! use envy_sim::dist::Exponential;
//!
//! let mut rng = Rng::seed_from(42);
//! let arrivals = Exponential::with_mean(Ns::from_micros(100));
//! let gap = arrivals.sample(&mut rng);
//! assert!(gap > Ns::ZERO);
//! ```

pub mod check;
pub mod dist;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Bimodal, Exponential, Latest, UniformRange, Zipf};
pub use rng::Rng;
pub use stats::{Counter, Histogram, TimeSeries};
pub use time::Ns;
