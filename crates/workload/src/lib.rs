#![warn(missing_docs)]
//! # envy-workload — the paper's evaluation workloads
//!
//! * [`synthetic`] — page-granularity write streams with the bimodal
//!   "x/y" localities of reference used by the cleaning studies
//!   (Figures 6, 8, 9, 10), plus the harness that measures cleaning cost
//!   in steady state, and the churn that brings any store there
//!   ([`churn_to_steady_state`]).
//! * [`tpca`] — the TPC-A storage workload of §5.2: branch/teller/account
//!   records (1 : 10 : 100 000), three order-32 B-Tree indexes, uniform
//!   account selection, exponential arrivals. Provided in two forms: a
//!   *functional* driver that maintains real records and indexes through
//!   the [`envy_core::Memory`] interface, and an *analytic* driver that
//!   generates the identical address trace arithmetically for
//!   full-scale (2 GB) timing runs.
//! * [`ycsb`] — the five core YCSB key-value serving mixes (A–E) with
//!   zipfian and latest key popularity, generated as deterministic
//!   per-client operation streams for the `envy-kv` serving benchmarks.

pub mod synthetic;
pub mod tpca;
pub mod ycsb;

pub use synthetic::{churn_to_steady_state, CleaningOutcome, CleaningStudy};
pub use tpca::{
    run_timed, AnalyticTpca, FunctionalTpca, RunResult, TpcaLayout, TpcaScale, Transaction,
};
pub use ycsb::{YcsbConfig, YcsbMix, YcsbOp, YcsbStream};
