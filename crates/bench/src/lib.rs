//! # fedco-bench
//!
//! Benchmark harness of the `fedco` reproduction: [`figures`], one function
//! per table and figure of the paper's evaluation, each printed by the
//! binary of the same name (see `EXPERIMENTS.md` at the workspace root for
//! the index) and asserted on by `tests/paper_claims.rs`; plus [`micro`]
//! std-`Instant` micro-benchmarks of the scheduler and the neural substrate.
//!
//! [`compare`] is the perf-regression gate the CI script runs over the
//! recorded `BENCH_*.json` throughput trajectories (see the `bench_compare`
//! binary).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod figures;
pub mod micro;
