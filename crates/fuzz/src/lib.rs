#![warn(missing_docs)]
//! # privateer-fuzz
//!
//! Differential workload fuzzing for the Privateer speculative engine.
//!
//! The engine's contract (paper §4.2–§5) is *observational equivalence*:
//! a speculatively parallelized loop must be byte-identical to its
//! sequential execution — output, committed memory, and the verdict on
//! genuine program errors — at any worker count, any checkpoint period,
//! with either phase-2 merge, and under any interleaving. This crate turns
//! that contract into a generator-driven oracle:
//!
//! * [`gen`] — a seeded generator of random transformed IR loops
//!   (privatization writes and reads, branchy conditional writes,
//!   reductions, deferred I/O, pointer-chasing short-lived allocations,
//!   and deliberate misspeculation: cross-iteration reads, failing
//!   predictions, wrong-heap pointers, lifetime leaks, genuine faults),
//!   with a text repro format for replay;
//! * [`oracle`] — runs one case through the sequential baseline and the
//!   speculative engine at every configured worker count, each with the
//!   fast merge and with the
//!   [`ReferenceCheckpointMerge`](privateer_runtime::checkpoint::ReferenceCheckpointMerge)
//!   differential mode, and seeded
//!   [`VirtualScheduler`](privateer_runtime::VirtualScheduler)
//!   interleavings, asserting byte-identical output, identical
//!   trap decisions, and conserved `EngineStats`/telemetry invariants —
//!   plus automatic test-case shrinking on failure;
//! * [`trace`] — the shared trace strategies used by the
//!   runtime's checkpoint proptests and reusable from fuzz harnesses;
//! * [`rng`] — the deterministic `splitmix64` generator everything is
//!   seeded with (same seed ⇒ same cases ⇒ same verdicts).
//!
//! The `privfuzz` CLI in `privateer-bench` drives [`oracle::run_seeded`]
//! from the command line; `docs/testing.md` documents how to run and
//! replay repro files.

pub mod gen;
pub mod oracle;
pub mod rng;
pub mod trace;

pub use gen::{CaseSpec, Stmt};
pub use oracle::{run_seeded, shrink, CaseFailure, OracleConfig, RunSummary};
pub use rng::Rng;
