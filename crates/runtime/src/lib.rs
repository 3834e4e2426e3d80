#![warn(missing_docs)]
//! # privateer-runtime
//!
//! The Privateer runtime support system (§5 of the PLDI 2012 paper):
//! logical heaps, shadow-memory privacy validation, checkpoints with
//! two-phase validation, misspeculation recovery, reduction expansion and
//! the speculative DOALL worker engine.
//!
//! * [`shadow`] — the Table 2 per-byte metadata transition rules;
//! * [`heaps`] — shared logical-heap allocators and per-worker short-lived
//!   arenas;
//! * [`worker`] — the per-worker fast-phase runtime
//!   ([`worker::WorkerRuntime`]);
//! * [`checkpoint`] — checkpoint objects and the phase-2 merge;
//! * [`engine`] — [`engine::MainRuntime`], which implements
//!   `parallel_invoke` by forking copy-on-write worker address spaces,
//!   running iterations round-robin, committing checkpoints in order, and
//!   recovering sequentially after misspeculation (Figure 5);
//! * [`schedule`] — [`schedule::VirtualScheduler`], a deterministic
//!   rendezvous scheduler that turns worker interleavings into
//!   scripted, replayable data for tests and the `privfuzz` harness.

pub mod checkpoint;
pub mod engine;
pub mod heaps;
pub mod model;
pub mod schedule;
pub mod shadow;
pub mod simple;
pub mod worker;

pub use engine::{EngineConfig, EngineEvent, EngineStats, MainRuntime, SequentialPlanRuntime};
pub use heaps::SharedHeaps;
pub use model::SimCost;
pub use schedule::{SchedPoint, VirtualScheduler};
pub use simple::UncheckedDoallRuntime;
pub use worker::{WorkerRuntime, WorkerStats};
