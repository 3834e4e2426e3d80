#![warn(missing_docs)]
//! # privateer-profile
//!
//! The profilers Privateer's compiler consumes (§4.1 of the paper):
//!
//! * **pointer-to-object profiler** — an [`interval::IntervalMap`] from
//!   address ranges to context-qualified [`names::ObjectName`]s, recording
//!   which objects every load/store references;
//! * **object-lifetime profiler** — which objects are short-lived with
//!   respect to which loops (allocated and freed within one iteration);
//! * **memory flow-dependence profiler** — observed cross-iteration RAW
//!   dependences per loop, with the byte addresses they flowed through;
//! * **trip-count / branch-bias profiler** — for control speculation;
//! * **execution-time profiler** — instruction-weight per loop, finding
//!   hot loops;
//! * **value-prediction profiler** — [`boundary::BoundaryValueProfiler`]
//!   samples chosen locations at iteration boundaries and reports stable
//!   values (dijkstra's "the work list is empty at iteration start").
//!
//! All but the boundary profiler run together in one instrumented
//! execution via [`suite::profile_module`]. That run is a set of
//! specialised profilers over shadow state: flow dependences come from
//! shadow pages of per-byte last-writer cells, each a packed
//! `(stamp, site)`, compared against the stamps of the mirrored loop
//! stack, loop weights from a per-block instruction clock, and per-site
//! results from dense tables. The
//! [`suite`] module documentation gives the layout and the rules.

pub mod boundary;
pub mod interval;
pub mod names;
pub mod suite;

pub use boundary::{BoundaryValueProfiler, PredictedValue};
pub use interval::IntervalMap;
pub use names::{CallSite, ObjectName};
pub use suite::{profile_module, BranchStats, DepInfo, LoopRef, LoopStats, Profile, ProfileSuite};
