//! Typed trace events: compact fixed-size span records plus the
//! stamped-event wrapper used for richer, low-rate event logs.

/// The phase a span (or instant) belongs to. Phases map one-to-one onto
/// the lanes of the paper's Figure 5 timeline plus the validation
/// primitives underneath them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A whole `parallel_invoke` region (engine track).
    Invoke,
    /// One speculative parallel span `lo..hi` (engine track).
    ParallelSpan,
    /// One speculative loop iteration (worker track; `a` = iteration).
    Iteration,
    /// A `private_read` validation batch (`a` = addr, `b` = bytes).
    PrivRead,
    /// A `private_write` validation batch (`a` = addr, `b` = bytes).
    PrivWrite,
    /// Shadow-metadata normalization after a contribution.
    Normalize,
    /// Packaging a delta contribution (`a` = period, `b` = pages).
    Package,
    /// Phase-2 checkpoint merge (`a` = period, `b` = contributions).
    Merge,
    /// Checkpoint commit (`a` = period).
    Commit,
    /// Sequential misspeculation recovery (`a` = from, `b` = through).
    Recovery,
    /// Instant: misspeculation detected (`a` = iteration).
    Misspec,
    /// Instant: parallel execution resumed (`a` = iteration).
    Resume,
}

impl Phase {
    /// Short stable name (used as the Chrome trace event name and the
    /// JSONL `phase` field).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Invoke => "invoke",
            Phase::ParallelSpan => "parallel",
            Phase::Iteration => "iteration",
            Phase::PrivRead => "priv_read",
            Phase::PrivWrite => "priv_write",
            Phase::Normalize => "normalize",
            Phase::Package => "package",
            Phase::Merge => "merge",
            Phase::Commit => "commit",
            Phase::Recovery => "recovery",
            Phase::Misspec => "misspec",
            Phase::Resume => "resume",
        }
    }

    /// Chrome trace category (one lane family per subsystem).
    pub fn category(self) -> &'static str {
        match self {
            Phase::Invoke | Phase::ParallelSpan | Phase::Misspec | Phase::Resume => "engine",
            Phase::Iteration => "exec",
            Phase::PrivRead | Phase::PrivWrite => "privacy",
            Phase::Normalize | Phase::Package | Phase::Merge | Phase::Commit => "checkpoint",
            Phase::Recovery => "recovery",
        }
    }

    /// Names of the two argument payload slots for this phase (empty
    /// string = slot unused).
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            Phase::Invoke | Phase::ParallelSpan => ("lo", "hi"),
            Phase::Iteration => ("iter", ""),
            Phase::PrivRead | Phase::PrivWrite => ("addr", "bytes"),
            Phase::Normalize => ("period", ""),
            Phase::Package => ("period", "pages"),
            Phase::Merge => ("period", "contribs"),
            Phase::Commit => ("period", ""),
            Phase::Recovery => ("from", "through"),
            Phase::Misspec | Phase::Resume => ("iter", ""),
        }
    }
}

/// Track 0 is the engine (main thread); worker `w` records on track
/// `w + 1`.
pub const ENGINE_TRACK: u32 = 0;

/// A compact span or instant record: fixed size, no allocation, suitable
/// for the per-worker ring. `dur_ns == 0` means an instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Start, nanoseconds since the telemetry epoch ([`crate::clock`]).
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// What this span is.
    pub phase: Phase,
    /// Which track (worker lane) it belongs to.
    pub track: u32,
    /// First payload slot (meaning per [`Phase::arg_names`]).
    pub a: i64,
    /// Second payload slot.
    pub b: i64,
}

/// A timestamped, sequence-numbered event. The sequence number comes from
/// the owning [`crate::Telemetry`] handle and totally orders events
/// stamped through it; the timestamp comes from the shared clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped<E> {
    /// Nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// Session-wide sequence number (strictly increasing per handle).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let phases = [
            Phase::Invoke,
            Phase::ParallelSpan,
            Phase::Iteration,
            Phase::PrivRead,
            Phase::PrivWrite,
            Phase::Normalize,
            Phase::Package,
            Phase::Merge,
            Phase::Commit,
            Phase::Recovery,
            Phase::Misspec,
            Phase::Resume,
        ];
        let mut names: Vec<&str> = phases.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), phases.len());
    }
}
