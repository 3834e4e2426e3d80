#![warn(missing_docs)]
//! # privateer-telemetry
//!
//! Low-overhead observability for the Privateer speculative runtime: a
//! shared monotonic [`clock`], per-worker fixed-capacity event rings
//! ([`ring::EventRing`]), a [`registry::MetricsRegistry`] of named
//! counters and histograms, and exporters ([`export`]) that render a
//! run as JSON lines or as Chrome `trace_event` JSON loadable in
//! `chrome://tracing`/Perfetto.
//!
//! ## Handles and overhead
//!
//! The [`Telemetry`] handle has two modes:
//!
//! * **Disabled** ([`Telemetry::disabled`]) — the default. Event
//!   recording compiles to a single predictable branch
//!   ([`WorkerTelemetry::enabled`] is `#[inline]` and `false`); nothing
//!   is allocated, timed or stored. The `telemetry_disabled_overhead`
//!   criterion bench in `privateer-bench` enforces the contract that a
//!   hot `private_write` loop pays < 3% versus the same loop with the
//!   instrumentation compiled out.
//! * **Enabled** ([`Telemetry::enabled`]) — each worker records spans
//!   into its own ring (no locks, no cross-thread traffic on the hot
//!   path); rings are absorbed into the shared sink when the worker
//!   finishes.
//!
//! The metrics registry is *always* live — registry updates happen at
//! drain points (end of a period or span), never per byte, so its cost
//! is a handful of relaxed atomic adds per checkpoint period.
//!
//! ## Event ordering
//!
//! [`Telemetry::stamp`] wraps an event with a timestamp from the shared
//! clock and a strictly increasing sequence number, giving consumers a
//! total order to assert on ([`order::assert_happens_before`]).

pub mod clock;
pub mod event;
pub mod export;
pub mod json;
pub mod order;
pub mod registry;
pub mod ring;

pub use event::{Phase, SpanEvent, Stamped, ENGINE_TRACK};
pub use export::{chrome_trace, json_lines, TraceData};
pub use order::{assert_happens_before, assert_stamps_ordered};
pub use registry::{Counter, Histogram, MetricSnapshot, MetricsRegistry};
pub use ring::EventRing;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-worker ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct TraceShared {
    sink: Mutex<Vec<SpanEvent>>,
    ring_capacity: usize,
    dropped: AtomicU64,
}

/// The session-wide telemetry handle: clock + sequence source, metrics
/// registry, and (when enabled) the trace sink worker rings drain into.
/// Cloning shares all state.
#[derive(Debug, Clone)]
pub struct Telemetry {
    seq: Arc<AtomicU64>,
    registry: MetricsRegistry,
    trace: Option<Arc<TraceShared>>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A handle with tracing off. Stamping and the metrics registry still
    /// work; span recording is a no-op branch.
    pub fn disabled() -> Telemetry {
        Telemetry {
            seq: Arc::new(AtomicU64::new(0)),
            registry: MetricsRegistry::new(),
            trace: None,
        }
    }

    /// A handle with tracing on, using [`DEFAULT_RING_CAPACITY`] events
    /// per worker ring. Calibrates the shared clock.
    pub fn enabled() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A tracing handle with an explicit per-ring event capacity.
    pub fn with_capacity(ring_capacity: usize) -> Telemetry {
        clock::calibrate();
        Telemetry {
            seq: Arc::new(AtomicU64::new(0)),
            registry: MetricsRegistry::new(),
            trace: Some(Arc::new(TraceShared {
                sink: Mutex::new(Vec::new()),
                ring_capacity,
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether span recording is live.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The metrics registry (always live).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Wrap `event` with a clock timestamp and the next sequence number.
    #[inline]
    pub fn stamp<E>(&self, event: E) -> Stamped<E> {
        Stamped {
            ts_ns: clock::now_ns(),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            event,
        }
    }

    /// A recording handle for `track` (0 = engine, `w + 1` = worker `w`)
    /// backed by its own ring; a no-op handle when tracing is off.
    pub fn worker(&self, track: u32) -> WorkerTelemetry {
        match &self.trace {
            Some(t) => WorkerTelemetry {
                track,
                ring: EventRing::new(t.ring_capacity),
                active: t.ring_capacity > 0,
            },
            None => WorkerTelemetry::disabled(),
        }
    }

    /// Record one event directly into the sink (engine-side, off the hot
    /// path — takes a lock).
    pub fn record(&self, ev: SpanEvent) {
        if let Some(t) = &self.trace {
            t.sink.lock().unwrap().push(ev);
        }
    }

    /// The start of an engine-side span: the current time when tracing,
    /// `None` (and no clock read) otherwise.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.is_tracing().then(Instant::now)
    }

    /// Record an engine-track span that started at `t0` and ends now; a
    /// no-op for `None` or when tracing is off.
    pub fn span_since(&self, phase: Phase, t0: Option<Instant>, a: i64, b: i64) {
        let (true, Some(t0)) = (self.is_tracing(), t0) else {
            return;
        };
        self.record(SpanEvent {
            ts_ns: clock::instant_ns(t0),
            dur_ns: t0.elapsed().as_nanos() as u64,
            phase,
            track: ENGINE_TRACK,
            a,
            b,
        });
    }

    /// Absorb a finished worker's telemetry (its ring) into the sink.
    pub fn absorb(&self, worker: WorkerTelemetry) {
        let Some(t) = &self.trace else { return };
        let ring = worker.ring;
        t.dropped.fetch_add(ring.overwritten(), Ordering::Relaxed);
        t.sink.lock().unwrap().extend(ring.into_events());
    }

    /// Snapshot the trace collected so far: all sink events sorted by
    /// timestamp, plus the current metrics. Non-destructive.
    pub fn trace(&self) -> TraceData {
        let (mut events, dropped) = match &self.trace {
            Some(t) => (
                t.sink.lock().unwrap().clone(),
                t.dropped.load(Ordering::Relaxed),
            ),
            None => (Vec::new(), 0),
        };
        events.sort_by_key(|e| (e.ts_ns, e.track));
        TraceData {
            events,
            metrics: self.registry.snapshot(),
            dropped,
        }
    }
}

/// A per-thread recording handle: owns its ring, records without locks.
/// When created from a disabled [`Telemetry`] every method is an
/// `#[inline]` early-return on one boolean.
#[derive(Debug)]
pub struct WorkerTelemetry {
    track: u32,
    ring: EventRing,
    active: bool,
}

impl WorkerTelemetry {
    /// A permanently inactive handle.
    pub fn disabled() -> WorkerTelemetry {
        WorkerTelemetry {
            track: 0,
            ring: EventRing::new(0),
            active: false,
        }
    }

    /// Whether this handle records anything. Callers can skip timestamp
    /// capture entirely when this is `false`.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.active
    }

    /// The start of a span: the current time when this handle records,
    /// `None` (and no clock read) otherwise.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.active.then(Instant::now)
    }

    /// The track this handle records onto.
    pub fn track(&self) -> u32 {
        self.track
    }

    /// Record a span with explicit epoch-relative timestamps.
    #[inline]
    pub fn span(&mut self, phase: Phase, ts_ns: u64, dur_ns: u64, a: i64, b: i64) {
        if !self.active {
            return;
        }
        self.record_span(phase, ts_ns, dur_ns, a, b);
    }

    /// Record a span that started at `t0` (from [`Self::start`]) and ends
    /// now; a no-op for `None`.
    #[inline]
    pub fn span_since(&mut self, phase: Phase, t0: Option<Instant>, a: i64, b: i64) {
        let (true, Some(t0)) = (self.active, t0) else {
            return;
        };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.record_span(phase, clock::instant_ns(t0), dur_ns, a, b);
    }

    /// Record an instant event (duration 0) at the current time.
    #[inline]
    pub fn instant(&mut self, phase: Phase, a: i64, b: i64) {
        if !self.active {
            return;
        }
        self.record_span(phase, clock::now_ns(), 0, a, b);
    }

    // Kept out of line so the `#[inline]` wrappers reduce to a
    // test-and-branch at their (hot, disabled-by-default) call sites.
    #[cold]
    #[inline(never)]
    fn record_span(&mut self, phase: Phase, ts_ns: u64, dur_ns: u64, a: i64, b: i64) {
        self.ring.push(SpanEvent {
            ts_ns,
            dur_ns,
            phase,
            track: self.track,
            a,
            b,
        });
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_tracing());
        let mut w = tel.worker(1);
        assert!(!w.enabled());
        w.span(Phase::Iteration, 0, 10, 1, 0);
        w.instant(Phase::Misspec, 3, 0);
        assert!(w.is_empty());
        tel.absorb(w);
        assert!(tel.trace().events.is_empty());
    }

    #[test]
    fn enabled_collects_across_tracks() {
        let tel = Telemetry::with_capacity(16);
        let mut w0 = tel.worker(1);
        let mut w1 = tel.worker(2);
        w0.span(Phase::Iteration, 5, 10, 0, 0);
        w1.span(Phase::Iteration, 3, 10, 1, 0);
        tel.record(SpanEvent {
            ts_ns: 7,
            dur_ns: 2,
            phase: Phase::Merge,
            track: 0,
            a: 0,
            b: 2,
        });
        tel.absorb(w0);
        tel.absorb(w1);
        let trace = tel.trace();
        assert_eq!(trace.events.len(), 3);
        // Sorted by timestamp regardless of arrival order.
        let ts: Vec<u64> = trace.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![3, 5, 7]);
        assert_eq!(trace.tracks(), vec![0, 1, 2]);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn stamps_are_ordered() {
        let tel = Telemetry::disabled();
        let a = tel.stamp('a');
        let b = tel.stamp('b');
        assert!(a.seq < b.seq);
        assert!(a.ts_ns <= b.ts_ns);
        order::assert_stamps_ordered(&[a, b]);
    }

    #[test]
    fn ring_overflow_is_counted_as_dropped() {
        let tel = Telemetry::with_capacity(2);
        let mut w = tel.worker(1);
        for i in 0..5 {
            w.span(Phase::Iteration, i, 1, i as i64, 0);
        }
        tel.absorb(w);
        let trace = tel.trace();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 3);
    }
}
