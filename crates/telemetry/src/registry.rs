//! The metrics registry: named counters and histograms.
//!
//! Naming convention: dot-separated lowercase paths, subsystem first —
//! `priv.fast_words`, `checkpoint.contrib_pages`, `engine.misspecs`,
//! `recovery.iters`. Handles are cheap `Arc` clones over atomics;
//! registration takes a lock, updates do not. Subsystems register their
//! handles once (at construction) and increment lock-free thereafter —
//! typically at drain points (end of a period or span), never per byte.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const HIST_BUCKETS: usize = 64;

/// A power-of-two-bucketed histogram of `u64` samples (e.g. span
/// nanoseconds): bucket `i` counts samples with `bit_length == i`, i.e.
/// values in `[2^(i-1), 2^i)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; HIST_BUCKETS]>,
    count: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: Arc::new(AtomicU64::new(0)),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize; // 0 for v == 0
        self.buckets[b.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound (exclusive) of the highest non-empty bucket — a cheap
    /// max estimate.
    pub fn max_bound(&self) -> u64 {
        for i in (0..HIST_BUCKETS).rev() {
            if self.buckets[i].load(Ordering::Relaxed) > 0 {
                return 1u64.checked_shl(i as u32).unwrap_or(u64::MAX);
            }
        }
        0
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

/// A point-in-time view of one metric, for export.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Histogram summary.
    Histogram {
        /// Sample count.
        count: u64,
        /// Sample sum.
        sum: u64,
        /// Exclusive upper bound of the highest non-empty bucket.
        max_bound: u64,
    },
}

/// The registry: name → metric. Cloning shares the underlying map.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` is already a {}", kind_name(other)),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` is already a {}", kind_name(other)),
        }
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        max_bound: h.max_bound(),
                    },
                };
                (name.clone(), snap)
            })
            .collect()
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("priv.fast_words");
        let b = r.counter("priv.fast_words");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(
            r.snapshot(),
            vec![("priv.fast_words".to_string(), MetricSnapshot::Counter(7))]
        );
    }

    #[test]
    fn histogram_records_count_sum_and_bound() {
        let r = MetricsRegistry::new();
        let h = r.histogram("merge.ns");
        h.record(0);
        h.record(5);
        h.record(1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1005);
        assert!(h.max_bound() >= 1000);
    }

    #[test]
    #[should_panic(expected = "already a counter")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x");
        let _ = r.histogram("x");
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = MetricsRegistry::new();
        let _ = r.counter("b.two");
        let _ = r.counter("a.one");
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
    }
}
