#![warn(missing_docs)]
//! # criterion (offline shim)
//!
//! A small, dependency-free subset of the `criterion` benchmarking API,
//! used because this repository's build environment has no crates.io
//! access (the workspace `criterion` dependency resolves to this path
//! crate — see the root `Cargo.toml`).
//!
//! Supported surface: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`] (with `sample_size`, `warm_up_time`
//! and `finish`),
//! [`Bencher::iter`], [`Bencher::iter_batched`], [`BatchSize`],
//! [`black_box`], [`criterion_group!`] and [`criterion_main!`].
//!
//! Measurement model: each benchmark is warmed up for ~100 ms, then
//! timed over `sample_size` samples whose per-sample iteration count is
//! calibrated from the warm-up. The reported triple is the
//! `[min median max]` of per-iteration sample means, formatted like real
//! criterion's `time: [..]` line so existing tooling that greps the
//! output keeps working.
//!
//! Filtering: as in criterion, the first harness argument that is not a
//! flag (`cargo bench -- <filter>`) selects the benchmarks whose id —
//! `name`, or `group/name` inside a group — contains it as a substring;
//! the others are skipped without running.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How batched inputs are grouped between setup and timing; accepted for
/// API compatibility. The shim times per-batch regardless, excluding
/// setup from the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: large batches.
    SmallInput,
    /// Large inputs: small batches.
    LargeInput,
    /// One setup per timed invocation.
    PerIteration,
}

/// Collects timing samples for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    warmup: Duration,
    samples: usize,
    /// Mean nanoseconds per iteration, one entry per sample.
    sample_means_ns: Vec<f64>,
}

impl Bencher {
    fn new(warmup: Duration, samples: usize) -> Bencher {
        Bencher {
            warmup,
            samples,
            sample_means_ns: Vec::new(),
        }
    }

    /// Time `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and calibrate the per-sample iteration count.
        let w0 = Instant::now();
        let mut warm_iters: u64 = 0;
        while w0.elapsed() < self.warmup {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = w0.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;
        // Aim for ~2 ms per sample so cheap routines amortize timer cost.
        let iters_per_sample = ((2_000_000.0 / per_iter.max(0.5)) as u64).clamp(1, 10_000_000);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let ns = t0.elapsed().as_nanos() as f64;
            self.sample_means_ns.push(ns / iters_per_sample as f64);
        }
    }

    /// Time `routine` on inputs produced by `setup`, excluding `setup`
    /// from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate from a short setup+routine warm-up.
        let w0 = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut routine_ns: u64 = 0;
        while w0.elapsed() < self.warmup {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            routine_ns += t.elapsed().as_nanos() as u64;
            warm_iters += 1;
        }
        let per_iter = routine_ns as f64 / warm_iters.max(1) as f64;
        let batch = ((500_000.0 / per_iter.max(0.5)) as usize).clamp(1, 4096);
        for _ in 0..self.samples {
            let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let ns = t0.elapsed().as_nanos() as f64;
            self.sample_means_ns.push(ns / batch as f64);
        }
    }
}

fn report(name: &str, mut means: Vec<f64>) {
    if means.is_empty() {
        println!("{name:<50} (no samples)");
        return;
    }
    means.sort_by(|a, b| a.total_cmp(b));
    let fmt = |ns: f64| -> String {
        if ns < 1_000.0 {
            format!("{ns:.2} ns")
        } else if ns < 1_000_000.0 {
            format!("{:.2} µs", ns / 1_000.0)
        } else if ns < 1_000_000_000.0 {
            format!("{:.2} ms", ns / 1_000_000.0)
        } else {
            format!("{:.2} s", ns / 1_000_000_000.0)
        }
    };
    let lo = means[0];
    let mid = means[means.len() / 2];
    let hi = means[means.len() - 1];
    println!("{name:<50} time:   [{} {} {}]", fmt(lo), fmt(mid), fmt(hi));
}

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    warmup: Duration,
    sample_size: usize,
    /// Substring a benchmark id must contain to run (`None` runs all).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            warmup: Duration::from_millis(100),
            sample_size: 30,
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Whether the benchmark `id` passes the name filter.
    fn selected(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if !self.selected(name) {
            return self;
        }
        let mut b = Bencher::new(self.warmup, self.sample_size);
        f(&mut b);
        report(name, b.sample_means_ns);
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: None,
            warmup: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and optional settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    warmup: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    /// Override the number of timing samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Override the warm-up time of each benchmark in this group.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warmup = Some(d);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let id = format!("{}/{}", self.name, name);
        if !self.parent.selected(&id) {
            return self;
        }
        let samples = self.sample_size.unwrap_or(self.parent.sample_size);
        let mut b = Bencher::new(self.warmup.unwrap_or(self.parent.warmup), samples);
        f(&mut b);
        report(&id, b.sample_means_ns);
        self
    }

    /// Finish the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// Bundle benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Generate `main` running the given groups (the first non-flag harness
/// argument filters benchmarks by id; other arguments are ignored).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_samples() {
        let mut b = Bencher::new(Duration::from_millis(1), 5);
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            n
        });
        assert_eq!(b.sample_means_ns.len(), 5);
        assert!(b.sample_means_ns.iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher::new(Duration::from_millis(1), 3);
        b.iter_batched(
            || vec![1u8; 64],
            |v| v.iter().map(|&x| x as u64).sum::<u64>(),
            BatchSize::SmallInput,
        );
        assert_eq!(b.sample_means_ns.len(), 3);
    }

    #[test]
    fn group_and_driver_run() {
        let mut c = Criterion {
            warmup: Duration::from_millis(1),
            sample_size: 2,
            filter: None,
        };
        c.bench_function("t", |b| b.iter(|| black_box(1 + 1)));
        let mut g = c.benchmark_group("g");
        g.sample_size(2);
        g.bench_function("u", |b| b.iter(|| black_box(2 + 2)));
        g.finish();
    }

    #[test]
    fn name_filter_runs_only_matching_benchmarks() {
        let mut c = Criterion {
            warmup: Duration::from_millis(1),
            sample_size: 1,
            filter: Some("overhead_64B".to_string()),
        };
        let mut ran = Vec::new();
        c.bench_function("overhead", |_| ran.push("overhead"));
        let mut g = c.benchmark_group("telemetry_overhead_64B");
        g.bench_function("disabled", |_| ran.push("g/disabled"));
        g.bench_function("compiled_out", |_| ran.push("g/compiled_out"));
        g.finish();
        let mut g = c.benchmark_group("cow_fork");
        g.bench_function("overhead_64B_lookalike", |_| ran.push("cow_fork/lookalike"));
        g.bench_function("dirty_1", |_| ran.push("cow_fork/dirty_1"));
        g.finish();
        assert_eq!(
            ran,
            ["g/disabled", "g/compiled_out", "cow_fork/lookalike"],
            "the filter is a substring match on `group/name`"
        );
    }
}
