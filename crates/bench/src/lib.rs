#![warn(missing_docs)]
//! # privateer-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§6). Binaries:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig6` | whole-program speedup vs workers, per program + geomean |
//! | `fig7` | Privateer vs DOALL-only at max workers |
//! | `fig8` | overhead breakdown vs workers |
//! | `fig9` | speedup degradation under injected misspeculation |
//! | `table1` | applicability matrix vs prior schemes |
//! | `table3` | dynamic statistics per program |
//!
//! ## Timing model
//!
//! The paper reports wall-clock speedups on a 24-core Xeon. This
//! reproduction executes on a simulated substrate whose host may have any
//! number of cores, so speedups are computed from the engine's
//! *simulated-cycle* model (`privateer_runtime::model`): deterministic,
//! host-independent, and preserving the paper's shape conclusions (who
//! wins, by roughly what factor, where the overheads sit). Wall-clock
//! numbers are also collected and printed for reference.

use privateer::baseline::{doall_only, DoallOnly};
use privateer::pipeline::{privatize, LoopReport, PipelineConfig};
use privateer_ir::Module;
use privateer_runtime::{EngineConfig, EngineStats, MainRuntime, UncheckedDoallRuntime};
use privateer_telemetry::Telemetry;
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks};
use privateer_workloads::{alvinn, blackscholes, dijkstra, md5, swaptions};
use std::time::{Duration, Instant};

/// Write `args` to stdout: the body of [`out!`] and [`outln!`], which the
/// binaries use in place of `print!` and `println!`.
///
/// A reader that closes the pipe early (`fig6 | head -1`) leaves the
/// program nothing to do, so it exits quietly with status 0 instead of
/// panicking with "failed printing to stdout".
///
/// # Panics
///
/// On any other stdout write error, as `print!` does.
pub fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` that exits quietly once stdout is a closed pipe (see
/// [`write_stdout`]).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` that exits quietly once stdout is a closed pipe (see
/// [`write_stdout`]).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Input scale for harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small (fast runs; profiling-sized).
    Train,
    /// The evaluation scale used by the figure binaries.
    Bench,
}

/// One evaluated program.
pub struct Workload {
    /// Program name as in the paper.
    pub name: &'static str,
    builder: Box<dyn Fn(Scale) -> Module>,
    reference: Box<dyn Fn(Scale) -> Vec<u8>>,
}

impl Workload {
    /// Build the IR module at `scale`.
    pub fn build(&self, scale: Scale) -> Module {
        (self.builder)(scale)
    }

    /// The expected output at `scale`.
    pub fn reference(&self, scale: Scale) -> Vec<u8> {
        (self.reference)(scale)
    }
}

/// The five programs of Table 3.
pub fn workloads() -> Vec<Workload> {
    fn dj(s: Scale) -> dijkstra::Params {
        match s {
            Scale::Train => dijkstra::Params::train(),
            Scale::Bench => dijkstra::Params { n: 96, seed: 12 },
        }
    }
    fn bs(s: Scale) -> blackscholes::Params {
        match s {
            Scale::Train => blackscholes::Params::train(),
            Scale::Bench => blackscholes::Params {
                options: 512,
                runs: 32,
                seed: 22,
            },
        }
    }
    fn sw(s: Scale) -> swaptions::Params {
        match s {
            Scale::Train => swaptions::Params::train(),
            Scale::Bench => swaptions::Params {
                swaptions: 96,
                trials: 16,
                steps: 24,
                seed: 52,
            },
        }
    }
    fn al(s: Scale) -> alvinn::Params {
        match s {
            Scale::Train => alvinn::Params::train(),
            Scale::Bench => alvinn::Params {
                inputs: 16,
                hidden: 10,
                outputs: 4,
                examples: 160,
                epochs: 10,
                seed: 32,
            },
        }
    }
    fn m5(s: Scale) -> md5::Params {
        match s {
            Scale::Train => md5::Params::train(),
            Scale::Bench => md5::Params {
                messages: 160,
                msg_len: 120,
                seed: 42,
            },
        }
    }
    vec![
        Workload {
            name: "052.alvinn",
            builder: Box::new(|s| alvinn::build(&al(s))),
            reference: Box::new(|s| alvinn::reference_output(&al(s))),
        },
        Workload {
            name: "dijkstra",
            builder: Box::new(|s| dijkstra::build(&dj(s))),
            reference: Box::new(|s| dijkstra::reference_output(&dj(s))),
        },
        Workload {
            name: "blackscholes",
            builder: Box::new(|s| blackscholes::build(&bs(s))),
            reference: Box::new(|s| blackscholes::reference_output(&bs(s))),
        },
        Workload {
            name: "swaptions",
            builder: Box::new(|s| swaptions::build(&sw(s))),
            reference: Box::new(|s| swaptions::reference_output(&sw(s))),
        },
        Workload {
            name: "enc-md5",
            builder: Box::new(|s| md5::build(&m5(s))),
            reference: Box::new(|s| md5::reference_output(&m5(s))),
        },
    ]
}

/// Result of the best-sequential baseline run (the original module).
#[derive(Debug, Clone)]
pub struct SeqRun {
    /// Instructions executed (the simulated-time denominator).
    pub insts: u64,
    /// Wall time.
    pub wall: Duration,
    /// Program output.
    pub out: Vec<u8>,
}

/// Run the unmodified sequential program.
pub fn run_sequential(module: &Module) -> SeqRun {
    let image = load_module(module);
    let mut interp = Interp::new(module, &image, NopHooks, BasicRuntime::strict());
    let t0 = Instant::now();
    interp.run_main().expect("sequential run");
    SeqRun {
        insts: interp.stats.insts,
        wall: t0.elapsed(),
        out: interp.rt.take_output(),
    }
}

/// Result of a speculative parallel run.
#[derive(Debug, Clone)]
pub struct PrivRun {
    /// Main-thread instructions (sequential portions).
    pub main_insts: u64,
    /// Engine statistics (including the simulated-cycle model).
    pub stats: EngineStats,
    /// Wall time.
    pub wall: Duration,
    /// Program output.
    pub out: Vec<u8>,
    /// Per-loop transformation reports.
    pub reports: Vec<LoopReport>,
}

impl PrivRun {
    /// Simulated whole-program parallel time.
    pub fn sim_time(&self) -> u64 {
        self.main_insts + self.stats.sim.total
    }
}

/// Privatize `module` (full pipeline) and run it under the speculative
/// engine.
///
/// # Panics
///
/// Panics if the pipeline or the run fails — harness programs want loud
/// failures.
pub fn run_privateer(module: &Module, workers: usize, inject_rate: f64) -> PrivRun {
    run_privateer_with_telemetry(module, workers, inject_rate, Telemetry::disabled())
}

/// [`run_privateer`] with an explicit telemetry handle — pass
/// [`Telemetry::enabled`] (and keep a clone) to capture a trace of the
/// run, as the `privtrace` binary does.
///
/// # Panics
///
/// Panics if the pipeline or the run fails.
pub fn run_privateer_with_telemetry(
    module: &Module,
    workers: usize,
    inject_rate: f64,
    tel: Telemetry,
) -> PrivRun {
    let result = privatize(module, &PipelineConfig::default()).expect("pipeline");
    let image = load_module(&result.module);
    let cfg = EngineConfig {
        workers,
        checkpoint_period: 16,
        inject_rate,
        inject_seed: 0xf19,
    };
    let mut interp = Interp::new(
        &result.module,
        &image,
        NopHooks,
        MainRuntime::with_telemetry(&image, cfg, tel),
    );
    let t0 = Instant::now();
    interp.run_main().expect("parallel run");
    let wall = t0.elapsed();
    let out = interp.rt.take_output();
    PrivRun {
        main_insts: interp.stats.insts,
        stats: interp.rt.stats,
        wall,
        out,
        reports: result.reports,
    }
}

/// Result of a DOALL-only (non-speculative) run.
#[derive(Debug, Clone)]
pub struct DoallRun {
    /// Main-thread instructions.
    pub main_insts: u64,
    /// Simulated parallel-region cycles.
    pub sim_total: u64,
    /// Loops the static analysis managed to parallelize.
    pub parallelized: usize,
    /// Program output.
    pub out: Vec<u8>,
}

impl DoallRun {
    /// Simulated whole-program time.
    pub fn sim_time(&self) -> u64 {
        self.main_insts + self.sim_total
    }
}

/// Transform with the static-only baseline and run unchecked.
///
/// # Panics
///
/// Panics if the run fails.
pub fn run_doall_only(module: &Module, workers: usize) -> DoallRun {
    let DoallOnly {
        module: tm,
        parallelized,
        ..
    } = doall_only(module);
    let image = load_module(&tm);
    let mut interp = Interp::new(
        &tm,
        &image,
        NopHooks,
        UncheckedDoallRuntime::new(&image, workers),
    );
    interp.run_main().expect("DOALL-only run");
    DoallRun {
        main_insts: interp.stats.insts,
        sim_total: interp.rt.stats.sim.total,
        parallelized: parallelized.len(),
        out: interp.rt.take_output(),
    }
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    let ln_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (ln_sum / values.len().max(1) as f64).exp()
}

/// Standard worker counts swept by the figures (the paper's x-axis).
pub const WORKER_COUNTS: [usize; 7] = [1, 2, 4, 8, 12, 16, 24];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn harness_runs_one_workload_end_to_end() {
        let w = &workloads()[1]; // dijkstra
        let m = w.build(Scale::Train);
        let seq = run_sequential(&m);
        assert_eq!(seq.out, w.reference(Scale::Train));
        let par = run_privateer(&m, 4, 0.0);
        assert_eq!(par.out, seq.out);
        assert!(par.sim_time() > 0);
        // With 4 workers the hot loop should show simulated speedup.
        let speedup = seq.insts as f64 / par.sim_time() as f64;
        assert!(speedup > 1.2, "simulated speedup {speedup}");
    }
}
