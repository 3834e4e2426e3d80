//! `privc` — the Privateer driver.
//!
//! Reads a textual `privateer-ir` module, runs the fully automatic
//! speculative privatization pipeline, and either prints the transformed
//! module or executes it under the speculative DOALL engine.
//!
//! ```console
//! $ privc program.ir                 # transform and print the module
//! $ privc program.ir --run           # transform, run in parallel, print output
//! $ privc program.ir --run --workers 8 --inject 0.01
//! $ privc program.ir --report        # classification report only
//! $ privc program.ir --sequential    # run the original, untransformed
//! ```

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_ir::{parser, printer};
use privateer_runtime::{EngineConfig, MainRuntime};
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks};
use std::process::ExitCode;

struct Options {
    input: String,
    run: bool,
    sequential: bool,
    report: bool,
    workers: usize,
    checkpoint_period: u64,
    inject: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: privc <input.ir> [--run] [--sequential] [--report]\n\
         \x20            [--workers N] [--checkpoint K] [--inject RATE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        input: String::new(),
        run: false,
        sequential: false,
        report: false,
        workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        checkpoint_period: 16,
        inject: 0.0,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--run" => opts.run = true,
            "--sequential" => opts.sequential = true,
            "--report" => opts.report = true,
            "--workers" => {
                opts.workers = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--checkpoint" => {
                opts.checkpoint_period = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--inject" => {
                opts.inject = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other if opts.input.is_empty() && !other.starts_with('-') => {
                opts.input = other.to_string()
            }
            _ => usage(),
        }
    }
    if opts.input.is_empty() {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let text = match std::fs::read_to_string(&opts.input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("privc: cannot read {}: {e}", opts.input);
            return ExitCode::FAILURE;
        }
    };
    let module = match parser::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("privc: parse error in {}: {e}", opts.input);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = privateer_ir::verify::verify_module(&module) {
        eprintln!("privc: input does not verify: {e}");
        return ExitCode::FAILURE;
    }

    if opts.sequential {
        let image = load_module(&module);
        let mut interp = Interp::new(&module, &image, NopHooks, BasicRuntime::strict());
        if let Err(e) = interp.run_main() {
            eprintln!("privc: sequential execution trapped: {e}");
            return ExitCode::FAILURE;
        }
        print!("{}", String::from_utf8_lossy(interp.rt.output_bytes()));
        eprintln!("[privc] {} instructions", interp.stats.insts);
        return ExitCode::SUCCESS;
    }

    let result = match privatize(&module, &PipelineConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("privc: pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for r in &result.reports {
        eprintln!(
            "[privc] parallelized loop in `{}`: {} read-only, {} private, {} redux, \
             {} short-lived objects; checks: {} sep (+{} elided), {} priv-read, {} priv-write{}{}{}",
            r.function,
            r.heap_counts[0],
            r.heap_counts[1],
            r.heap_counts[2],
            r.heap_counts[3],
            r.checks.separation,
            r.checks.elided,
            r.checks.privacy_reads,
            r.checks.privacy_writes,
            if r.value_predicted { "; value prediction" } else { "" },
            if r.control_spec_blocks > 0 { "; control speculation" } else { "" },
            if r.does_io { "; deferred I/O" } else { "" },
        );
    }
    for (lp, why) in &result.rejected {
        eprintln!("[privc] rejected loop {}/{:?}: {why}", lp.0, lp.1);
    }
    if opts.report {
        return ExitCode::SUCCESS;
    }

    if opts.run {
        let image = load_module(&result.module);
        let cfg = EngineConfig {
            workers: opts.workers,
            checkpoint_period: opts.checkpoint_period,
            inject_rate: opts.inject,
            inject_seed: 0xc11,
        };
        let mut interp = Interp::new(
            &result.module,
            &image,
            NopHooks,
            MainRuntime::new(&image, cfg),
        );
        if let Err(e) = interp.run_main() {
            eprintln!("privc: parallel execution trapped: {e}");
            return ExitCode::FAILURE;
        }
        print!("{}", String::from_utf8_lossy(interp.rt.output_bytes()));
        let s = &interp.rt.stats;
        eprintln!(
            "[privc] {} workers, {} invocations, {} checkpoints, {} misspeculations, \
             {} iterations recovered; simulated parallel time {} cycles",
            opts.workers,
            s.invocations,
            s.checkpoints,
            s.misspecs,
            s.recovered_iters,
            interp.stats.insts + s.sim.total,
        );
    } else {
        print!("{}", printer::print_module(&result.module));
    }
    ExitCode::SUCCESS
}
