//! `privfuzz` — the differential workload fuzzer for the speculative
//! engine.
//!
//! Generates seeded random transformed loops and runs each through the
//! full execution-mode matrix ([`privateer_fuzz::oracle`]): sequential
//! baseline, the speculative engine at every requested worker count with
//! the fast merge and with the reference merge, a phase-2 fault run, and
//! seeded virtual-scheduler interleavings. The first divergence is
//! shrunk to a minimal case and written as a repro file replayable with
//! `--replay`. A campaign in which the injected phase-2 fault never
//! fired fails too: it tested nothing of the phase-2 recovery path.
//!
//! ```text
//! privfuzz --seed 42 --cases 500
//! privfuzz --replay fuzz-failures/privfuzz-42-17.case
//! ```

use privateer_bench::{out, outln};
use privateer_fuzz::{oracle, run_seeded, CaseSpec, OracleConfig};
use std::process::ExitCode;

struct Options {
    seed: u64,
    cases: u64,
    workers: Vec<usize>,
    period: u64,
    schedule_seeds: u64,
    out_dir: String,
    replay: Option<String>,
}

const USAGE: &str = "\
usage: privfuzz [options]
  --seed N           campaign seed (default: 1)
  --cases N          generated cases to run (default: 200)
  --workers A,B,..   engine worker counts to cross (default: 2,5)
  --period K         checkpoint period in iterations (default: 4)
  --schedule-seeds N virtual-scheduler interleavings per case (default: 2)
  --out DIR          directory for repro files on failure (default: .)
  --replay FILE      re-check one repro file instead of generating
";

fn parse_list(flag: &str, s: &str) -> Result<Vec<usize>, String> {
    let v: Result<Vec<usize>, _> = s.split(',').map(str::parse).collect();
    match v {
        Ok(v) if !v.is_empty() && v.iter().all(|&x| x > 0) => Ok(v),
        _ => Err(format!(
            "{flag}: expected a comma-separated list of positive integers"
        )),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        cases: 200,
        workers: vec![2, 5],
        period: 4,
        schedule_seeds: 2,
        out_dir: ".".to_string(),
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--cases" => {
                opts.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--workers" => opts.workers = parse_list("--workers", &value("--workers")?)?,
            "--period" => {
                opts.period = value("--period")?
                    .parse()
                    .map_err(|e| format!("--period: {e}"))?;
                if opts.period == 0 {
                    return Err("--period must be positive".to_string());
                }
            }
            "--schedule-seeds" => {
                opts.schedule_seeds = value("--schedule-seeds")?
                    .parse()
                    .map_err(|e| format!("--schedule-seeds: {e}"))?
            }
            "--out" => opts.out_dir = value("--out")?,
            "--replay" => opts.replay = Some(value("--replay")?),
            "--help" | "-h" => {
                out!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("privfuzz: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let oc = OracleConfig {
        workers: opts.workers.clone(),
        checkpoint_period: opts.period,
        schedule_seeds: opts.schedule_seeds,
    };

    if let Some(path) = &opts.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("privfuzz: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let spec = match CaseSpec::from_text(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("privfuzz: bad repro file {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match oracle::check_case(&spec, &oc) {
            Ok(report) => {
                outln!(
                    "replay {path}: PASS ({} misspec(s){})",
                    report.misspecs,
                    if report.seq_trapped {
                        ", genuine trap"
                    } else {
                        ""
                    }
                );
                ExitCode::SUCCESS
            }
            Err(f) => {
                eprintln!("replay {path}: FAIL {f}");
                ExitCode::FAILURE
            }
        };
    }

    outln!(
        "privfuzz: seed {} · {} cases · workers {:?} × {{fast, reference}} merge · phase-2 fault · k={} · {} schedule seed(s)",
        opts.seed, opts.cases, opts.workers, opts.period, opts.schedule_seeds
    );
    let summary = run_seeded(opts.seed, opts.cases, &oc);
    outln!(
        "privfuzz: {} case(s) run, {} with misspeculation, {} with genuine traps, {} with a fired phase-2 fault",
        summary.cases,
        summary.cases_with_misspec,
        summary.cases_trapped,
        summary.cases_with_fault
    );
    match summary.failure {
        None if summary.cases_with_fault == 0 => {
            eprintln!("privfuzz: FAIL: the injected phase-2 fault never fired");
            ExitCode::FAILURE
        }
        None => {
            outln!("privfuzz: PASS");
            ExitCode::SUCCESS
        }
        Some(f) => {
            eprintln!("privfuzz: case {} FAILED: {}", f.index, f.failure);
            let _ = std::fs::create_dir_all(&opts.out_dir);
            let orig = format!("{}/privfuzz-{}-{}.case", opts.out_dir, opts.seed, f.index);
            let min = format!(
                "{}/privfuzz-{}-{}.min.case",
                opts.out_dir, opts.seed, f.index
            );
            for (path, spec) in [(&orig, &f.spec), (&min, &f.shrunk)] {
                let mut body = format!(
                    "# privfuzz repro: seed {} case {} — {}\n",
                    opts.seed, f.index, f.failure
                );
                body.push_str(&spec.to_text());
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("privfuzz: cannot write {path}: {e}");
                }
            }
            eprintln!("privfuzz: repro written to {orig}\nprivfuzz: shrunk repro: {min}");
            eprintln!("privfuzz: replay with `privfuzz --replay {min}`");
            ExitCode::FAILURE
        }
    }
}
