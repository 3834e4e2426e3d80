//! `privtrace` — run a workload under the speculative engine with tracing
//! enabled, write the capture as Chrome `trace_event` JSON (loadable in
//! `chrome://tracing` / Perfetto, one named track per worker), and print a
//! per-phase time breakdown.
//!
//! ```text
//! privtrace --workload dijkstra --workers 4 --trace trace.json
//! ```

use privateer_bench::{out, outln, run_privateer_with_telemetry, workloads, Scale};
use privateer_telemetry::{chrome_trace, json_lines, Telemetry, TraceData};
use std::fmt::Write;
use std::process::ExitCode;

struct Options {
    workload: String,
    workers: usize,
    inject: f64,
    scale: Scale,
    trace_path: Option<String>,
    jsonl_path: Option<String>,
}

const USAGE: &str = "\
usage: privtrace [options]
  --workload NAME    workload to run (default: dijkstra; --list to see all)
  --workers N        worker threads (default: 4)
  --inject RATE      injected misspeculation rate per iteration (default: 0)
  --scale SCALE      input scale, `train` or `bench` (default: train)
  --trace FILE       write Chrome trace_event JSON to FILE
  --jsonl FILE       write the capture as JSON lines to FILE
  --list             list workloads and exit
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: "dijkstra".to_string(),
        workers: 4,
        inject: 0.0,
        scale: Scale::Train,
        trace_path: None,
        jsonl_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--inject" => {
                opts.inject = value("--inject")?
                    .parse()
                    .map_err(|e| format!("--inject: {e}"))?
            }
            "--scale" => {
                opts.scale = match value("--scale")?.as_str() {
                    "train" => Scale::Train,
                    "bench" => Scale::Bench,
                    other => return Err(format!("--scale: unknown scale `{other}`")),
                }
            }
            "--trace" => opts.trace_path = Some(value("--trace")?),
            "--jsonl" => opts.jsonl_path = Some(value("--jsonl")?),
            "--list" => {
                for w in workloads() {
                    outln!("{}", w.name);
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                out!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// The per-phase time breakdown of a capture, as printed.
///
/// Spans nest (parallel ⊃ iteration ⊃ priv_read/priv_write; checkpoint
/// work splits into package/normalize on the workers and merge/commit on
/// the engine), so the percentages are relative to the parallel-span wall
/// plus recovery wall — the denominators of the paper's Figure 8. A
/// capture that dropped events is partial, and shares computed from it
/// would mislead, so then only the drop count is reported.
fn phase_breakdown(trace: &TraceData) -> String {
    let mut out = format!(
        "\nphase breakdown ({} events captured):\n",
        trace.events.len()
    );
    if trace.dropped > 0 {
        let _ = writeln!(
            out,
            "  withheld: {} events dropped to ring overflow, so the capture is partial",
            trace.dropped
        );
        return out;
    }
    let totals = trace.phase_totals();
    let total_of = |name: &str| {
        totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, t)| t)
    };
    let denom = (total_of("parallel") + total_of("recovery")).max(1) as f64;
    let _ = writeln!(out, "  {:<12} {:>12} {:>8}", "phase", "total", "share");
    for phase in [
        "parallel",
        "iteration",
        "priv_read",
        "priv_write",
        "package",
        "normalize",
        "merge",
        "commit",
        "recovery",
    ] {
        let t = total_of(phase);
        if t == 0 && !matches!(phase, "parallel" | "recovery") {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>9.3} ms {:>7.2}%",
            phase,
            t as f64 / 1e6,
            t as f64 / denom * 100.0,
        );
    }
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("privtrace: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(wl) = all.iter().find(|w| w.name == opts.workload) else {
        eprintln!(
            "privtrace: unknown workload `{}` (try --list)",
            opts.workload
        );
        return ExitCode::from(2);
    };

    let module = wl.build(opts.scale);
    let tel = Telemetry::enabled();
    let run = run_privateer_with_telemetry(&module, opts.workers, opts.inject, tel.clone());
    let trace = tel.trace();

    let ok = run.out == wl.reference(opts.scale);
    outln!(
        "{}: {} workers, {:.1} ms wall, {} misspec(s), {} iterations recovered — output {}",
        wl.name,
        opts.workers,
        run.wall.as_secs_f64() * 1e3,
        run.stats.misspecs,
        run.stats.recovered_iters,
        if ok { "matches reference" } else { "DIVERGED" },
    );

    out!("{}", phase_breakdown(&trace));

    outln!("\nmetrics:");
    for (name, snap) in &trace.metrics {
        outln!("  {name:<28} {snap:?}");
    }

    if let Some(path) = &opts.trace_path {
        if let Err(e) = std::fs::write(path, chrome_trace(&trace)) {
            eprintln!("privtrace: writing {path}: {e}");
            return ExitCode::from(1);
        }
        outln!("\nChrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }
    if let Some(path) = &opts.jsonl_path {
        if let Err(e) = std::fs::write(path, json_lines(&trace)) {
            eprintln!("privtrace: writing {path}: {e}");
            return ExitCode::from(1);
        }
        outln!("JSON lines written to {path}");
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_telemetry::{Phase, SpanEvent};

    fn capture(dropped: u64) -> TraceData {
        let span = |phase, dur_ns| SpanEvent {
            ts_ns: 0,
            dur_ns,
            phase,
            track: 0,
            a: 0,
            b: 0,
        };
        TraceData {
            events: vec![
                span(Phase::ParallelSpan, 4_000_000),
                span(Phase::Iteration, 1_000_000),
            ],
            metrics: Vec::new(),
            dropped,
        }
    }

    #[test]
    fn partial_capture_withholds_the_phase_table() {
        let text = phase_breakdown(&capture(1));
        assert!(text.contains("1 events dropped"), "{text}");
        assert!(
            !text.contains('%'),
            "shares printed from a partial capture: {text}"
        );
        assert!(!text.contains("iteration"), "{text}");
    }

    #[test]
    fn complete_capture_prints_shares() {
        let text = phase_breakdown(&capture(0));
        assert!(text.contains("parallel"), "{text}");
        assert!(
            text.contains("25.00%"),
            "iteration is a quarter of the span: {text}"
        );
        assert!(!text.contains("dropped"), "{text}");
    }
}
