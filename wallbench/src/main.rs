//! Wall-clock benchmark of Privateer: compile time, sequential and
//! speculative-parallel run time, set-up time and peak memory for one
//! workload, with every output checked against the workload's native
//! reference.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The timed modes of the workload run round-robin, each for a slice of
//! every round (see [`SLICE`]), until `--seconds` have passed, so a phase
//! of host contention slows every mode alike. On a shared 2-vCPU host the samples of one mode
//! fall into a fast and a slow cluster whose mix changes from run to run,
//! which makes the median flip between them (NOTES.md has the
//! measurements). Each time metric is therefore taken from the fast
//! cluster: the fastest sample, or for an engine run the median of the
//! cluster (see [`time_metric`]).
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run adds the per-layer
//! modes, records spans around every layer call on alternate rounds, writes
//! them to `out/trace-<workload>-seed<n>.json` in this package, and reports
//! the per-layer metrics instead. NOTES.md says how to read both.

mod stats;
mod trace;
mod workload;

use privateer::pipeline::{privatize, PipelineConfig, Privatized};
use privateer_ir::verify::verify_module;
use privateer_ir::Module;
use privateer_profile::profile_module;
use privateer_runtime::{EngineEvent, MainRuntime, SequentialPlanRuntime};
use privateer_telemetry::Telemetry;
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks, ProgramImage};
use stats::Summary;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Instance, Workload};

/// Every run takes at least this many rounds, however short `--seconds`.
const MIN_ROUNDS: usize = 5;

/// Each mode repeats its samples within a round until it has run this
/// long (a mode slower than this takes one sample). Equal slices give the
/// cheap modes as much of the run as the slowest one, `compile`, instead
/// of one sample per round each.
const SLICE: Duration = Duration::from_millis(150);

/// Set-ups timed together in one setup sample: one set-up takes well under
/// a millisecond, so a batch keeps the sample above timer and allocator
/// jitter.
const SETUP_BATCH: usize = 16;

/// The end-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("seq_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.build_s", "s"),
    ("workloads.reference_s", "s"),
    ("vm.load_module_s", "s"),
    ("profile.profile_module_s", "s"),
    ("profile.insts", "count"),
    ("core.privatize_s", "s"),
    ("core.self_s", "s"),
    ("core.loops_selected", "count"),
    ("core.loops_rejected", "count"),
    ("core.checks_inserted", "count"),
    ("ir.verify_s", "s"),
    ("ir.insts_before", "count"),
    ("ir.insts_after", "count"),
    ("vm.insts", "count"),
    ("vm.ns_per_inst", "ns"),
    ("core.instrumented_seq_s", "s"),
    ("runtime.priv_read_bytes", "B"),
    ("runtime.priv_write_bytes", "B"),
    ("runtime.priv_fast_words", "count"),
    ("runtime.priv_slow_bytes", "B"),
    ("runtime.checkpoints", "count"),
    ("runtime.contrib_pages", "count"),
    ("runtime.pages_per_checkpoint", "count"),
    ("runtime.misspecs", "count"),
    ("runtime.recovered_iters", "count"),
    ("runtime.squashed_pages_dropped", "count"),
    ("runtime.iters_speculative", "count"),
    ("runtime.useful_iter_ratio", "ratio"),
    ("runtime.invocations", "count"),
    ("runtime.main_insts", "count"),
    ("runtime.run_1w_s", "s"),
    ("runtime.run_all_cores_s", "s"),
    ("telemetry.traced_run_s", "s"),
    ("telemetry.overhead", "ratio"),
    ("telemetry.dropped_events", "count"),
    ("bench.speedup", "ratio"),
    ("bench.seq_s", "s"),
    ("bench.run_s", "s"),
    ("bench.seq_p90_s", "s"),
    ("bench.run_p90_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// One timed activity. Its name is also its root span's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Build the module, compute the reference output, load the image.
    Setup,
    /// `privatize` plus loading the transformed image.
    Compile,
    /// The original program under the strict sequential interpreter.
    Seq,
    /// The privatized program under the engine at the workload's workers.
    Run,
    /// The privatized program under the engine at one worker per core.
    RunAllCores,
    /// `profile_module` alone (it also runs inside `privatize`).
    Profile,
    /// `verify_module` on the privatized module.
    Verify,
    /// The privatized program under `SequentialPlanRuntime`.
    InstrumentedSeq,
    /// The privatized program under the engine at one worker.
    Run1w,
    /// The engine run with telemetry tracing on.
    TracedRun,
}

const END_TO_END_MODES: [Mode; 4] = [Mode::Setup, Mode::Compile, Mode::Seq, Mode::Run];
/// The modes that run the speculative engine.
const ENGINE_MODES: [Mode; 4] = [Mode::Run, Mode::RunAllCores, Mode::Run1w, Mode::TracedRun];
/// The modes of a traced run.
const TRACED_MODES: [Mode; 10] = [
    Mode::Setup,
    Mode::Compile,
    Mode::Profile,
    Mode::Verify,
    Mode::Seq,
    Mode::InstrumentedSeq,
    Mode::Run,
    Mode::RunAllCores,
    Mode::Run1w,
    Mode::TracedRun,
];

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Compile => "compile",
            Mode::Seq => "seq",
            Mode::Run => "run",
            Mode::RunAllCores => "run_all_cores",
            Mode::Profile => "profile",
            Mode::Verify => "verify",
            Mode::InstrumentedSeq => "instrumented_seq",
            Mode::Run1w => "run_1w",
            Mode::TracedRun => "traced_run",
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Samples and counts gathered over a run, keyed by name.
#[derive(Debug, Default)]
struct Record {
    /// Wall seconds per mode, from rounds with span recording off.
    untraced: BTreeMap<&'static str, Vec<f64>>,
    /// Wall seconds per mode, from rounds with span recording on.
    traced: BTreeMap<&'static str, Vec<f64>>,
    /// Counts read from the layers' statistics, one value per sample.
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// Per traced round without a failed sample: the round's first
    /// `compile/core.privatize` span minus its first
    /// `profile/profile.profile_module` span.
    core_self: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// What a successful sample measured.
struct Outcome {
    secs: f64,
    counts: Vec<(&'static str, f64)>,
}

/// The workload's inputs and the artefacts each timed mode starts from,
/// all made before the clock starts.
struct Bench {
    inst: Instance,
    module: Module,
    reference: Vec<u8>,
    image: ProgramImage,
    privatized: Privatized,
    timage: ProgramImage,
}

/// Instructions placed in the module's blocks.
fn placed_insts(m: &Module) -> usize {
    m.functions
        .iter()
        .map(|f| f.inst_ids_in_order().count())
        .sum()
}

fn check_output(mode: Mode, out: &[u8], reference: &[u8]) -> Result<(), String> {
    if out == reference {
        Ok(())
    } else {
        Err(format!(
            "{}: output differs from the native reference ({} vs {} bytes)",
            mode.name(),
            out.len(),
            reference.len()
        ))
    }
}

impl Bench {
    /// Build and privatize the workload; refuses (returns an error) when a
    /// generated module does not verify.
    fn prepare(inst: Instance) -> Result<Bench, String> {
        let module = inst.build();
        verify_module(&module).map_err(|e| format!("generated module does not verify: {e}"))?;
        let privatized = privatize(&module, &PipelineConfig::default())
            .map_err(|e| format!("privatize failed: {e}"))?;
        verify_module(&privatized.module)
            .map_err(|e| format!("privatized module does not verify: {e}"))?;
        Ok(Bench {
            reference: inst.reference(),
            image: load_module(&module),
            timage: load_module(&privatized.module),
            inst,
            module,
            privatized,
        })
    }

    /// Run one sample of `mode`, timing it.
    fn sample(&self, mode: Mode, t: &mut Tracer) -> Result<Outcome, String> {
        let m = &self.module;
        let pm = &self.privatized.module;
        let t0 = Instant::now();
        let outcome = match mode {
            Mode::Setup => {
                let mut same = true;
                for _ in 0..SETUP_BATCH {
                    t.span("setup", |t| {
                        let module = t.span("workloads.build", |_| self.inst.build());
                        let reference = t.span("workloads.reference", |_| self.inst.reference());
                        let image = t.span("vm.load_module", |_| load_module(&module));
                        same &= reference == self.reference;
                        black_box((module, reference, image));
                    });
                }
                let secs = t0.elapsed().as_secs_f64() / SETUP_BATCH as f64;
                if !same {
                    return Err("setup: reference output changed between set-ups".into());
                }
                Outcome {
                    secs,
                    counts: vec![],
                }
            }
            Mode::Compile => {
                let p = t.span("compile", |t| {
                    let p = t.span("core.privatize", |_| {
                        privatize(m, &PipelineConfig::default())
                    });
                    p.inspect(|p| {
                        black_box(t.span("vm.load_module", |_| load_module(&p.module)));
                    })
                });
                let secs = t0.elapsed().as_secs_f64();
                let p = p.map_err(|e| format!("compile: {e}"))?;
                let checks: usize = p
                    .reports
                    .iter()
                    .map(|r| r.checks.privacy_reads + r.checks.privacy_writes + r.checks.separation)
                    .sum();
                Outcome {
                    secs,
                    counts: vec![
                        ("core.loops_selected", p.reports.len() as f64),
                        ("core.loops_rejected", p.rejected.len() as f64),
                        ("core.checks_inserted", checks as f64),
                        ("ir.insts_before", placed_insts(m) as f64),
                        ("ir.insts_after", placed_insts(&p.module) as f64),
                    ],
                }
            }
            Mode::Profile => {
                let r = t.span("profile", |t| {
                    t.span("profile.profile_module", |_| profile_module(m, &self.image))
                });
                let secs = t0.elapsed().as_secs_f64();
                let (profile, out) = r.map_err(|e| format!("profile: {e}"))?;
                check_output(mode, &out, &self.reference)?;
                Outcome {
                    secs,
                    counts: vec![("profile.insts", profile.total_insts as f64)],
                }
            }
            Mode::Verify => {
                let r = t.span("verify", |t| {
                    t.span("ir.verify_module", |_| verify_module(pm))
                });
                let secs = t0.elapsed().as_secs_f64();
                r.map_err(|e| format!("verify: {e}"))?;
                Outcome {
                    secs,
                    counts: vec![],
                }
            }
            Mode::Seq => {
                let (r, out, insts) = t.span("seq", |t| {
                    let mut i = t.span("vm.interp_new", |_| {
                        Interp::new(m, &self.image, NopHooks, BasicRuntime::strict())
                    });
                    let r = t.span("vm.run_main", |_| i.run_main());
                    (r, i.rt.take_output(), i.stats.insts)
                });
                let secs = t0.elapsed().as_secs_f64();
                r.map_err(|e| format!("seq: {e}"))?;
                check_output(mode, &out, &self.reference)?;
                Outcome {
                    secs,
                    counts: vec![("vm.insts", insts as f64)],
                }
            }
            Mode::InstrumentedSeq => {
                let (r, out) = t.span("instrumented_seq", |t| {
                    let mut i = t.span("vm.interp_new", |_| {
                        Interp::new(
                            pm,
                            &self.timage,
                            NopHooks,
                            SequentialPlanRuntime::new(&self.timage),
                        )
                    });
                    let r = t.span("vm.run_main", |_| i.run_main());
                    (r, i.rt.take_output())
                });
                let secs = t0.elapsed().as_secs_f64();
                r.map_err(|e| format!("instrumented_seq: {e}"))?;
                check_output(mode, &out, &self.reference)?;
                Outcome {
                    secs,
                    counts: vec![],
                }
            }
            Mode::Run | Mode::RunAllCores | Mode::Run1w | Mode::TracedRun => {
                // `clone`, not a copy: the benchmark must keep compiling
                // when `EngineConfig` gains a field that is not `Copy`.
                #[allow(clippy::clone_on_copy)]
                let mut cfg = self.inst.engine.clone();
                match mode {
                    Mode::Run1w => cfg.workers = 1,
                    Mode::RunAllCores => cfg.workers = workload::cores(),
                    _ => {}
                }
                let (r, out, i) = t.span(mode.name(), |t| {
                    let tel = if mode == Mode::TracedRun {
                        t.span("telemetry.enabled", |_| Telemetry::enabled())
                    } else {
                        Telemetry::disabled()
                    };
                    let rt = t.span("runtime.new", |_| {
                        MainRuntime::with_telemetry(&self.timage, cfg, tel)
                    });
                    let mut i = t.span("vm.interp_new", |_| {
                        Interp::new(pm, &self.timage, NopHooks, rt)
                    });
                    let r = t.span("runtime.run_main", |_| i.run_main());
                    (r, i.rt.take_output(), i)
                });
                let secs = t0.elapsed().as_secs_f64();
                r.map_err(|e| format!("{}: {e}", mode.name()))?;
                check_output(mode, &out, &self.reference)?;
                let counts = match mode {
                    Mode::Run => engine_counts(&i),
                    Mode::TracedRun => {
                        let trace = t.span("telemetry.trace", |_| i.rt.trace());
                        vec![("telemetry.dropped_events", trace.dropped as f64)]
                    }
                    _ => vec![],
                };
                Outcome { secs, counts }
            }
        };
        Ok(outcome)
    }
}

/// Counts of one engine run, from `EngineStats`, `InterpStats` and the
/// engine's `Invoke` events.
fn engine_counts(i: &Interp<'_, NopHooks, MainRuntime>) -> Vec<(&'static str, f64)> {
    let s = &i.rt.stats;
    let trip: i64 =
        i.rt.events
            .iter()
            .map(|e| match e.event {
                EngineEvent::Invoke { lo, hi } => hi - lo,
                _ => 0,
            })
            .sum();
    let executed = s.iters_speculative + s.recovered_iters;
    vec![
        ("runtime.priv_read_bytes", s.priv_read_bytes as f64),
        ("runtime.priv_write_bytes", s.priv_write_bytes as f64),
        ("runtime.priv_fast_words", s.priv_fast_words as f64),
        ("runtime.priv_slow_bytes", s.priv_slow_bytes as f64),
        ("runtime.checkpoints", s.checkpoints as f64),
        ("runtime.contrib_pages", s.contrib_pages as f64),
        (
            "runtime.pages_per_checkpoint",
            s.contrib_pages as f64 / s.checkpoints.max(1) as f64,
        ),
        ("runtime.misspecs", s.misspecs as f64),
        ("runtime.recovered_iters", s.recovered_iters as f64),
        (
            "runtime.squashed_pages_dropped",
            s.squashed_pages_dropped as f64,
        ),
        ("runtime.iters_speculative", s.iters_speculative as f64),
        (
            "runtime.useful_iter_ratio",
            trip as f64 / executed.max(1) as f64,
        ),
        ("runtime.invocations", s.invocations as f64),
        ("runtime.main_insts", i.stats.insts as f64),
    ]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run rounds of `modes` until `seconds` have passed.
fn measure(
    bench: &Bench,
    modes: &[Mode],
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
) -> Record {
    let mut rec = Record::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        // In a traced run, spans are recorded on even rounds only; the odd
        // rounds give the untraced times the tracing overhead is taken
        // against.
        let traced = trace && round % 2 == 0;
        tracer.set_enabled(traced);
        let (mark, failed) = (tracer.mark(), rec.failed);
        for k in 0..modes.len() {
            let mode = modes[(round + k) % modes.len()];
            let slice_end = Instant::now() + SLICE;
            loop {
                rec.attempted += 1;
                let result = catch_unwind(AssertUnwindSafe(|| bench.sample(mode, tracer)))
                    .unwrap_or_else(|_| Err(format!("{}: panicked", mode.name())));
                match result {
                    Ok(o) => {
                        let times = if traced {
                            &mut rec.traced
                        } else {
                            &mut rec.untraced
                        };
                        times.entry(mode.name()).or_default().push(o.secs);
                        for (name, v) in o.counts {
                            rec.counts.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        tracer.close_all();
                        rec.failed += 1;
                        eprintln!("failed: {e}");
                    }
                }
                if Instant::now() >= slice_end {
                    break;
                }
            }
        }
        if traced && rec.failed == failed {
            let privatize = tracer.durations_since(mark, "compile/core.privatize");
            let profile = tracer.durations_since(mark, "profile/profile.profile_module");
            if let (Some(a), Some(b)) = (privatize.first(), profile.first()) {
                rec.core_self.push(a - b);
            }
        }
        round += 1;
    }
    tracer.set_enabled(false);
    rec
}

fn median(samples: Option<&Vec<f64>>) -> f64 {
    samples
        .and_then(|v| Summary::of(v))
        .map_or(0.0, |s| s.median)
}

/// The time metric of the samples of `path`, a mode or a span path.
/// Contention only ever adds time, so for most paths it is the fastest
/// sample. An engine run's time also depends on how its threads
/// interleave, e.g. how much work a misspeculation squashes, and its
/// fastest sample is the luckiest interleaving. For an engine mode it is
/// therefore the median of the fast cluster, which keeps the interleavings
/// of the quiet phases.
fn time_metric(path: &str, samples: Option<&Vec<f64>>) -> f64 {
    let Some(s) = samples.and_then(|v| Summary::of(v)) else {
        return 0.0;
    };
    if ENGINE_MODES.iter().any(|m| m.name() == path) {
        s.fast
    } else {
        s.min
    }
}

/// Print the sample times of every mode: minimum, median of the fast
/// cluster, median, quartiles, 90th percentile and sample count. A mode's
/// time metric (see [`time_metric`]) is the one named after it, e.g.
/// `seq_s`.
fn print_record(rec: &Record) {
    for (label, map) in [("untraced", &rec.untraced), ("traced", &rec.traced)] {
        if map.is_empty() {
            continue;
        }
        println!("sample times ({label} rounds):");
        for (name, v) in map {
            let Some(s) = Summary::of(v) else { continue };
            println!(
                "  {:<20} {:>13.6e} s  min {:>12.6e}  fast {:>12.6e}  median {:>12.6e}  q1 {:>12.6e}  q3 {:>12.6e}  p90 {:>12.6e}  n {:>4}  iqr/median {:.3}",
                format!("{name}_s"),
                time_metric(name, Some(v)),
                s.min,
                s.fast,
                s.median,
                s.q1,
                s.q3,
                s.p90,
                s.n,
                (s.q3 - s.q1) / s.median
            );
        }
    }
    println!("counts (every sample; `varies` marks a count that did not repeat):");
    for (name, v) in &rec.counts {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let note = if lo == hi { "" } else { "  varies" };
        println!(
            "  {name:<34} {:>14} (min {lo}, max {hi}, n {}){note}",
            median(Some(v)),
            v.len()
        );
    }
}

/// The end-to-end metrics from an untraced run.
fn end_to_end_metrics(rec: &Record) -> BTreeMap<&'static str, f64> {
    let t = |m: Mode| time_metric(m.name(), rec.untraced.get(m.name()));
    let mut out = BTreeMap::new();
    out.insert("setup_s", t(Mode::Setup));
    out.insert("compile_s", t(Mode::Compile));
    out.insert("seq_s", t(Mode::Seq));
    out.insert("run_s", t(Mode::Run));
    out.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out
}

/// The per-layer metrics: span times (see [`time_metric`]) from the traced
/// rounds, counts (median) from every sample.
fn per_layer_metrics(rec: &Record, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let span = |path: &str| time_metric(path, Some(&tracer.durations(path)));
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, v) in &rec.counts {
        out.insert(name, median(Some(v)));
    }
    let seq = span("seq");
    let run = span("run");
    out.insert("workloads.build_s", span("setup/workloads.build"));
    out.insert("workloads.reference_s", span("setup/workloads.reference"));
    out.insert("vm.load_module_s", span("setup/vm.load_module"));
    out.insert(
        "profile.profile_module_s",
        span("profile/profile.profile_module"),
    );
    out.insert("core.privatize_s", span("compile/core.privatize"));
    // The median of per-round differences: the difference of two separate
    // statistics would mix the host's phases into the privatize-only
    // remainder.
    out.insert("core.self_s", median(Some(&rec.core_self)));
    out.insert("ir.verify_s", span("verify/ir.verify_module"));
    out.insert(
        "vm.ns_per_inst",
        seq * 1e9 / out.get("vm.insts").copied().unwrap_or(0.0).max(1.0),
    );
    out.insert("core.instrumented_seq_s", span("instrumented_seq"));
    out.insert("runtime.run_1w_s", span("run_1w"));
    out.insert("runtime.run_all_cores_s", span("run_all_cores"));
    let traced_run = span("traced_run");
    out.insert("telemetry.traced_run_s", traced_run);
    out.insert(
        "telemetry.overhead",
        traced_run / run.max(f64::MIN_POSITIVE),
    );
    out.insert("bench.speedup", seq / run.max(f64::MIN_POSITIVE));
    out.insert("bench.seq_s", seq);
    out.insert("bench.run_s", run);
    let p90 = |name: &str| Summary::of(&tracer.durations(name)).map_or(0.0, |s| s.p90);
    out.insert("bench.seq_p90_s", p90("seq"));
    out.insert("bench.run_p90_s", p90("run"));
    // Sum over modes of the traced times over that of the untraced times.
    let total = |map: &BTreeMap<&'static str, Vec<f64>>| -> f64 {
        map.iter().map(|(name, v)| time_metric(name, Some(v))).sum()
    };
    out.insert(
        "bench.trace_overhead",
        total(&rec.traced) / total(&rec.untraced).max(f64::MIN_POSITIVE),
    );
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `table` with its unit.
fn result_json(
    rec: &Record,
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.failed == 0,
        rec.attempted,
        rec.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!("usage: wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let inst = args.workload.instance(args.seed);
    let bench = match Bench::prepare(inst) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("wallbench: refusing to start: {e}");
            return ExitCode::from(3);
        }
    };
    println!(
        "wallbench workload={} seed={} seconds={} trace={} workers={} available_parallelism={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bench.inst.engine.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut tracer = Tracer::new();
    let modes: &[Mode] = if args.trace {
        &TRACED_MODES
    } else {
        &END_TO_END_MODES
    };
    let rec = measure(&bench, modes, args.seconds, args.trace, &mut tracer);
    println!(
        "attempted {} failed {} over {:.1} s",
        rec.attempted, rec.failed, args.seconds
    );
    print_record(&rec);

    let line = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-seed{}.json",
                args.workload.name(),
                args.seed
            ));
        match tracer.write_chrome(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("wallbench: could not write {}: {e}", path.display()),
        }
        println!("spans (path, count, total s, self s):");
        for (path, (n, total, own)) in tracer.totals() {
            println!("  {path:<46} {n:>6} {total:>12.6} {own:>12.6}");
        }
        let values = per_layer_metrics(&rec, &tracer);
        println!("per-layer metrics:");
        for (name, unit) in PER_LAYER {
            println!(
                "  {name:<34} {:>14} {unit}",
                values.get(name).copied().unwrap_or(0.0)
            );
        }
        result_json(&rec, &PER_LAYER, &values)
    } else {
        let values = end_to_end_metrics(&rec);
        println!(
            "speedup seq_s/run_s = {:.3} (base: seq_s {:.6} s, run_s {:.6} s; not gated)",
            values["seq_s"] / values["run_s"].max(f64::MIN_POSITIVE),
            values["seq_s"],
            values["run_s"]
        );
        result_json(&rec, &END_TO_END, &values)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    /// One successful sample of every mode; panics on a failed one.
    fn counts_of_every_mode(w: Workload, seed: u64) -> BTreeMap<&'static str, f64> {
        let bench = Bench::prepare(w.instance(seed)).expect("prepares");
        let mut tracer = Tracer::new();
        let mut counts = BTreeMap::new();
        for mode in TRACED_MODES {
            let o = bench
                .sample(mode, &mut tracer)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            assert!(o.secs > 0.0);
            counts.extend(o.counts);
        }
        counts
    }

    #[test]
    fn command_line_is_checked() {
        let a = args("--workload md5-misspec --seed 7 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Md5Misspec, 7, 2.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload md5-misspec --seed -1 --seconds 1").is_err());
        assert!(args("--workload md5-misspec --seed 1 --seconds 0").is_err());
        assert!(args("--workload md5-misspec --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload md5-misspec --seed 1").is_err());
        assert!(args("--workload md5-misspec --seed 1 --seconds").is_err());
    }

    #[test]
    fn every_mode_matches_the_reference_on_two_seeds() {
        for w in workload::ALL {
            for seed in [1, 2] {
                counts_of_every_mode(w, seed);
            }
        }
    }

    #[test]
    fn counts_repeat_for_a_fixed_seed() {
        // With two workers or more, the speculation volume of a run that
        // misspeculates depends on how far the other worker got before the
        // squash, so on md5-misspec only the counts below are fixed by the
        // seed on every host.
        const MISSPEC_FIXED: [&str; 6] = [
            "vm.insts",
            "profile.insts",
            "ir.insts_after",
            "runtime.recovered_iters",
            "runtime.invocations",
            "runtime.main_insts",
        ];
        for w in workload::ALL {
            let (a, b) = (counts_of_every_mode(w, 3), counts_of_every_mode(w, 3));
            for (name, v) in &a {
                if w != Workload::Md5Misspec || MISSPEC_FIXED.contains(name) {
                    assert_eq!(b[name], *v, "{} {name}", w.name());
                }
            }
        }
    }

    #[test]
    fn each_workload_stresses_its_layer() {
        let alvinn = counts_of_every_mode(Workload::AlvinnPrivate, 1);
        let wide = counts_of_every_mode(Workload::BlackscholesWide, 1);
        let md5 = counts_of_every_mode(Workload::Md5Misspec, 1);
        let pages = |c: &BTreeMap<&str, f64>| c["runtime.pages_per_checkpoint"];
        assert!(
            pages(&wide) >= 20.0,
            "blackscholes-wide ships {} pages",
            pages(&wide)
        );
        assert!(pages(&wide) >= 4.0 * pages(&alvinn));
        assert!(alvinn["runtime.invocations"] >= 8.0);
        assert!(alvinn["runtime.priv_read_bytes"] > 10.0 * md5["runtime.priv_read_bytes"]);
        assert!(md5["runtime.misspecs"] > 0.0 && md5["runtime.recovered_iters"] > 0.0);
        for other in [&alvinn, &wide] {
            assert_eq!(other["runtime.misspecs"], 0.0);
            assert_eq!(other["runtime.recovered_iters"], 0.0);
        }
    }
}
