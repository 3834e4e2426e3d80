//! The differential oracle: one generated case, every execution mode,
//! byte-for-byte agreement.
//!
//! For a [`CaseSpec`] the oracle runs:
//!
//! 1. the sequential baseline ([`SequentialPlanRuntime`]);
//! 2. the speculative engine at every worker count in the
//!    [`OracleConfig`] matrix, once with the dense phase-2 fast path and
//!    once with the per-address [`merge::reference`] merge plugged into
//!    the engine's merge seam, pitting the two inside the full pipeline;
//! 3. one phase-2 fault run: [`merge::fail_at`] fails the merge of a
//!    period drawn from the case name (which carries the seed) with a
//!    privacy misspeculation, so the whole period must recover
//!    sequentially (the [`CaseReport`] records whether the fault fired:
//!    an earlier misspeculation can squash the chosen period first);
//! 4. seeded [`VirtualScheduler::random_arrivals`] runs, with the
//!    scheduler plugged into the engine's gate seam, so
//!    contribution-arrival interleavings free-running spans rarely
//!    produce are explored deterministically.
//!
//! When [`coalesce_privacy_checks`] changes the case's body, every engine
//! run above runs on both the per-access and the coalesced body, and a
//! one-worker run of each must misspeculate at the same iterations and,
//! without misspeculation, validate the same private bytes.
//!
//! Every speculative run must match the baseline's `Result` (genuine
//! traps included) and output bytes, and must satisfy the engine's
//! internal conservation laws (`check_run`): telemetry counters agree
//! with `EngineStats`, events are well-ordered, committed checkpoint
//! ranges are disjoint and in-bounds, and on success the committed and
//! recovered ranges exactly cover the iteration space.
//!
//! On failure, [`shrink`] greedily minimizes the case (drop a statement,
//! halve the trip count, shrink the buffer) while the failure
//! reproduces, and [`run_seeded`] packages everything into a
//! [`RunSummary`] the `privfuzz` CLI and CI smoke tests consume.

use crate::gen::CaseSpec;
use crate::merge;
use crate::rng::Rng;
use crate::schedule::VirtualScheduler;
use privateer::transform::coalesce_privacy_checks;
use privateer_ir::Module;
use privateer_runtime::{EngineConfig, EngineEvent, MainRuntime, SequentialPlanRuntime};
use privateer_telemetry::Telemetry;
use privateer_vm::{load_module, Interp, MisspecKind, NopHooks, Trap};
use std::sync::atomic::Ordering;

/// The execution-mode matrix a case is checked against.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Worker counts to run the engine at (≥ 1 entry).
    pub workers: Vec<usize>,
    /// Checkpoint period in iterations.
    pub checkpoint_period: u64,
    /// Number of seeded random-arrival scheduler runs per case.
    pub schedule_seeds: u64,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            workers: vec![2, 5],
            checkpoint_period: 4,
            schedule_seeds: 2,
        }
    }
}

/// Why a case failed the oracle.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// The execution mode that diverged (e.g. `"workers=2 merge=reference"`).
    pub mode: String,
    /// What diverged.
    pub detail: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.mode, self.detail)
    }
}

/// Per-case observations (for run statistics, not correctness).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    /// Misspeculations observed in the first engine configuration.
    pub misspecs: u64,
    /// Whether the sequential baseline ended in a trap (genuine fault).
    pub seq_trapped: bool,
    /// Whether the phase-2 fault run's injected fault fired; it does
    /// not when an earlier misspeculation squashes the chosen period.
    pub fault_fired: bool,
    /// Whether check coalescing changed the body, so every engine run
    /// ran on both bodies.
    pub coalesced: bool,
}

/// Outcome of a [`run_seeded`] campaign.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Cases executed (including the failing one, if any).
    pub cases: u64,
    /// Cases in which at least one misspeculation occurred.
    pub cases_with_misspec: u64,
    /// Cases whose sequential baseline trapped (genuine faults).
    pub cases_trapped: u64,
    /// Cases whose phase-2 fault run fired its injected fault.
    pub cases_with_fault: u64,
    /// Cases whose body check coalescing changed.
    pub cases_coalesced: u64,
    /// The first failure, already shrunk, if any case diverged.
    pub failure: Option<FailureReport>,
}

/// A failing case, before and after shrinking.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Index of the failing case within the seeded stream.
    pub index: u64,
    /// The original generated case.
    pub spec: CaseSpec,
    /// The minimized case (still failing).
    pub shrunk: CaseSpec,
    /// The shrunk case's failure.
    pub failure: CaseFailure,
}

/// One speculative engine run: outcome, output, and the runtime handle
/// for stats/events inspection.
struct EngineRun {
    result: String,
    ok: bool,
    out: Vec<u8>,
    rt: MainRuntime,
    tel: Telemetry,
}

/// Run `m` on the engine, after `configure` has set up the runtime
/// (merge seam, virtual scheduler).
fn engine_run(
    m: &Module,
    cfg: EngineConfig,
    configure: impl FnOnce(&mut MainRuntime),
) -> EngineRun {
    let image = load_module(m);
    let tel = Telemetry::disabled();
    let mut rt = MainRuntime::with_telemetry(&image, cfg, tel.clone());
    configure(&mut rt);
    let mut interp = Interp::new(m, &image, NopHooks, rt);
    let res = interp.run_main();
    EngineRun {
        result: format!("{res:?}"),
        ok: res.is_ok(),
        out: interp.rt.take_output(),
        rt: interp.rt,
        tel,
    }
}

fn sequential_run(m: &Module) -> (String, Vec<u8>) {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, SequentialPlanRuntime::new(&image));
    let res = interp.run_main();
    (format!("{res:?}"), interp.rt.take_output())
}

/// The engine's internal conservation laws, checked on one run.
///
/// `n` is the loop trip count; `ok` whether the run succeeded (coverage
/// is only exact on success — a genuine trap legitimately leaves the
/// tail of the iteration space unexecuted).
fn check_run(run: &EngineRun, n: i64) -> Result<(), String> {
    let stats = &run.rt.stats;
    let events = &run.rt.events;

    for w in events.windows(2) {
        if w[0].seq >= w[1].seq {
            return Err(format!(
                "event stamps not strictly ordered: {} then {}",
                w[0].seq, w[1].seq
            ));
        }
    }
    match events.first().map(|s| &s.event) {
        Some(&EngineEvent::Invoke { lo: 0, hi }) if hi == n => {}
        other => {
            return Err(format!(
                "first event must be Invoke{{0,{n}}}, got {other:?}"
            ))
        }
    }
    if run.ok
        && !matches!(
            events.last().map(|s| &s.event),
            Some(EngineEvent::InvokeDone)
        )
    {
        return Err("successful run must end with InvokeDone".to_string());
    }

    let reg = run.tel.registry();
    for (counter, stat, name) in [
        (
            reg.counter("engine.invocations").get(),
            stats.invocations,
            "invocations",
        ),
        (
            reg.counter("engine.misspecs").get(),
            stats.misspecs,
            "misspecs",
        ),
        (
            reg.counter("engine.checkpoints").get(),
            stats.checkpoints,
            "checkpoints",
        ),
        (
            reg.counter("recovery.iters").get(),
            stats.recovered_iters,
            "recovered_iters",
        ),
        (
            reg.counter("checkpoint.contrib_pages").get(),
            stats.contrib_pages,
            "contrib_pages",
        ),
        (
            reg.counter("checkpoint.squashed_pages").get(),
            stats.squashed_pages_dropped,
            "squashed_pages",
        ),
        (
            reg.counter("priv.fast_words").get(),
            stats.priv_fast_words,
            "priv_fast_words",
        ),
        (
            reg.counter("priv.slow_bytes").get(),
            stats.priv_slow_bytes,
            "priv_slow_bytes",
        ),
    ] {
        if counter != stat {
            return Err(format!(
                "metric/stat disagreement for {name}: counter {counter} != stat {stat}"
            ));
        }
    }

    let mut detected = 0u64;
    let mut recovered = 0u64;
    let mut last_end = i64::MIN;
    let mut covered = vec![false; n.max(0) as usize];
    for s in events {
        match s.event {
            EngineEvent::MisspecDetected { .. } => detected += 1,
            EngineEvent::Recovery { from, through } => {
                if from > through || from < 0 || through >= n {
                    return Err(format!("recovery range {from}..={through} out of [0,{n})"));
                }
                recovered += (through - from + 1) as u64;
                for i in from..=through {
                    covered[i as usize] = true;
                }
            }
            EngineEvent::CheckpointCommitted { base, end, .. } => {
                if base < last_end || base >= end || base < 0 || end > n {
                    return Err(format!(
                        "committed range {base}..{end} overlaps or escapes [0,{n}) \
                         (previous end {last_end})"
                    ));
                }
                last_end = end;
                for i in base..end {
                    covered[i as usize] = true;
                }
            }
            _ => {}
        }
    }
    if detected > stats.misspecs {
        return Err(format!(
            "{detected} MisspecDetected events but only {} misspecs counted",
            stats.misspecs
        ));
    }
    if recovered != stats.recovered_iters {
        return Err(format!(
            "Recovery events cover {recovered} iters, stats say {}",
            stats.recovered_iters
        ));
    }
    if run.ok {
        if let Some(hole) = covered.iter().position(|&c| !c) {
            return Err(format!(
                "iteration {hole} neither committed by a checkpoint nor recovered"
            ));
        }
        if stats.iters_speculative + stats.recovered_iters < n as u64 {
            return Err(format!(
                "only {} speculative + {} recovered iterations for a {n}-iteration loop",
                stats.iters_speculative, stats.recovered_iters
            ));
        }
    }
    Ok(())
}

fn compare(
    mode: &str,
    run: &EngineRun,
    seq_result: &str,
    seq_out: &[u8],
    n: i64,
) -> Result<(), CaseFailure> {
    let fail = |detail: String| {
        Err(CaseFailure {
            mode: mode.to_string(),
            detail,
        })
    };
    if run.result != seq_result {
        return fail(format!(
            "result diverged: sequential {seq_result}, engine {}",
            run.result
        ));
    }
    if run.out != seq_out {
        return fail(format!(
            "output diverged: sequential {} bytes {:?}, engine {} bytes {:?}",
            seq_out.len(),
            String::from_utf8_lossy(seq_out),
            run.out.len(),
            String::from_utf8_lossy(&run.out)
        ));
    }
    if let Err(detail) = check_run(run, n) {
        return fail(format!("invariant violated: {detail}"));
    }
    Ok(())
}

/// Run one case through the full differential matrix.
pub fn check_case(spec: &CaseSpec, oc: &OracleConfig) -> Result<CaseReport, CaseFailure> {
    let m = spec.build_module();
    let n = spec.iters;
    let (seq_result, seq_out) = sequential_run(&m);
    let mut report = CaseReport {
        seq_trapped: !seq_result.starts_with("Ok"),
        ..CaseReport::default()
    };

    // The body with its affine streams' checks coalesced, when the pass
    // changes it: every engine run below then runs on both bodies.
    let mut coalesced = m.clone();
    let body = coalesced.plans[0].body;
    let mut bodies = vec![("per-access", &m)];
    if coalesce_privacy_checks(&mut coalesced, [body]) > 0 {
        bodies.push(("coalesced", &coalesced));
        report.coalesced = true;
        same_validation(&m, &coalesced, oc.checkpoint_period)?;
    }

    let base_cfg = |workers: usize| EngineConfig {
        workers,
        checkpoint_period: oc.checkpoint_period,
        inject_rate: 0.0,
        inject_seed: 0,
    };

    let mut first = true;
    for &(checks, module) in &bodies {
        for &w in &oc.workers {
            for reference in [false, true] {
                let run = engine_run(module, base_cfg(w), |rt| {
                    if reference {
                        rt.set_merge(merge::reference);
                    }
                });
                if first {
                    report.misspecs = run.rt.stats.misspecs;
                    first = false;
                }
                let merge = if reference { "reference" } else { "fast" };
                compare(
                    &format!("workers={w} merge={merge} checks={checks}"),
                    &run,
                    &seq_result,
                    &seq_out,
                    n,
                )?;
            }
        }
    }

    let w0 = oc.workers.first().copied().unwrap_or(2);

    let periods = (n as u64 + oc.checkpoint_period - 1) / oc.checkpoint_period.max(1);
    let at = fault_period(spec, periods);
    for &(checks, module) in &bodies {
        let trap = Trap::misspec(MisspecKind::Privacy, "injected phase-2 privacy violation");
        let (fault, fired) = merge::fail_at(at, trap);
        let run = engine_run(module, base_cfg(w0), |rt| rt.set_merge(fault));
        report.fault_fired |= fired.load(Ordering::Relaxed);
        compare(
            &format!("workers={w0} merge=fault@{at} checks={checks}"),
            &run,
            &seq_result,
            &seq_out,
            n,
        )?;

        for s in 0..oc.schedule_seeds {
            let sched = VirtualScheduler::random_arrivals(w0, periods, s);
            let run = engine_run(module, base_cfg(w0), |rt| rt.set_gate(sched.clone()));
            let mode = format!("schedule-seed={s} checks={checks}");
            if sched.timeouts() != 0 {
                return Err(CaseFailure {
                    mode,
                    detail: format!(
                        "virtual scheduler forced {} gate(s) by timeout — inconsistent script",
                        sched.timeouts()
                    ),
                });
            }
            compare(&mode, &run, &seq_result, &seq_out, n)?;
        }
    }
    Ok(report)
}

/// Coalescing changes how many calls validate the private bytes, never
/// which: on one worker, where a run is deterministic, both bodies must
/// misspeculate at the same iterations, and without misspeculation they
/// must validate the same bytes.
fn same_validation(
    per_access: &Module,
    coalesced: &Module,
    period: u64,
) -> Result<(), CaseFailure> {
    let cfg = EngineConfig {
        workers: 1,
        checkpoint_period: period,
        inject_rate: 0.0,
        inject_seed: 0,
    };
    let a = engine_run(per_access, cfg, |_| {}).rt.stats;
    let b = engine_run(coalesced, cfg, |_| {}).rt.stats;
    let mut same = (a.misspecs, a.recovered_iters) == (b.misspecs, b.recovered_iters);
    if a.misspecs == 0 {
        same &= (a.priv_read_bytes, a.priv_write_bytes) == (b.priv_read_bytes, b.priv_write_bytes);
    }
    if same {
        return Ok(());
    }
    Err(CaseFailure {
        mode: "workers=1 checks=per-access vs coalesced".to_string(),
        detail: format!(
            "misspecs {} vs {}, recovered {} vs {}, bytes read {} vs {}, written {} vs {}",
            a.misspecs,
            b.misspecs,
            a.recovered_iters,
            b.recovered_iters,
            a.priv_read_bytes,
            b.priv_read_bytes,
            a.priv_write_bytes,
            b.priv_write_bytes
        ),
    })
}

/// The period whose merge the phase-2 fault run fails, drawn from the
/// case name: it carries the generator seed and index, and survives
/// repro files and shrinking.
fn fault_period(spec: &CaseSpec, periods: u64) -> u64 {
    let h = spec.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    Rng::new(h).below(periods.max(1))
}

/// Greedily minimize a failing case: try dropping each statement, then
/// halving the trip count, shrinking the buffer, and zeroing the
/// accumulator, keeping any change under which [`check_case`] still
/// fails, until a fixpoint (or an attempt budget) is reached.
pub fn shrink(spec: &CaseSpec, oc: &OracleConfig) -> CaseSpec {
    let mut cur = spec.clone();
    let mut budget = 200u32;
    'outer: loop {
        let mut candidates: Vec<CaseSpec> = Vec::new();
        for i in 0..cur.stmts.len() {
            let mut c = cur.clone();
            c.stmts.remove(i);
            candidates.push(c);
        }
        if cur.iters > 4 {
            let mut c = cur.clone();
            c.iters /= 2;
            candidates.push(c);
        }
        if cur.cells > 2 {
            let mut c = cur.clone();
            c.cells = 2;
            candidates.push(c);
        }
        if cur.pitch > 8 {
            let mut c = cur.clone();
            c.pitch = 8;
            candidates.push(c);
        }
        if cur.redux_init != 0 {
            let mut c = cur.clone();
            c.redux_init = 0;
            candidates.push(c);
        }
        for cand in candidates {
            if budget == 0 {
                return cur;
            }
            budget -= 1;
            if check_case(&cand, oc).is_err() {
                cur = cand;
                continue 'outer;
            }
        }
        return cur;
    }
}

/// Run `cases` generated cases from the stream seeded by `seed`,
/// stopping (and shrinking) at the first failure.
pub fn run_seeded(seed: u64, cases: u64, oc: &OracleConfig) -> RunSummary {
    let mut summary = RunSummary {
        cases: 0,
        cases_with_misspec: 0,
        cases_trapped: 0,
        cases_with_fault: 0,
        cases_coalesced: 0,
        failure: None,
    };
    for index in 0..cases {
        let spec = CaseSpec::generate(seed, index);
        summary.cases += 1;
        match check_case(&spec, oc) {
            Ok(report) => {
                if report.misspecs > 0 {
                    summary.cases_with_misspec += 1;
                }
                if report.seq_trapped {
                    summary.cases_trapped += 1;
                }
                if report.fault_fired {
                    summary.cases_with_fault += 1;
                }
                if report.coalesced {
                    summary.cases_coalesced += 1;
                }
            }
            Err(_) => {
                let shrunk = shrink(&spec, oc);
                let failure = check_case(&shrunk, oc).expect_err("shrink preserves failure");
                summary.failure = Some(FailureReport {
                    index,
                    spec,
                    shrunk,
                    failure,
                });
                return summary;
            }
        }
    }
    summary
}
