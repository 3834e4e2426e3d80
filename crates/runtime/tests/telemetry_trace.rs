//! End-to-end telemetry capture: run a multi-period workload with an
//! injected phase-2 misspeculation under an enabled [`Telemetry`] handle,
//! then validate the exported Chrome trace — well-formed JSON, one named
//! track per worker plus the engine, and exactly one recovery span that
//! covers the misspeculated window.

use privateer_fuzz::merge;
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{Heap, Intrinsic, Module, PlanEntry, Type, Value};
use privateer_runtime::{EngineConfig, EngineEvent, MainRuntime, SequentialPlanRuntime};
use privateer_telemetry::{
    assert_happens_before, chrome_trace, json, json_lines, Phase, Telemetry,
};
use privateer_vm::{load_module, Interp, MisspecKind, NopHooks, Trap};
use std::sync::atomic::Ordering;

const N: i64 = 96;
const PERIOD: u64 = 16;
const WORKERS: usize = 2;
const STRIDE: i64 = 512;

/// Same shape as the multi-period torture test: body(i) privately writes
/// and reads back `arr[i]` at a page-crossing stride and prints the
/// value, so every period commits checkpoint pages and deferred I/O.
fn build() -> Module {
    let mut m = Module::new("telemetry_trace");
    let arr = m.add_global("arr", (N * STRIDE) as u64);
    m.global_mut(arr).heap = Some(Heap::Private);
    for name in ["body", "recovery"] {
        let checks = name == "body";
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let i = b.param(0);
        let slot = b.gep(Value::Global(arr), i, STRIDE as u64, 0);
        if checks {
            b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
        }
        let v7 = b.mul(Type::I64, i, Value::const_i64(7));
        let v = b.add(Type::I64, v7, Value::const_i64(1));
        b.store(Type::I64, v, slot);
        if checks {
            b.intrinsic(Intrinsic::PrivateRead, vec![slot, Value::const_i64(8)]);
        }
        let back = b.load(Type::I64, slot);
        b.print_i64(back);
        b.ret(None);
        m.add_function(b.finish());
    }
    let body = m.func_by_name("body").unwrap();
    let recovery = m.func_by_name("recovery").unwrap();
    m.plans.push(PlanEntry { body, recovery });
    let mut b = FunctionBuilder::new("main", vec![], None);
    b.intrinsic(
        Intrinsic::ParallelInvoke(0),
        vec![Value::const_i64(0), Value::const_i64(N)],
    );
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();
    m
}

fn sequential(m: &Module) -> Vec<u8> {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, SequentialPlanRuntime::new(&image));
    interp.run_main().unwrap();
    interp.rt.take_output()
}

#[test]
fn traced_run_exports_recovery_window_per_worker_tracks() {
    let m = build();
    let want = sequential(&m);
    let cfg = EngineConfig {
        workers: WORKERS,
        checkpoint_period: PERIOD,
        inject_rate: 0.0,
        inject_seed: 0,
    };
    let image = load_module(&m);
    let tel = Telemetry::enabled();
    let mut rt = MainRuntime::with_telemetry(&image, cfg, tel);
    // Fail the phase-2 merge of period 2 (iterations 32..48): periods 0-1
    // commit, the whole of period 2 recovers sequentially, the span
    // resumes at 48.
    let (fault, fired) = merge::fail_at(
        2,
        Trap::misspec(MisspecKind::Privacy, "injected phase-2 privacy violation"),
    );
    rt.set_merge(fault);
    let mut interp = Interp::new(&m, &image, NopHooks, rt);
    interp.run_main().unwrap();
    assert!(fired.load(Ordering::Relaxed));
    assert_eq!(interp.rt.take_output(), want);
    let rt = &interp.rt;
    assert_eq!(rt.stats.misspecs, 1);
    assert!(rt.stats.recovered_iters >= 1);
    assert!(rt.stats.sim.recovery > 0, "recovery work not accounted");

    // The stamped Figure 5 log orders detection before recovery before
    // resume.
    assert_happens_before(
        &rt.events,
        |e| matches!(e, EngineEvent::MisspecDetected { .. }),
        |e| matches!(e, EngineEvent::Recovery { .. }),
        "phase-2 detection -> recovery",
    );
    assert_happens_before(
        &rt.events,
        |e| matches!(e, EngineEvent::Recovery { .. }),
        |e| matches!(e, EngineEvent::ParallelResumed { .. }),
        "recovery -> resume",
    );
    // The injected misspeculated window, from the event log.
    let (from, through) = rt
        .events
        .iter()
        .find_map(|e| match e.event {
            EngineEvent::Recovery { from, through } => Some((from, through)),
            _ => None,
        })
        .expect("a recovery event");
    assert!(from >= 32 && through < 48, "window {from}..={through}");

    // Exactly one recovery span in the capture, covering that window.
    let trace = rt.trace();
    assert_eq!(trace.dropped, 0);
    let recoveries: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.phase == Phase::Recovery)
        .collect();
    assert_eq!(recoveries.len(), 1, "expected exactly one recovery span");
    assert_eq!(recoveries[0].a, from);
    assert_eq!(recoveries[0].b, through);
    assert!(recoveries[0].dur_ns > 0);
    // One track per worker plus the engine's.
    assert_eq!(trace.tracks().len(), WORKERS + 1);
    // Worker-side phases all made it into the capture.
    for phase in [Phase::Iteration, Phase::Package, Phase::Normalize] {
        assert!(
            trace.events.iter().any(|e| e.phase == phase),
            "no {phase:?} span captured"
        );
    }
    // Engine-side merge spans: committed periods *and* the failed attempt.
    let merges = trace
        .events
        .iter()
        .filter(|e| e.phase == Phase::Merge)
        .count();
    assert!(merges > 2, "only {merges} merge spans");

    // The Chrome export is valid JSON with one named track per worker and
    // the recovery span intact.
    let text = chrome_trace(&trace);
    let doc = json::parse(&text).expect("chrome trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
        .filter_map(|e| e.get("args").unwrap().get("name").and_then(|n| n.as_str()))
        .collect();
    assert_eq!(thread_names.len(), WORKERS + 1);
    assert!(thread_names.contains(&"engine"));
    for w in 0..WORKERS {
        let name = format!("worker {w}");
        assert!(thread_names.iter().any(|n| *n == name), "missing {name}");
    }
    let rec_events: Vec<_> = events
        .iter()
        .filter(|e| e.get("name").unwrap().as_str() == Some("recovery"))
        .collect();
    assert_eq!(rec_events.len(), 1);
    let args = rec_events[0].get("args").unwrap();
    assert_eq!(args.get("from").unwrap().as_f64(), Some(from as f64));
    assert_eq!(args.get("through").unwrap().as_f64(), Some(through as f64));

    // And the JSONL export parses line by line.
    for line in json_lines(&trace).lines() {
        json::parse(line).expect("each JSONL line parses");
    }
}

#[test]
fn disabled_telemetry_captures_nothing_but_still_counts() {
    let m = build();
    let cfg = EngineConfig {
        workers: WORKERS,
        checkpoint_period: PERIOD,
        inject_rate: 0.0,
        inject_seed: 0,
    };
    let image = load_module(&m);
    let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg));
    interp.run_main().unwrap();
    let trace = interp.rt.trace();
    // No spans — tracing was off — but the metrics registry is always
    // live, and its counters agree with the EngineStats snapshot views.
    assert!(trace.events.is_empty());
    let counter = |name: &str| {
        trace
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, s)| match s {
                privateer_telemetry::MetricSnapshot::Counter(v) => Some(*v),
                _ => None,
            })
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    assert_eq!(counter("engine.checkpoints"), interp.rt.stats.checkpoints);
    assert_eq!(
        counter("checkpoint.contrib_pages"),
        interp.rt.stats.contrib_pages
    );
    assert_eq!(counter("priv.fast_words"), interp.rt.stats.priv_fast_words);
    assert!(interp.rt.stats.priv_fast_words > 0);
}
