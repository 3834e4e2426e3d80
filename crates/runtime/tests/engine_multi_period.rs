//! Multi-period torture test for the delta checkpoint path: a span long
//! enough for several checkpoint periods, a misspeculation landing in a
//! *later* period (so committed checkpoints and deferred I/O must survive
//! the squash), and a regression guard on contribution traffic — with
//! delta contributions the pages shipped per period are bounded by the
//! pages dirtied *that period*, not by the worker's cumulative footprint
//! (which made long spans quadratic).

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{Heap, Intrinsic, Module, PlanEntry, Type, Value};
use privateer_runtime::{EngineConfig, EngineEvent, MainRuntime, SequentialPlanRuntime};
use privateer_vm::{load_module, Interp, NopHooks};

const N: i64 = 96;
const PERIOD: u64 = 16;
const STRIDE: i64 = 512; // 8 slots per 4 KiB page

/// body(i): arr[i] (at a 512-byte stride) = 7·i + 1, read it back, print
/// it. Each 16-iteration period dirties a fresh ~2-page window of `arr`,
/// so the cumulative footprint grows every period while the per-period
/// dirty set stays constant.
fn build() -> Module {
    let mut m = Module::new("multi_period");
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
    // Read back slots from the first, a middle, and the last period: the
    // committed memory image matters, not just the deferred output.
    for probe in [0i64, 40, 95] {
        let slot = b.gep(
            Value::Global(arr),
            Value::const_i64(probe),
            STRIDE as u64,
            0,
        );
        let v = b.load(Type::I64, slot);
        b.print_i64(v);
    }
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

fn cfg() -> EngineConfig {
    EngineConfig {
        workers: 2,
        checkpoint_period: PERIOD,
        inject_rate: 0.0,
        inject_seed: 0,
    }
}

#[test]
fn six_periods_commit_with_bounded_contribution_traffic() {
    let m = build();
    let want = sequential(&m);
    let image = load_module(&m);
    let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg()));
    interp.run_main().unwrap();
    assert_eq!(interp.rt.take_output(), want);
    let stats = &interp.rt.stats;
    assert_eq!(stats.misspecs, 0);
    assert_eq!(stats.checkpoints, (N as u64) / PERIOD);
    // Quadratic-traffic regression guard. Each period dirties a 8 KiB
    // window of `arr` (2–3 pages depending on alignment), so with delta
    // contributions each worker ships ≤ 3 shadow + 3 private pages per
    // period: ≤ 2·6·6 = 72 pages total. The old cumulative collector
    // shipped the whole footprint every period — Σ_p 4(p+1) per worker,
    // ≈ 168+ pages here — and grew quadratically with span length.
    assert!(
        stats.contrib_pages <= 80,
        "contribution traffic not delta-bounded: {} pages shipped",
        stats.contrib_pages
    );
    assert!(stats.contrib_pages > 0);
}

#[test]
fn late_period_misspeculation_preserves_committed_prefix_and_io() {
    let m = build();
    let want = sequential(&m);
    // Find a seed whose only injected iteration over 0..N lands in period
    // 4 of 6 (iterations 64..80): several periods commit before the
    // squash, and real work follows the recovery.
    let rate = 0.02;
    let seed = (0u64..200_000)
        .find(|&s| {
            let hits: Vec<i64> = (0..N)
                .filter(|&i| privateer_runtime::worker::injected_at(rate, s, i))
                .collect();
            hits.len() == 1 && (64..80).contains(&hits[0])
        })
        .expect("some seed injects exactly once, in period 4");
    let mut c = cfg();
    c.inject_rate = rate;
    c.inject_seed = seed;
    let image = load_module(&m);
    let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, c));
    interp.run_main().unwrap();
    // Committed-prefix bytes and deferred I/O survive the squash: the
    // final output (per-iteration prints in iteration order + the three
    // memory probes) is byte-identical to the sequential reference.
    assert_eq!(interp.rt.take_output(), want);
    let rt = &interp.rt;
    assert_eq!(rt.stats.misspecs, 1);
    assert!(rt.stats.recovered_iters >= 1);
    // Contributions at or after the misspeculated period are freed the
    // moment the squash is known (or dropped on arrival), not pinned in
    // the pending map until the span's workers join. Whether any such
    // contribution actually materializes here is a scheduling race (a
    // worker usually sees the squash flag before packaging one), so the
    // eager-drop itself is asserted deterministically by the engine's
    // thread-free `PeriodCommitter` unit tests
    // (`prune_squashed_releases_page_arcs_eagerly`,
    // `arrival_drop_covers_squashed_periods_exactly`); this
    // test pins the observable consequence: squashed pages never reach
    // the committed image or the output (checked byte-for-byte above).
    // At least the four periods before the misspeculated one committed
    // out of the first span.
    let committed_before_recovery = rt
        .events
        .iter()
        .take_while(|e| !matches!(e.event, EngineEvent::Recovery { .. }))
        .filter(|e| matches!(e.event, EngineEvent::CheckpointCommitted { .. }))
        .count();
    assert!(
        committed_before_recovery >= 4,
        "only {committed_before_recovery} periods committed before recovery"
    );
    // The span resumed after recovery to finish iterations 80..96.
    assert!(rt
        .events
        .iter()
        .any(|e| matches!(e.event, EngineEvent::ParallelResumed { .. })));
}
