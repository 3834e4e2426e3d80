//! Many pages per period: every checkpoint of this workload ships 16
//! freshly written pages per period, so the phase-2 merge does real page
//! work each period. The dense fast merge, the per-address reference
//! merge (`reference_merge: true`) and the sequential plan runtime must
//! print byte-identical output, and both merges must commit the same
//! checkpoints in the same order.

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{Heap, Intrinsic, Module, PlanEntry, Type, Value};
use privateer_runtime::{
    EngineConfig, EngineEvent, EngineStats, MainRuntime, SequentialPlanRuntime,
};
use privateer_vm::{load_module, Interp, NopHooks, PAGE_SIZE};

const N: i64 = 64;
const PERIOD: u64 = 16;
const STRIDE: i64 = PAGE_SIZE as i64; // one fresh page per iteration

/// body(i): privatize the whole page at `arr + i·4096` (a 4096-byte
/// `private_write`, so the merge scans a full page of written bytes),
/// store 7·i + 1 at its base, read it back, print it. Each period
/// dirties 16 consecutive fresh pages.
fn build() -> Module {
    let mut m = Module::new("many_pages");
    let arr = m.add_global("arr", (N * STRIDE) as u64);
    m.global_mut(arr).heap = Some(Heap::Private);
    for name in ["body", "recovery"] {
        let checks = name == "body";
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let i = b.param(0);
        let slot = b.gep(Value::Global(arr), i, STRIDE as u64, 0);
        if checks {
            b.intrinsic(
                Intrinsic::PrivateWrite,
                vec![slot, Value::const_i64(STRIDE)],
            );
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
    for probe in [0i64, 31, 63] {
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

/// Output, committed checkpoints (in commit order) and stats of one
/// engine run.
fn run_engine(m: &Module, reference_merge: bool) -> (Vec<u8>, Vec<EngineEvent>, EngineStats) {
    let cfg = EngineConfig {
        workers: 2,
        checkpoint_period: PERIOD,
        inject_rate: 0.0,
        inject_seed: 0,
        reference_merge,
    };
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, MainRuntime::new(&image, cfg));
    interp.run_main().unwrap();
    let out = interp.rt.take_output();
    let commits = interp
        .rt
        .events
        .iter()
        .map(|e| e.event.clone())
        .filter(|e| matches!(e, EngineEvent::CheckpointCommitted { .. }))
        .collect();
    (out, commits, interp.rt.stats)
}

#[test]
fn many_pages_per_period_commit_identically_across_merges() {
    let m = build();
    let image = load_module(&m);
    let mut seq = Interp::new(&m, &image, NopHooks, SequentialPlanRuntime::new(&image));
    seq.run_main().unwrap();
    let want = seq.rt.take_output();

    let (fast_out, fast_commits, fast) = run_engine(&m, false);
    let (ref_out, ref_commits, reference) = run_engine(&m, true);

    assert_eq!(fast_out, want, "fast merge diverged from sequential");
    assert_eq!(ref_out, want, "reference merge diverged from sequential");
    assert_eq!(fast_commits, ref_commits);
    let expect: Vec<EngineEvent> = (0..N as u64 / PERIOD)
        .map(|p| EngineEvent::CheckpointCommitted {
            period: p,
            base: (p * PERIOD) as i64,
            end: ((p + 1) * PERIOD) as i64,
        })
        .collect();
    assert_eq!(fast_commits, expect, "every period commits once, in order");
    for stats in [fast, reference] {
        assert_eq!(stats.checkpoints, N as u64 / PERIOD);
        assert_eq!(stats.misspecs, 0);
        // Both workers ship a shadow and a private page per iteration.
        assert!(
            stats.contrib_pages >= 2 * N as u64,
            "{}",
            stats.contrib_pages
        );
    }
}
