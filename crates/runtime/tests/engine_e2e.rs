//! End-to-end tests of the speculative DOALL engine on hand-transformed
//! modules: privatization, reductions, deferred I/O, misspeculation
//! injection, genuine privacy violations, and the Figure 5 timeline.

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{CmpOp, GlobalInit, Heap, Intrinsic, Module, PlanEntry, ReduxOp, Type, Value};
use privateer_runtime::{EngineConfig, EngineEvent, MainRuntime, SequentialPlanRuntime};
use privateer_telemetry::{assert_happens_before, assert_stamps_ordered};
use privateer_vm::{load_module, Interp, NopHooks, Trap};

const N: i64 = 100;

/// Build the canonical transformed program:
///
/// * `buf` — 80-byte private array, fully overwritten then read each
///   iteration (the privatization pattern);
/// * `acc` — an `i64` sum reduction with initial value 5;
/// * one line of deferred output per iteration.
///
/// `with_checks` controls whether the speculative body carries
/// `private_read`/`private_write` checks (the recovery body never does).
fn build_module(violating: bool) -> Module {
    let mut m = Module::new("e2e");
    let buf = m.add_global("buf", 80);
    m.global_mut(buf).heap = Some(Heap::Private);
    let acc = m.add_global_init("acc", 8, GlobalInit::I64s(vec![5]));
    m.global_mut(acc).heap = Some(Heap::Redux);

    // Two bodies: speculative (with checks) and recovery (without).
    for (name, checks) in [("body", true), ("recovery", false)] {
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let iter = b.param(0);

        if violating {
            // Read the live-in cell, then overwrite it: a genuine
            // cross-iteration flow (and the conservative
            // write-after-read-live-in case in phase 1).
            if checks {
                b.intrinsic(
                    Intrinsic::PrivateRead,
                    vec![Value::Global(buf), Value::const_i64(8)],
                );
            }
            let c = b.load(Type::I64, Value::Global(buf));
            let c1 = b.add(Type::I64, c, Value::const_i64(1));
            if checks {
                b.intrinsic(
                    Intrinsic::PrivateWrite,
                    vec![Value::Global(buf), Value::const_i64(8)],
                );
            }
            b.store(Type::I64, c1, Value::Global(buf));
        } else {
            // Kill-then-use: write all 10 slots, then read one back.
            let header = b.new_block();
            let bodyb = b.new_block();
            let after = b.new_block();
            b.br(header);
            b.switch_to(header);
            let (j, j_phi) = b.phi(Type::I64);
            b.add_phi_incoming(j_phi, b.entry_block(), Value::const_i64(0));
            let c = b.icmp(CmpOp::Lt, j, Value::const_i64(10));
            b.cond_br(c, bodyb, after);
            b.switch_to(bodyb);
            let slot = b.gep(Value::Global(buf), j, 8, 0);
            if checks {
                b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
            }
            let ten = b.mul(Type::I64, iter, Value::const_i64(10));
            let v = b.add(Type::I64, ten, j);
            b.store(Type::I64, v, slot);
            let j2 = b.add(Type::I64, j, Value::const_i64(1));
            b.add_phi_incoming(j_phi, bodyb, j2);
            b.br(header);
            b.switch_to(after);
            let idx = b.bin(
                privateer_ir::BinOp::SRem,
                Type::I64,
                iter,
                Value::const_i64(10),
            );
            let slot = b.gep(Value::Global(buf), idx, 8, 0);
            if checks {
                b.intrinsic(Intrinsic::PrivateRead, vec![slot, Value::const_i64(8)]);
            }
            let v = b.load(Type::I64, slot);
            b.print_i64(v);
        }

        // Reduction: acc += iter (plain accesses; the redux heap carries
        // them).
        let a = b.load(Type::I64, Value::Global(acc));
        let a2 = b.add(Type::I64, a, iter);
        b.store(Type::I64, a2, Value::Global(acc));
        b.ret(None);
        m.add_function(b.finish());
    }
    let body = m.func_by_name("body").unwrap();
    let recovery = m.func_by_name("recovery").unwrap();
    m.plans.push(PlanEntry { body, recovery });

    let mut b = FunctionBuilder::new("main", vec![], None);
    b.intrinsic(
        Intrinsic::ReduxRegister(ReduxOp::SumI64),
        vec![Value::Global(acc), Value::const_i64(8)],
    );
    b.intrinsic(
        Intrinsic::ParallelInvoke(0),
        vec![Value::const_i64(0), Value::const_i64(N)],
    );
    let a = b.load(Type::I64, Value::Global(acc));
    b.print_i64(a);
    let slot3 = b.gep(Value::Global(buf), Value::const_i64(3), 8, 0);
    let v = b.load(Type::I64, slot3);
    b.print_i64(v);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();
    m
}

fn run_sequential(m: &Module) -> Vec<u8> {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, SequentialPlanRuntime::new(&image));
    interp.run_main().unwrap();
    interp.rt.take_output()
}

fn run_parallel(m: &Module, cfg: EngineConfig) -> (Result<(), Trap>, Vec<u8>, MainRuntime) {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, MainRuntime::new(&image, cfg));
    let r = interp.run_main();
    let out = interp.rt.take_output();
    let Interp { rt, .. } = interp;
    (r, out, rt)
}

fn cfg(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        checkpoint_period: 16,
        inject_rate: 0.0,
        inject_seed: 7,
        ..EngineConfig::default()
    }
}

#[test]
fn parallel_output_matches_sequential() {
    let m = build_module(false);
    let seq = run_sequential(&m);
    assert!(
        seq.ends_with(b"4955\n993\n"),
        "sequential reference is sane"
    );
    for workers in [1, 2, 3, 4, 7] {
        let (r, out, rt) = run_parallel(&m, cfg(workers));
        r.unwrap();
        assert_eq!(
            out, seq,
            "output diverged at {workers} workers ({} misspecs)",
            rt.stats.misspecs
        );
        assert_eq!(rt.stats.misspecs, 0);
        assert_eq!(rt.stats.invocations, 1);
        assert!(rt.stats.checkpoints >= (N as u64) / 16);
        assert!(rt.stats.priv_write_bytes >= (N as u64) * 80);
    }
}

#[test]
fn injected_misspeculation_recovers_correctly() {
    let m = build_module(false);
    let seq = run_sequential(&m);
    for rate in [0.05, 0.2, 0.5] {
        let mut c = cfg(4);
        c.inject_rate = rate;
        let expected_hits = (0..N)
            .filter(|&i| privateer_runtime::worker::injected_at(rate, c.inject_seed, i))
            .count();
        let (r, out, rt) = run_parallel(&m, c);
        r.unwrap();
        assert_eq!(out, seq, "rate {rate} diverged");
        if expected_hits > 0 {
            assert!(rt.stats.misspecs > 0, "rate {rate} injected nothing");
            assert!(rt.stats.recovered_iters > 0);
        }
    }
}

#[test]
fn genuine_privacy_violation_detected_and_repaired() {
    let m = build_module(true);
    let seq = run_sequential(&m);
    // Sequential: buf[0] counts iterations; main prints acc = 5 + 4950 and
    // then buf[3], which the violating body never touches.
    assert!(
        seq.ends_with(b"4955\n0\n"),
        "{}",
        String::from_utf8_lossy(&seq)
    );
    let (r, out, rt) = run_parallel(&m, cfg(4));
    r.unwrap();
    assert_eq!(out, seq);
    // The dependence manifests constantly: speculation must have failed
    // and recovery must have done real work.
    assert!(rt.stats.misspecs > 0);
    assert!(rt.stats.recovered_iters > 0);
}

#[test]
fn figure5_timeline_on_injection() {
    let m = build_module(false);
    let mut c = cfg(3);
    c.inject_rate = 0.3; // dense enough that some iteration in 0..N hits
    let (r, _, rt) = run_parallel(&m, c);
    r.unwrap();
    let ev = &rt.events;
    // The log is stamped in emission order by the engine's telemetry
    // handle: sequence numbers strictly increase, timestamps never
    // regress.
    assert_stamps_ordered(ev);
    // The Figure 5 ordering properties, as happens-before assertions over
    // the stamped log (these used to be hand-rolled index arithmetic):
    assert_happens_before(
        ev,
        |e| matches!(e, EngineEvent::Invoke { lo: 0, hi: N }),
        |e| matches!(e, EngineEvent::InvokeDone),
        "invoke -> invoke-done",
    );
    assert_happens_before(
        ev,
        |e| matches!(e, EngineEvent::MisspecDetected { .. }),
        |e| matches!(e, EngineEvent::Recovery { .. }),
        "misspec detection -> recovery",
    );
    assert_happens_before(
        ev,
        |e| matches!(e, EngineEvent::Invoke { .. }),
        |e| matches!(e, EngineEvent::MisspecDetected { .. }),
        "invoke -> detection",
    );
    assert!(matches!(
        ev.last().map(|e| &e.event),
        Some(EngineEvent::InvokeDone)
    ));
    // Detection is emitted the moment the misspeculation is first
    // recorded — not when the workers finish draining — so commits of
    // *earlier* periods may still land between a detection and its
    // recovery, but nothing may commit at or past the detected iteration,
    // re-emission may only tighten the earliest-iteration bound, and every
    // detection is eventually covered by a recovery.
    let mut outstanding: Option<i64> = None;
    for e in ev {
        match e.event {
            EngineEvent::MisspecDetected { iter, .. } => {
                if let Some(prev) = outstanding {
                    assert!(
                        iter < prev,
                        "re-emitted detection {iter} does not tighten {prev}"
                    );
                }
                outstanding = Some(iter);
            }
            EngineEvent::Recovery { from, through } => {
                let iter = outstanding
                    .take()
                    .expect("recovery without a prior detection");
                assert!(from <= iter && iter <= through, "recovery misses {iter}");
            }
            EngineEvent::CheckpointCommitted { end, .. } => {
                if let Some(iter) = outstanding {
                    assert!(
                        end <= iter,
                        "period ending at {end} committed past detected {iter}"
                    );
                }
            }
            _ => {}
        }
    }
    assert!(outstanding.is_none(), "detection never recovered");
    // Committed checkpoints are in increasing period order.
    let periods: Vec<u64> = ev
        .iter()
        .filter_map(|e| match e.event {
            EngineEvent::CheckpointCommitted { period, .. } => Some(period),
            _ => None,
        })
        .collect();
    assert!(!periods.is_empty());
}

#[test]
fn merge_fault_bails_without_dropping_worker_stats() {
    // A non-misspeculation trap out of the phase-2 merge aborts the span,
    // but the collection loop must keep draining the channel: every
    // worker still owes its `Done` stats, and bailing out of the loop
    // early used to discard them (under-counting `iters_speculative`,
    // `body_ns` and the whole sim model).
    let m = build_module(false);
    let image = load_module(&m);
    let mut rt = MainRuntime::new(&image, cfg(4));
    rt.fail_merge_at(0, Trap::Internal("injected merge fault".into()));
    let mut interp = Interp::new(&m, &image, NopHooks, rt);
    let r = interp.run_main();
    let rt = interp.rt;
    match r {
        Err(Trap::Internal(msg)) => assert!(msg.contains("injected merge fault"), "{msg}"),
        other => panic!("expected the injected merge fault, got {other:?}"),
    }
    // All four workers contributed period 0 before the merge ran, so the
    // drained stats must reflect real speculative work.
    assert!(
        rt.stats.iters_speculative >= 4,
        "worker stats dropped on merge bail: {} speculative iters",
        rt.stats.iters_speculative
    );
    assert!(
        rt.stats.body_ns > 0,
        "worker body time dropped on merge bail"
    );
    assert!(rt.stats.priv_write_bytes > 0);
}

#[test]
fn shortlived_objects_and_lifetime_validation() {
    // Body allocates a short-lived node, uses it, frees it; one iteration
    // "leaks" (frees late) — lifetime misspeculation repaired by recovery.
    let mut m = Module::new("sl");
    let out_cell = m.add_global("out_cell", 8);
    m.global_mut(out_cell).heap = Some(Heap::Private);

    for (name, checks) in [("body", true), ("recovery", false)] {
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let iter = b.param(0);
        let p = b
            .intrinsic(
                Intrinsic::HAlloc(Heap::ShortLived),
                vec![Value::const_i64(16)],
            )
            .unwrap();
        if checks {
            b.intrinsic(Intrinsic::CheckHeap(Heap::ShortLived), vec![p]);
        }
        b.store(Type::I64, iter, p);
        let v = b.load(Type::I64, p);
        let v2 = b.mul(Type::I64, v, Value::const_i64(3));
        if checks {
            b.intrinsic(
                Intrinsic::PrivateWrite,
                vec![Value::Global(out_cell), Value::const_i64(8)],
            );
        }
        b.store(Type::I64, v2, Value::Global(out_cell));
        b.print_i64(v2);
        // Iteration 42 leaks in the speculative body only (simulating a
        // lifetime speculation that fails): skip the free.
        let is42 = b.icmp(CmpOp::Eq, iter, Value::const_i64(42));
        let leak = b.new_block();
        let dofree = b.new_block();
        let end = b.new_block();
        b.cond_br(is42, if checks { leak } else { dofree }, dofree);
        b.switch_to(leak);
        b.br(end);
        b.switch_to(dofree);
        b.intrinsic(Intrinsic::HFree(Heap::ShortLived), vec![p]);
        b.br(end);
        b.switch_to(end);
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
    let v = b.load(Type::I64, Value::Global(out_cell));
    b.print_i64(v);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();

    let seq = run_sequential(&m);
    let (r, out, rt) = run_parallel(&m, cfg(4));
    r.unwrap();
    assert_eq!(out, seq);
    assert!(rt.stats.misspecs >= 1, "the leak at iteration 42 must trip");
    assert!(rt
        .events
        .iter()
        .any(|e| matches!(e.event, EngineEvent::MisspecDetected { iter: 42, .. })));
}

#[test]
fn value_prediction_and_separation_checks_pass_in_engine() {
    // A body with a correct prediction and a heap check never misspeculates.
    let mut m = Module::new("vp");
    let cell = m.add_global("cell", 8);
    m.global_mut(cell).heap = Some(Heap::Private);

    for (name, checks) in [("body", true), ("recovery", false)] {
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let iter = b.param(0);
        if checks {
            // Re-materialize the predicted iteration-start value (0), then
            // validate at the end.
            b.intrinsic(
                Intrinsic::PrivateWrite,
                vec![Value::Global(cell), Value::const_i64(8)],
            );
            b.store(Type::I64, Value::const_i64(0), Value::Global(cell));
        }
        let c = b.load(Type::I64, Value::Global(cell));
        let sum = b.add(Type::I64, c, iter);
        if checks {
            b.intrinsic(
                Intrinsic::PrivateWrite,
                vec![Value::Global(cell), Value::const_i64(8)],
            );
        }
        b.store(Type::I64, sum, Value::Global(cell));
        b.print_i64(sum);
        // Restore the invariant: cell returns to 0 at iteration end.
        if checks {
            b.intrinsic(
                Intrinsic::PrivateWrite,
                vec![Value::Global(cell), Value::const_i64(8)],
            );
        }
        b.store(Type::I64, Value::const_i64(0), Value::Global(cell));
        if checks {
            let v = b.load(Type::I64, Value::Global(cell));
            let ok = b.icmp(CmpOp::Eq, v, Value::const_i64(0));
            b.intrinsic(Intrinsic::Predict, vec![ok]);
            b.intrinsic(
                Intrinsic::CheckHeap(Heap::Private),
                vec![Value::Global(cell)],
            );
        }
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

    let seq = run_sequential(&m);
    let (r, out, rt) = run_parallel(&m, cfg(4));
    r.unwrap();
    assert_eq!(out, seq);
    assert_eq!(rt.stats.misspecs, 0, "prediction holds; no misspeculation");
}

#[test]
fn multiple_invocations_reuse_heaps() {
    // Two back-to-back invocations (as in 052.alvinn's 200): state must
    // carry across and shadow metadata must reset between them.
    let m = build_module(false);
    let image = load_module(&m);
    let mut rtcfg = cfg(3);
    rtcfg.checkpoint_period = 8;
    let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, rtcfg));
    // Call main twice within one process image.
    interp.run_main().unwrap();
    interp.run_main().unwrap();
    let rt = interp.rt;
    assert_eq!(rt.stats.invocations, 2);
    assert_eq!(
        rt.stats.misspecs, 0,
        "second invocation must not see stale metadata"
    );
}
