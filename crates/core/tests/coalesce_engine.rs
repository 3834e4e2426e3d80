//! Coalesced privacy checks under the engine: a loop that reads live-in
//! bytes and then writes them (an accumulator) must still misspeculate
//! once its per-trip checks become range checks, and still recover to the
//! sequential output.

use privateer::transform::coalesce_privacy_checks;
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::verify::verify_module;
use privateer_ir::{CmpOp, Heap, Intrinsic, Module, PlanEntry, Type, Value};
use privateer_runtime::{EngineConfig, MainRuntime, SequentialPlanRuntime};
use privateer_vm::{load_module, Interp, NopHooks};

const CELLS: i64 = 6;
const ITERS: i64 = 24;

/// `parallel_invoke` over `0..ITERS` of `for j in 0..CELLS { cells[j] +=
/// iter }`, then print every cell. The body carries a `private_read`
/// and a `private_write` per trip; the recovery carries none.
fn accumulator() -> Module {
    let mut m = Module::new("accumulate");
    let cells = m.add_global("cells", (CELLS * 8) as u64);
    m.global_mut(cells).heap = Some(Heap::Private);
    for (name, checked) in [("body", true), ("recovery", false)] {
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let iter = b.param(0);
        let pre = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (j, phi) = b.phi(Type::I64);
        b.add_phi_incoming(phi, pre, Value::const_i64(0));
        let c = b.icmp(CmpOp::Lt, j, Value::const_i64(CELLS));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let slot = b.gep(Value::Global(cells), j, 8, 0);
        if checked {
            b.intrinsic(Intrinsic::PrivateRead, vec![slot, Value::const_i64(8)]);
        }
        let x = b.load(Type::I64, slot);
        let x1 = b.add(Type::I64, x, iter);
        if checked {
            b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
        }
        b.store(Type::I64, x1, slot);
        let next = b.add(Type::I64, j, Value::const_i64(1));
        let latch = b.current_block();
        b.add_phi_incoming(phi, latch, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        m.add_function(b.finish());
    }
    let body = m.func_by_name("body").unwrap();
    let recovery = m.func_by_name("recovery").unwrap();
    m.plans.push(PlanEntry { body, recovery });

    let mut b = FunctionBuilder::new("main", vec![], None);
    b.intrinsic(
        Intrinsic::ParallelInvoke(0),
        vec![Value::const_i64(0), Value::const_i64(ITERS)],
    );
    for j in 0..CELLS {
        let slot = b.gep_const(Value::Global(cells), j * 8);
        let v = b.load(Type::I64, slot);
        b.print_i64(v);
    }
    b.ret(None);
    m.add_function(b.finish());
    verify_module(&m).unwrap_or_else(|e| panic!("{e}"));
    m
}

fn sequential(m: &Module) -> Vec<u8> {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, SequentialPlanRuntime::new(&image));
    interp.run_main().unwrap();
    interp.rt.take_output()
}

/// Output, misspeculations and recovered iterations of one engine run.
fn engine(m: &Module, workers: usize) -> (Vec<u8>, u64, u64) {
    let image = load_module(m);
    let cfg = EngineConfig {
        workers,
        checkpoint_period: 4,
        ..EngineConfig::default()
    };
    let mut interp = Interp::new(m, &image, NopHooks, MainRuntime::new(&image, cfg));
    interp.run_main().unwrap();
    let s = interp.rt.stats;
    (interp.rt.take_output(), s.misspecs, s.recovered_iters)
}

#[test]
fn read_then_write_of_live_in_still_misspeculates_when_coalesced() {
    let per_access = accumulator();
    let mut coalesced = per_access.clone();
    let body = coalesced.plans[0].body;
    assert_eq!(coalesce_privacy_checks(&mut coalesced, [body]), 2);
    verify_module(&coalesced).unwrap_or_else(|e| panic!("{e}"));

    let expected = sequential(&per_access);
    for workers in [1, 3] {
        let (out, misspecs, recovered) = engine(&coalesced, workers);
        assert_eq!(out, expected, "{workers} workers: output");
        assert!(
            misspecs > 0,
            "{workers} workers: the accumulator must misspeculate"
        );
        assert!(recovered > 0, "{workers} workers: and recover");
    }
    // One worker is deterministic: both check placements misspeculate at
    // the same iterations.
    let (_, m_per, r_per) = engine(&per_access, 1);
    let (_, m_co, r_co) = engine(&coalesced, 1);
    assert_eq!((m_co, r_co), (m_per, r_per));
}
