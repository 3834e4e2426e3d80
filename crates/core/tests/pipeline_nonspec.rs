//! Non-speculative execution of transformed programs on inputs other than
//! the profiled one.
//!
//! Code outside a parallel region and sequential recovery run
//! non-speculatively (§5.3): a speculation check there has nothing to roll
//! back, so the transformed program must print exactly what the original
//! prints — under `SequentialPlanRuntime` and under the engine at any
//! worker count.

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::printer::print_function;
use privateer_ir::{BinOp, CmpOp, GlobalInit, Module, Type, Value};
use privateer_runtime::{EngineConfig, MainRuntime, SequentialPlanRuntime};
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks};

/// Set the `i64` global `sel` of `m` to `v`.
fn set_sel(m: &mut Module, v: i64) {
    let sel = m.global_by_name("sel").expect("`sel` global");
    m.global_mut(sel).init = GlobalInit::I64s(vec![v]);
}

/// Output of the untransformed program.
fn original_output(m: &Module) -> Vec<u8> {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, BasicRuntime::strict());
    interp.run_main().expect("original program runs");
    interp.rt.take_output()
}

/// Run the transformed program sequentially and on the engine at 1 and 2
/// workers; each must print `expected` and finish without a trap.
fn assert_matches_original(transformed: &Module, expected: &[u8]) {
    let image = load_module(transformed);
    let mut seq = Interp::new(
        transformed,
        &image,
        NopHooks,
        SequentialPlanRuntime::new(&image),
    );
    let r = seq.run_main();
    assert_eq!(r, Ok(()), "SequentialPlanRuntime");
    assert_eq!(seq.rt.take_output(), expected, "SequentialPlanRuntime");
    for workers in [1, 2] {
        let cfg = EngineConfig {
            workers,
            checkpoint_period: 8,
            ..EngineConfig::default()
        };
        let mut par = Interp::new(transformed, &image, NopHooks, MainRuntime::new(&image, cfg));
        let r = par.run_main();
        assert_eq!(r, Ok(()), "MainRuntime at {workers} worker(s)");
        assert_eq!(
            par.rt.take_output(),
            expected,
            "MainRuntime at {workers} worker(s)"
        );
    }
}

/// Emit `for i in 0..n { body(b, i) }` at the builder's current block and
/// leave the builder in the loop exit.
fn emit_loop(b: &mut FunctionBuilder, n: i64, body: impl FnOnce(&mut FunctionBuilder, Value)) {
    let pre = b.current_block();
    let header = b.new_block();
    let body_bb = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let (i, phi) = b.phi(Type::I64);
    b.add_phi_incoming(phi, pre, Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, i, Value::const_i64(n));
    b.cond_br(c, body_bb, exit);
    b.switch_to(body_bb);
    body(b, i);
    let i2 = b.add(Type::I64, i, Value::const_i64(1));
    let latch = b.current_block();
    b.add_phi_incoming(phi, latch, i2);
    b.br(header);
    b.switch_to(exit);
}

/// A callee shared by the hot loop and sequential code: the separation
/// check the transformation puts in `touch` must not fire outside the
/// parallel region when `touch` later sees a pointer the profile never
/// saw.
#[test]
fn separation_check_is_inert_in_sequential_code() {
    let mut m = Module::new("separation");
    let buf = m.add_global("buf", 8);
    let other = m.add_global("other", 8);
    m.add_global_init("sel", 8, GlobalInit::I64s(vec![0]));
    let sel = m.global_by_name("sel").unwrap();

    let mut b = FunctionBuilder::new("touch", vec![Type::Ptr, Type::I64], None);
    let (p, v) = (b.param(0), b.param(1));
    b.store(Type::I64, v, p);
    b.ret(None);
    let touch = m.add_function(b.finish());

    let mut b = FunctionBuilder::new("main", vec![], None);
    emit_loop(&mut b, 200, |b, i| {
        let v = b.mul(Type::I64, i, Value::const_i64(3));
        b.call(touch, vec![Value::Global(buf), v], None);
    });
    let last = b.load(Type::I64, Value::Global(buf));
    b.print_i64(last);
    let s = b.load(Type::I64, Value::Global(sel));
    let c = b.icmp(CmpOp::Eq, s, Value::const_i64(1));
    let fresh = b.malloc(Value::const_i64(8));
    let p = b.select(Type::Ptr, c, fresh, Value::Global(other));
    b.call(touch, vec![p, Value::const_i64(7)], None);
    let v = b.load(Type::I64, p);
    b.print_i64(v);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();

    let result = privatize(&m, &PipelineConfig::default()).unwrap();
    assert_eq!(result.reports.len(), 1, "rejected: {:?}", result.rejected);
    let touched = result.module.func_by_name("touch").unwrap();
    let text = print_function(&result.module, result.module.func(touched));
    assert!(text.contains("check_heap.priv"), "{text}");

    let mut transformed = result.module;
    set_sel(&mut transformed, 1);
    set_sel(&mut m, 1);
    let expected = original_output(&m);
    assert_eq!(expected, b"597\n7\n");
    assert_matches_original(&transformed, &expected);
}

/// How the cold block of [`clobber_program`] obtains its scratch object.
#[derive(Clone, Copy)]
enum Scratch {
    Alloca,
    Malloc,
}

/// `main` keeps an object alive across a hot loop whose body writes `buf`;
/// at iteration 100, and only when `sel == 1`, the body allocates a
/// scratch object of its own, stores 5 in it and prints it. The profile
/// runs with `sel == 0`, so control speculation turns that block into
/// `misspec()` and only sequential recovery ever allocates there.
fn clobber_program(scratch: Scratch) -> Module {
    let mut m = Module::new("clobber");
    let buf = m.add_global("buf", 8);
    m.add_global_init("sel", 8, GlobalInit::I64s(vec![0]));
    let sel = m.global_by_name("sel").unwrap();
    let alloc = |b: &mut FunctionBuilder, name: &str| match scratch {
        Scratch::Alloca => b.alloca(8, name),
        Scratch::Malloc => b.malloc(Value::const_i64(8)),
    };

    let mut b = FunctionBuilder::new("main", vec![], None);
    let keep = alloc(&mut b, "keep");
    b.store(Type::I64, Value::const_i64(42), keep);
    emit_loop(&mut b, 200, |b, i| {
        let v = b.mul(Type::I64, i, Value::const_i64(3));
        b.store(Type::I64, v, Value::Global(buf));
        let at = b.icmp(CmpOp::Eq, i, Value::const_i64(100));
        let s = b.load(Type::I64, Value::Global(sel));
        let on = b.icmp(CmpOp::Eq, s, Value::const_i64(1));
        let both = b.bin(BinOp::And, Type::I1, at, on);
        let cold = b.new_block();
        let join = b.new_block();
        b.cond_br(both, cold, join);
        b.switch_to(cold);
        let tmp = alloc(b, "tmp");
        b.store(Type::I64, Value::const_i64(5), tmp);
        let t = b.load(Type::I64, tmp);
        b.print_i64(t);
        b.br(join);
        b.switch_to(join);
    });
    let last = b.load(Type::I64, Value::Global(buf));
    b.print_i64(last);
    let kept = b.load(Type::I64, keep);
    b.print_i64(kept);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();
    m
}

/// Recovery allocates in a nested interpreter; it must continue from the
/// caller's stack and `malloc` state, not hand out the caller's live
/// objects a second time.
fn assert_recovery_keeps_callers_objects(scratch: Scratch) {
    let mut m = clobber_program(scratch);
    let result = privatize(&m, &PipelineConfig::default()).unwrap();
    assert_eq!(result.reports.len(), 1, "rejected: {:?}", result.rejected);
    let mut transformed = result.module;
    set_sel(&mut transformed, 1);
    set_sel(&mut m, 1);
    let expected = original_output(&m);
    assert_eq!(expected, b"5\n597\n42\n");
    assert_matches_original(&transformed, &expected);
}

#[test]
fn recovery_alloca_keeps_callers_stack_object() {
    assert_recovery_keeps_callers_objects(Scratch::Alloca);
}

#[test]
fn recovery_malloc_keeps_callers_heap_object() {
    assert_recovery_keeps_callers_objects(Scratch::Malloc);
}
