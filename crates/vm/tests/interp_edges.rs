//! Interpreter edge cases: integer width semantics, float comparisons with
//! NaN, casts, string output, and context tracking across calls and loops.

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{BinOp, CastOp, CmpOp, GlobalInit, Module, Type, Value};
use privateer_vm::hooks::{ExecCtx, Hooks};
use privateer_vm::{load_module, AddressSpace, BasicRuntime, Interp, NopHooks};

fn run(m: &Module) -> Vec<u8> {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, BasicRuntime::strict());
    interp.run_main().unwrap();
    interp.rt.take_output()
}

#[test]
fn logical_shift_respects_width() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], None);
    // i32 logical shift right of a negative value must not smear the i64
    // sign extension: (-2 as u32) >> 1 = 0x7FFFFFFF.
    let v = b.bin(
        BinOp::LShr,
        Type::I32,
        Value::const_i32(-2),
        Value::const_i32(1),
    );
    b.print_i64(v);
    // Arithmetic shift keeps the sign.
    let a = b.bin(
        BinOp::AShr,
        Type::I32,
        Value::const_i32(-8),
        Value::const_i32(2),
    );
    b.print_i64(a);
    // i64 logical shift of a negative value.
    let w = b.bin(
        BinOp::LShr,
        Type::I64,
        Value::const_i64(-1),
        Value::const_i64(60),
    );
    b.print_i64(w);
    b.ret(None);
    m.add_function(b.finish());
    assert_eq!(run(&m), b"2147483647\n-2\n15\n");
}

#[test]
fn fcmp_nan_is_unordered() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], None);
    let nan = Value::const_f64(f64::NAN);
    let one = Value::const_f64(1.0);
    for (op, want) in [
        (CmpOp::Eq, 0),
        (CmpOp::Lt, 0),
        (CmpOp::Ge, 0),
        (CmpOp::Ne, 1), // the only predicate true of unordered operands
    ] {
        let c = b.fcmp(op, nan, one);
        let z = b.select(Type::I64, c, Value::const_i64(1), Value::const_i64(0));
        b.print_i64(z);
        let _ = want;
    }
    b.ret(None);
    m.add_function(b.finish());
    assert_eq!(run(&m), b"0\n0\n0\n1\n");
}

#[test]
fn casts_round_trip() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], None);
    // zext of an i8 -1 -> 255.
    let x = b.zext(Value::const_i8(-1), Type::I64);
    b.print_i64(x);
    // trunc 0x1FF to i8 (sign-extended register convention) -> -1.
    let t = b.trunc(Value::const_i64(0x1FF), Type::I8);
    b.print_i64(t);
    // fptosi saturates toward zero.
    let f = b.fptosi(Value::const_f64(-3.99), Type::I64);
    b.print_i64(f);
    // bitcast f64 <-> i64 is exact.
    let bits = b.cast(CastOp::Bitcast, Value::const_f64(2.5), Type::I64);
    let back = b.cast(CastOp::Bitcast, bits, Type::F64);
    b.print_f64(back);
    // ptrtoint/inttoptr round-trips an address.
    let p = b.malloc(Value::const_i64(8));
    let pi = b.cast(CastOp::PtrToInt, p, Type::I64);
    let p2 = b.cast(CastOp::IntToPtr, pi, Type::Ptr);
    b.store(Type::I64, Value::const_i64(77), p2);
    let v = b.load(Type::I64, p);
    b.print_i64(v);
    b.ret(None);
    m.add_function(b.finish());
    assert_eq!(run(&m), b"255\n-1\n-3\n2.500000\n77\n");
}

#[test]
fn print_str_reads_memory() {
    let mut m = Module::new("t");
    let g = m.add_global_init("msg", 14, GlobalInit::Bytes(b"hello, world!\n".to_vec()));
    let mut b = FunctionBuilder::new("main", vec![], None);
    b.print_str(Value::Global(g), Value::const_i64(14));
    b.ret(None);
    m.add_function(b.finish());
    assert_eq!(run(&m), b"hello, world!\n");
}

#[test]
fn srem_and_sdiv_signs() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], None);
    for (x, y) in [(7i64, 3i64), (-7, 3), (7, -3), (-7, -3)] {
        let q = b.bin(
            BinOp::SDiv,
            Type::I64,
            Value::const_i64(x),
            Value::const_i64(y),
        );
        let r = b.bin(
            BinOp::SRem,
            Type::I64,
            Value::const_i64(x),
            Value::const_i64(y),
        );
        b.print_i64(q);
        b.print_i64(r);
    }
    b.ret(None);
    m.add_function(b.finish());
    // Rust/C truncated division semantics.
    assert_eq!(run(&m), b"2\n1\n-2\n-1\n-2\n1\n2\n-1\n");
}

/// Loop/call context bookkeeping: a hook observing loop events sees
/// balanced enter/exit nesting even when functions return from inside
/// loops, and invocation counts increase per entry.
#[derive(Default)]
struct NestingCheck {
    depth: i64,
    max_depth: i64,
    enters: u64,
    exits: u64,
    iters: u64,
}

impl Hooks for NestingCheck {
    fn on_loop_enter(
        &mut self,
        _: &ExecCtx,
        _: privateer_ir::FuncId,
        _: privateer_ir::loops::LoopId,
    ) {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.enters += 1;
    }
    fn on_loop_exit(
        &mut self,
        _: &ExecCtx,
        _: privateer_ir::FuncId,
        _: privateer_ir::loops::LoopId,
        _: u64,
    ) {
        self.depth -= 1;
        assert!(self.depth >= 0, "loop exit without enter");
        self.exits += 1;
    }
    fn on_loop_iter(
        &mut self,
        _: &ExecCtx,
        _: privateer_ir::FuncId,
        _: privateer_ir::loops::LoopId,
        _: u64,
        _: &AddressSpace,
    ) {
        self.iters += 1;
    }
}

#[test]
fn loop_events_balance_across_early_returns() {
    let mut m = Module::new("t");
    // leaf(n): loops n times, RETURNS FROM INSIDE the loop when i == 2.
    let leaf_id = privateer_ir::FuncId::new(0);
    {
        let mut b = FunctionBuilder::new("leaf", vec![Type::I64], Some(Type::I64));
        let n = b.param(0);
        let pre = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let early = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (i, phi) = b.phi(Type::I64);
        b.add_phi_incoming(phi, pre, Value::const_i64(0));
        let c = b.icmp(CmpOp::Lt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let is2 = b.icmp(CmpOp::Eq, i, Value::const_i64(2));
        let cont = b.new_block();
        b.cond_br(is2, early, cont);
        b.switch_to(early);
        b.ret(Some(Value::const_i64(-1)));
        b.switch_to(cont);
        let i2 = b.add(Type::I64, i, Value::const_i64(1));
        b.add_phi_incoming(phi, cont, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(i));
        m.add_function(b.finish());
    }
    {
        let mut b = FunctionBuilder::new("main", vec![], None);
        // Call leaf 3 times: n=1 (normal exit), n=5 (early return), n=0.
        for n in [1i64, 5, 0] {
            let r = b
                .call(leaf_id, vec![Value::const_i64(n)], Some(Type::I64))
                .unwrap();
            b.print_i64(r);
        }
        b.ret(None);
        m.add_function(b.finish());
    }
    let image = load_module(&m);
    let mut interp = Interp::new(&m, &image, NestingCheck::default(), BasicRuntime::strict());
    interp.run_main().unwrap();
    assert_eq!(interp.rt.take_output(), b"1\n-1\n0\n");
    let h = &interp.hooks;
    assert_eq!(h.depth, 0, "unbalanced loop events");
    assert_eq!(h.enters, h.exits);
    assert_eq!(h.enters, 3, "the loop was entered once per call");
    assert_eq!(h.max_depth, 1);
    // Iterations: n=1 -> 2 header visits; n=5 -> 3 (0,1,2-early);
    // n=0 -> 1.
    assert_eq!(h.iters, 2 + 3 + 1);
}

/// `main` calls `leaf`; each function's entry block stores to a global
/// around its call or fault, so the counters show how far it got.
/// `leaf` stores twice, then loads through null, then would store again.
fn faulting_call_module() -> Module {
    let mut m = Module::new("t");
    let g = m.add_global_init("g", 16, GlobalInit::Zero);
    let leaf_id = privateer_ir::FuncId::new(0);
    let mut f = FunctionBuilder::new("leaf", vec![], None);
    f.store(Type::I64, Value::const_i64(1), Value::Global(g));
    f.store(Type::I64, Value::const_i64(2), Value::Global(g));
    let v = f.load(Type::I64, Value::Null);
    f.store(Type::I64, v, Value::Global(g));
    f.ret(None);
    m.add_function(f.finish());
    let mut b = FunctionBuilder::new("main", vec![], None);
    let x = b.add(Type::I64, Value::const_i64(3), Value::const_i64(4));
    b.store(Type::I64, x, Value::Global(g));
    b.call(leaf_id, vec![], None);
    b.store(Type::I64, x, Value::Global(g));
    b.print_i64(x);
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn mid_block_trap_counts_up_to_the_trapping_instruction() {
    let m = faulting_call_module();
    let image = load_module(&m);
    let mut interp = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
    let r = interp.run_main();
    assert!(
        matches!(r, Err(privateer_vm::Trap::NullDeref { .. })),
        "{r:?}"
    );
    // main: add, store, call (3); leaf: store, store, the faulting load
    // (3). The instructions after the fault in both blocks do not count.
    assert_eq!(interp.stats.insts, 6);
    assert_eq!(interp.stats.stores, 3);
    assert_eq!(interp.stats.loads, 0, "the faulting load never read");
    assert!(interp.rt.output_bytes().is_empty());
}

#[test]
fn step_limit_mid_block_traps_after_exactly_n_instructions() {
    let m = faulting_call_module();
    let image = load_module(&m);
    // Limits landing inside main's block, on the call, and inside leaf's.
    for (limit, stores) in [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 3)] {
        let mut interp = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
        interp.set_step_limit(limit);
        assert_eq!(
            interp.run_main(),
            Err(privateer_vm::Trap::StepLimit),
            "limit {limit}"
        );
        // The refused instruction is counted, as it always was: the
        // limit trips on the count reaching `limit + 1`.
        assert_eq!(interp.stats.insts, limit + 1, "limit {limit}");
        assert_eq!(interp.stats.stores, stores, "limit {limit}");
        assert_eq!(interp.stats.loads, 0, "limit {limit}");
    }
    // At six, leaf's faulting load runs (and traps) before the limit.
    let mut interp = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
    interp.set_step_limit(6);
    assert!(matches!(
        interp.run_main(),
        Err(privateer_vm::Trap::NullDeref { .. })
    ));
    assert_eq!(interp.stats.insts, 6);
}
