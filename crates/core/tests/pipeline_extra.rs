//! Additional pipeline scenarios: multiple compatible hot loops in one
//! program, min/max reductions, zero-trip loops, and rejection paths.

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{BinOp, CmpOp, GlobalInit, Heap, Module, Type, Value};
use privateer_runtime::{EngineConfig, MainRuntime, SequentialPlanRuntime};
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks};

/// Two independent hot loops, back to back, each reusing its own scratch
/// buffer: both must be selected into separate plans and both must
/// parallelize.
#[test]
fn two_compatible_hot_loops_both_selected() {
    let mut m = Module::new("two-loops");
    let buf_a = m.add_global("buf_a", 64);
    let buf_b = m.add_global("buf_b", 64);
    let mut b = FunctionBuilder::new("main", vec![], None);

    let emit_loop = |b: &mut FunctionBuilder, buf, n: i64, scale: i64| {
        let pre = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (i, phi) = b.phi(Type::I64);
        b.add_phi_incoming(phi, pre, Value::const_i64(0));
        let c = b.icmp(CmpOp::Lt, i, Value::const_i64(n));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        // Kill-then-use the scratch buffer.
        let mut j = 0i64;
        while j < 8 {
            let slot = b.gep(Value::Global(buf), Value::const_i64(j), 8, 0);
            let v = b.mul(Type::I64, i, Value::const_i64(scale + j));
            b.store(Type::I64, v, slot);
            j += 1;
        }
        let idx = b.bin(BinOp::SRem, Type::I64, i, Value::const_i64(8));
        let slot = b.gep(Value::Global(buf), idx, 8, 0);
        let v = b.load(Type::I64, slot);
        b.print_i64(v);
        let i2 = b.add(Type::I64, i, Value::const_i64(1));
        let latch = b.current_block();
        b.add_phi_incoming(phi, latch, i2);
        b.br(header);
        b.switch_to(exit);
    };
    emit_loop(&mut b, buf_a, 40, 3);
    emit_loop(&mut b, buf_b, 40, 11);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();

    // Sequential reference.
    let image = load_module(&m);
    let mut seq = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
    seq.run_main().unwrap();
    let expected = seq.rt.take_output();

    // Lower the hotness bar so both (equally hot) loops qualify.
    let cfg = PipelineConfig {
        hot_weight_frac: 0.01,
        ..PipelineConfig::default()
    };
    let result = privatize(&m, &cfg).unwrap();
    assert_eq!(
        result.reports.len(),
        2,
        "both loops selected: {:?}",
        result.rejected
    );
    assert_eq!(result.module.plans.len(), 2);

    let image = load_module(&result.module);
    for workers in [1, 3] {
        let ecfg = EngineConfig {
            workers,
            checkpoint_period: 8,
            inject_rate: 0.0,
            inject_seed: 0,
        };
        let mut interp = Interp::new(
            &result.module,
            &image,
            NopHooks,
            MainRuntime::new(&image, ecfg),
        );
        interp.run_main().unwrap();
        assert_eq!(interp.rt.take_output(), expected);
        assert_eq!(interp.rt.stats.invocations, 2);
        assert_eq!(interp.rt.stats.misspecs, 0);
    }
}

/// Min and max reductions via the explicit runtime interface: the engine
/// expands to ±infinity identities and merges correctly.
#[test]
fn min_max_reductions_merge_correctly() {
    use privateer_ir::{Intrinsic, PlanEntry, ReduxOp};
    let mut m = Module::new("minmax");
    let lo = m.add_global_init("lo_cell", 8, GlobalInit::I64s(vec![i64::MAX]));
    let hi = m.add_global_init("hi_cell", 8, GlobalInit::I64s(vec![i64::MIN]));

    for name in ["body", "recovery"] {
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let iter = b.param(0);
        // A value that is non-monotonic in the iteration index.
        let x = b.bin(BinOp::Xor, Type::I64, iter, Value::const_i64(0x2B));
        let l = b.load(Type::I64, Value::Global(lo));
        let cl = b.icmp(CmpOp::Lt, x, l);
        let l2 = b.select(Type::I64, cl, x, l);
        b.store(Type::I64, l2, Value::Global(lo));
        let h = b.load(Type::I64, Value::Global(hi));
        let ch = b.icmp(CmpOp::Gt, x, h);
        let h2 = b.select(Type::I64, ch, x, h);
        b.store(Type::I64, h2, Value::Global(hi));
        b.ret(None);
        m.add_function(b.finish());
    }
    let body = m.func_by_name("body").unwrap();
    let recovery = m.func_by_name("recovery").unwrap();
    m.plans.push(PlanEntry { body, recovery });

    let mut b = FunctionBuilder::new("main", vec![], None);
    b.intrinsic(
        Intrinsic::ReduxRegister(ReduxOp::MinI64),
        vec![Value::Global(lo), Value::const_i64(8)],
    );
    b.intrinsic(
        Intrinsic::ReduxRegister(ReduxOp::MaxI64),
        vec![Value::Global(hi), Value::const_i64(8)],
    );
    b.intrinsic(
        Intrinsic::ParallelInvoke(0),
        vec![Value::const_i64(0), Value::const_i64(100)],
    );
    let l = b.load(Type::I64, Value::Global(lo));
    b.print_i64(l);
    let h = b.load(Type::I64, Value::Global(hi));
    b.print_i64(h);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();

    let image = load_module(&m);
    let mut seq = Interp::new(&m, &image, NopHooks, SequentialPlanRuntime::new(&image));
    seq.run_main().unwrap();
    let expected = seq.rt.take_output();
    // Oracle: min/max of i^0x2B over 0..100.
    let vals: Vec<i64> = (0..100i64).map(|i| i ^ 0x2B).collect();
    let want = format!(
        "{}\n{}\n",
        vals.iter().min().unwrap(),
        vals.iter().max().unwrap()
    );
    assert_eq!(String::from_utf8_lossy(&expected), want);

    for workers in [2, 5] {
        let cfg = EngineConfig {
            workers,
            checkpoint_period: 7,
            inject_rate: 0.0,
            inject_seed: 0,
        };
        let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg));
        interp.run_main().unwrap();
        assert_eq!(interp.rt.take_output(), expected, "workers {workers}");
    }
}

/// A hot loop whose bounds make it zero-trip at runtime: the pipeline may
/// or may not select it, but execution must be unaffected.
#[test]
fn zero_trip_parallel_region() {
    let mut m = Module::new("zt");
    let buf = m.add_global("buf", 32);
    m.global_mut(buf).heap = Some(Heap::Private);
    use privateer_ir::{Intrinsic, PlanEntry};
    for name in ["body", "recovery"] {
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        b.intrinsic(
            Intrinsic::PrivateWrite,
            vec![Value::Global(buf), Value::const_i64(8)],
        );
        b.store(Type::I64, b.param(0), Value::Global(buf));
        b.ret(None);
        m.add_function(b.finish());
    }
    let body = m.func_by_name("body").unwrap();
    let recovery = m.func_by_name("recovery").unwrap();
    m.plans.push(PlanEntry { body, recovery });
    let mut b = FunctionBuilder::new("main", vec![], None);
    b.intrinsic(
        Intrinsic::ParallelInvoke(0),
        vec![Value::const_i64(5), Value::const_i64(5)],
    );
    let v = b.load(Type::I64, Value::Global(buf));
    b.print_i64(v);
    b.ret(None);
    m.add_function(b.finish());

    let image = load_module(&m);
    let mut interp = Interp::new(
        &m,
        &image,
        NopHooks,
        MainRuntime::new(
            &image,
            EngineConfig {
                workers: 3,
                ..EngineConfig::default()
            },
        ),
    );
    interp.run_main().unwrap();
    assert_eq!(interp.rt.take_output(), b"0\n");
    assert_eq!(
        interp.rt.stats.invocations, 0,
        "zero-trip region never invokes"
    );
}

/// Rejection diagnostics name the obstruction.
#[test]
fn rejection_reasons_are_reported() {
    // A loop with a genuine, unpredictable cross-iteration dependence.
    let mut m = Module::new("rej");
    let cell = m.add_global("cell", 8);
    let mut b = FunctionBuilder::new("main", vec![], None);
    let pre = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let (i, phi) = b.phi(Type::I64);
    b.add_phi_incoming(phi, pre, Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, i, Value::const_i64(50));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    // cell = cell * 3 + i  (accumulates; boundary values differ each
    // iteration so value prediction cannot rescue it; the *3 breaks the
    // reduction pattern).
    let v = b.load(Type::I64, Value::Global(cell));
    let t = b.mul(Type::I64, v, Value::const_i64(3));
    let t2 = b.add(Type::I64, t, i);
    b.store(Type::I64, t2, Value::Global(cell));
    let i2 = b.add(Type::I64, i, Value::const_i64(1));
    b.add_phi_incoming(phi, body, i2);
    b.br(header);
    b.switch_to(exit);
    let v = b.load(Type::I64, Value::Global(cell));
    b.print_i64(v);
    b.ret(None);
    m.add_function(b.finish());

    let result = privatize(&m, &PipelineConfig::default()).unwrap();
    assert!(result.reports.is_empty());
    assert!(
        result
            .rejected
            .iter()
            .any(|(_, why)| why.contains("not stable") || why.contains("flow dependences")),
        "{:?}",
        result.rejected
    );
    // And the untouched program still runs.
    let image = load_module(&result.module);
    let mut interp = Interp::new(&result.module, &image, NopHooks, BasicRuntime::strict());
    interp.run_main().unwrap();
}

/// Fully automatic min/max reduction: the classifier recognizes the
/// select-based update, assigns the cells to the reduction heap, and the
/// engine merges with the right identities.
#[test]
fn automatic_min_max_reduction_pipeline() {
    let mut m = Module::new("autominmax");
    let lo = m.add_global_init("lo_cell", 8, GlobalInit::I64s(vec![i64::MAX]));
    let hi = m.add_global_init("hi_cell", 8, GlobalInit::I64s(vec![i64::MIN]));
    let mut b = FunctionBuilder::new("main", vec![], None);
    let pre = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let (i, phi) = b.phi(Type::I64);
    b.add_phi_incoming(phi, pre, Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, i, Value::const_i64(120));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let x = b.bin(BinOp::Xor, Type::I64, i, Value::const_i64(0x55));
    let l = b.load(Type::I64, Value::Global(lo));
    let cl = b.icmp(CmpOp::Lt, x, l);
    let l2 = b.select(Type::I64, cl, x, l);
    b.store(Type::I64, l2, Value::Global(lo));
    let h = b.load(Type::I64, Value::Global(hi));
    let ch = b.icmp(CmpOp::Gt, x, h);
    let h2 = b.select(Type::I64, ch, x, h);
    b.store(Type::I64, h2, Value::Global(hi));
    let i2 = b.add(Type::I64, i, Value::const_i64(1));
    b.add_phi_incoming(phi, body, i2);
    b.br(header);
    b.switch_to(exit);
    let l = b.load(Type::I64, Value::Global(lo));
    b.print_i64(l);
    let h = b.load(Type::I64, Value::Global(hi));
    b.print_i64(h);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();

    let image = load_module(&m);
    let mut seq = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
    seq.run_main().unwrap();
    let expected = seq.rt.take_output();

    let result = privatize(&m, &PipelineConfig::default()).unwrap();
    assert_eq!(result.reports.len(), 1, "{:?}", result.rejected);
    assert_eq!(
        result.reports[0].heap_counts[2], 2,
        "both cells are reductions"
    );

    let image = load_module(&result.module);
    for workers in [2, 4] {
        let cfg = EngineConfig {
            workers,
            checkpoint_period: 9,
            inject_rate: 0.0,
            inject_seed: 0,
        };
        let mut interp = Interp::new(
            &result.module,
            &image,
            NopHooks,
            MainRuntime::new(&image, cfg),
        );
        interp.run_main().unwrap();
        assert_eq!(interp.rt.take_output(), expected, "workers {workers}");
        assert_eq!(interp.rt.stats.misspecs, 0);
    }
}
