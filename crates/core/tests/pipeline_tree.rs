//! The paper's title claim covers *recursive* data structures. This test
//! builds a kernel whose every iteration constructs a binary tree through
//! a **recursive** function, folds it, and frees it recursively — the
//! nodes must classify as short-lived, the recursive callees must receive
//! checks, and parallel execution must be exact.

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{CmpOp, FuncId, Module, Type, Value};
use privateer_runtime::{EngineConfig, MainRuntime};
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks};

/// Node layout: { value: i64, left: ptr, right: ptr }.
const VAL: i64 = 0;
const LEFT: i64 = 8;
const RIGHT: i64 = 16;

/// fn build(depth, salt) -> ptr  — recursive tree construction.
/// fn fold(node) -> i64          — recursive sum.
/// fn drop_tree(node)            — recursive free.
/// main: for i in 0..N { t = build(3, i); print(fold(t)); drop_tree(t) }
fn tree_module(n: i64) -> Module {
    let mut m = Module::new("tree");
    let build_id = FuncId::new(0);
    let fold_id = FuncId::new(1);
    let drop_id = FuncId::new(2);

    // build(depth, salt)
    {
        let mut b = FunctionBuilder::new("build", vec![Type::I64, Type::I64], Some(Type::Ptr));
        let depth = b.param(0);
        let salt = b.param(1);
        let node = b.malloc(Value::const_i64(24));
        let vslot = b.gep_const(node, VAL);
        let v = b.add(Type::I64, depth, salt);
        b.store(Type::I64, v, vslot);
        let leaf = b.icmp(CmpOp::Le, depth, Value::const_i64(0));
        let leaf_bb = b.new_block();
        let rec_bb = b.new_block();
        b.cond_br(leaf, leaf_bb, rec_bb);
        b.switch_to(leaf_bb);
        let lslot = b.gep_const(node, LEFT);
        b.store(Type::Ptr, Value::Null, lslot);
        let rslot = b.gep_const(node, RIGHT);
        b.store(Type::Ptr, Value::Null, rslot);
        b.ret(Some(node));
        b.switch_to(rec_bb);
        let d2 = b.sub(Type::I64, depth, Value::const_i64(1));
        let s2 = b.mul(Type::I64, salt, Value::const_i64(3));
        let l = b.call(build_id, vec![d2, s2], Some(Type::Ptr)).unwrap();
        let s3 = b.add(Type::I64, s2, Value::const_i64(1));
        let r = b.call(build_id, vec![d2, s3], Some(Type::Ptr)).unwrap();
        let lslot = b.gep_const(node, LEFT);
        b.store(Type::Ptr, l, lslot);
        let rslot = b.gep_const(node, RIGHT);
        b.store(Type::Ptr, r, rslot);
        b.ret(Some(node));
        m.add_function(b.finish());
    }
    // fold(node)
    {
        let mut b = FunctionBuilder::new("fold", vec![Type::Ptr], Some(Type::I64));
        let node = b.param(0);
        let is_null = b.icmp(CmpOp::Eq, node, Value::Null);
        let null_bb = b.new_block();
        let rec_bb = b.new_block();
        b.cond_br(is_null, null_bb, rec_bb);
        b.switch_to(null_bb);
        b.ret(Some(Value::const_i64(0)));
        b.switch_to(rec_bb);
        let vslot = b.gep_const(node, VAL);
        let v = b.load(Type::I64, vslot);
        let lslot = b.gep_const(node, LEFT);
        let l = b.load(Type::Ptr, lslot);
        let ls = b.call(fold_id, vec![l], Some(Type::I64)).unwrap();
        let rslot = b.gep_const(node, RIGHT);
        let r = b.load(Type::Ptr, rslot);
        let rs = b.call(fold_id, vec![r], Some(Type::I64)).unwrap();
        let t = b.add(Type::I64, v, ls);
        let t2 = b.add(Type::I64, t, rs);
        b.ret(Some(t2));
        m.add_function(b.finish());
    }
    // drop_tree(node)
    {
        let mut b = FunctionBuilder::new("drop_tree", vec![Type::Ptr], None);
        let node = b.param(0);
        let is_null = b.icmp(CmpOp::Eq, node, Value::Null);
        let null_bb = b.new_block();
        let rec_bb = b.new_block();
        b.cond_br(is_null, null_bb, rec_bb);
        b.switch_to(null_bb);
        b.ret(None);
        b.switch_to(rec_bb);
        let lslot = b.gep_const(node, LEFT);
        let l = b.load(Type::Ptr, lslot);
        b.call(drop_id, vec![l], None);
        let rslot = b.gep_const(node, RIGHT);
        let r = b.load(Type::Ptr, rslot);
        b.call(drop_id, vec![r], None);
        b.free(node);
        b.ret(None);
        m.add_function(b.finish());
    }
    // main
    {
        let mut b = FunctionBuilder::new("main", vec![], None);
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
        let t = b
            .call(build_id, vec![Value::const_i64(3), i], Some(Type::Ptr))
            .unwrap();
        let s = b.call(fold_id, vec![t], Some(Type::I64)).unwrap();
        b.print_i64(s);
        b.call(drop_id, vec![t], None);
        let i2 = b.add(Type::I64, i, Value::const_i64(1));
        b.add_phi_incoming(phi, body, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        m.add_function(b.finish());
    }
    privateer_ir::verify::verify_module(&m).unwrap();
    m
}

#[test]
fn recursive_trees_are_short_lived_and_parallelize() {
    let m = tree_module(30);
    let image = load_module(&m);
    let mut seq = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
    seq.run_main().unwrap();
    let expected = seq.rt.take_output();

    let result =
        privatize(&m, &PipelineConfig::default()).unwrap_or_else(|e| panic!("pipeline: {e}"));
    assert_eq!(result.reports.len(), 1, "{:?}", result.rejected);
    let r = &result.reports[0];
    // All tree nodes (one recursive allocation site, many dynamic
    // contexts) are short-lived; nothing is unrestricted.
    assert!(r.heap_counts[3] >= 1, "tree nodes short-lived: {r:?}");
    assert_eq!(r.heap_counts[4], 0);
    // The recursive callees carry separation checks on loaded child
    // pointers.
    assert!(r.checks.separation > 0, "{r:?}");

    let image = load_module(&result.module);
    for workers in [2, 4] {
        let cfg = EngineConfig {
            workers,
            checkpoint_period: 6,
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

#[test]
fn recursive_trees_survive_misspeculation() {
    let m = tree_module(24);
    let image = load_module(&m);
    let mut seq = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
    seq.run_main().unwrap();
    let expected = seq.rt.take_output();

    let result = privatize(&m, &PipelineConfig::default()).unwrap();
    let image = load_module(&result.module);
    let cfg = EngineConfig {
        workers: 3,
        checkpoint_period: 4,
        inject_rate: 0.25,
        inject_seed: 5,
    };
    let mut interp = Interp::new(
        &result.module,
        &image,
        NopHooks,
        MainRuntime::new(&image, cfg),
    );
    interp.run_main().unwrap();
    assert_eq!(interp.rt.take_output(), expected);
    assert!(interp.rt.stats.misspecs > 0);
}
