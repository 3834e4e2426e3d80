//! Adversarial end-to-end property: for *arbitrary generated loop
//! programs* — whatever mix of kills, reuse, reductions, short-lived
//! allocation and cross-iteration dependences they contain — the Privateer
//! pipeline either rejects the loop or produces a parallel program whose
//! output is byte-identical to the sequential original, with and without
//! injected misspeculation.

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{BinOp, CmpOp, GlobalInit, Module, Type, Value};
use privateer_runtime::{EngineConfig, MainRuntime};
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks};
use proptest::prelude::*;

/// One statement of the generated loop body.
#[derive(Debug, Clone)]
enum Stmt {
    /// `cells[s] = <const or iv>` — a kill.
    Kill(usize, bool),
    /// `cells[d] = cells[s] + iv` — potential cross-iteration flow.
    Combine(usize, usize),
    /// `acc += iv` through the same pointer (a reduction pattern).
    Reduce,
    /// malloc/use/free within the iteration (short-lived).
    Scratch(usize),
    /// print a cell (deferred I/O).
    Print(usize),
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0usize..6, any::<bool>()).prop_map(|(s, c)| Stmt::Kill(s, c)),
        (0usize..6, 0usize..6).prop_map(|(d, s)| Stmt::Combine(d, s)),
        Just(Stmt::Reduce),
        (0usize..6).prop_map(Stmt::Scratch),
        (0usize..6).prop_map(Stmt::Print),
    ]
}

fn build_program(stmts: &[Stmt]) -> Module {
    let mut m = Module::new("generated-loop");
    let cells = m.add_global_init("cells", 48, GlobalInit::I64s(vec![5; 6]));
    let acc = m.add_global("acc", 8);

    let mut b = FunctionBuilder::new("main", vec![], None);
    let pre = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let (iv, phi) = b.phi(Type::I64);
    b.add_phi_incoming(phi, pre, Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, iv, Value::const_i64(24));
    b.cond_br(c, body, exit);
    b.switch_to(body);

    for s in stmts {
        match s {
            Stmt::Kill(slot, use_iv) => {
                let v = if *use_iv { iv } else { Value::const_i64(11) };
                let p = b.gep(Value::Global(cells), Value::const_i64(*slot as i64), 8, 0);
                b.store(Type::I64, v, p);
            }
            Stmt::Combine(d, s) => {
                let ps = b.gep(Value::Global(cells), Value::const_i64(*s as i64), 8, 0);
                let v = b.load(Type::I64, ps);
                let v2 = b.add(Type::I64, v, iv);
                let pd = b.gep(Value::Global(cells), Value::const_i64(*d as i64), 8, 0);
                b.store(Type::I64, v2, pd);
            }
            Stmt::Reduce => {
                let a = b.load(Type::I64, Value::Global(acc));
                let a2 = b.bin(BinOp::Add, Type::I64, a, iv);
                b.store(Type::I64, a2, Value::Global(acc));
            }
            Stmt::Scratch(slot) => {
                let p = b.malloc(Value::const_i64(16));
                let ps = b.gep(Value::Global(cells), Value::const_i64(*slot as i64), 8, 0);
                let v = b.load(Type::I64, ps);
                b.store(Type::I64, v, p);
                let r = b.load(Type::I64, p);
                b.store(Type::I64, r, ps);
                b.free(p);
            }
            Stmt::Print(slot) => {
                let p = b.gep(Value::Global(cells), Value::const_i64(*slot as i64), 8, 0);
                let v = b.load(Type::I64, p);
                b.print_i64(v);
            }
        }
    }

    let next = b.add(Type::I64, iv, Value::const_i64(1));
    let latch = b.current_block();
    b.add_phi_incoming(phi, latch, next);
    b.br(header);
    b.switch_to(exit);
    // Observe the final memory state too.
    for slot in 0..6 {
        let p = b.gep(Value::Global(cells), Value::const_i64(slot), 8, 0);
        let v = b.load(Type::I64, p);
        b.print_i64(v);
    }
    let a = b.load(Type::I64, Value::Global(acc));
    b.print_i64(a);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();
    m
}

fn sequential_output(m: &Module) -> Vec<u8> {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, BasicRuntime::strict());
    interp.run_main().unwrap();
    interp.rt.take_output()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_is_sound_on_arbitrary_loops(
        stmts in prop::collection::vec(stmt_strategy(), 1..10),
        workers in 1usize..5,
        inject in prop_oneof![Just(0.0f64), Just(0.15f64)],
    ) {
        let m = build_program(&stmts);
        let expected = sequential_output(&m);

        // The pipeline must never fail outright; loops it cannot handle
        // are rejected and stay sequential.
        let result = privatize(&m, &PipelineConfig::default())
            .unwrap_or_else(|e| panic!("pipeline error on {stmts:?}: {e}"));

        let image = load_module(&result.module);
        let cfg = EngineConfig {
            workers,
            checkpoint_period: 6,
            inject_rate: inject,
            inject_seed: 7,
        };
        let mut interp = Interp::new(&result.module, &image, NopHooks, MainRuntime::new(&image, cfg));
        interp.run_main().unwrap_or_else(|e| panic!("run failed on {stmts:?}: {e}"));
        let out = interp.rt.take_output();
        prop_assert_eq!(
            String::from_utf8_lossy(&out),
            String::from_utf8_lossy(&expected),
            "stmts {:?}, selected {}, workers {}, inject {}",
            stmts,
            result.reports.len(),
            workers,
            inject
        );
    }
}
