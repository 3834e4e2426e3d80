//! Degenerate and hostile engine configurations: more workers than
//! iterations, single-iteration checkpoint periods, periods longer than
//! the loop, genuine program errors under speculation, misspeculation
//! on the very last iteration, and a seeded randomized configuration
//! sweep.
//!
//! The suite is fully seed-deterministic: every randomized choice flows
//! from [`stress_seed`] (override with `STRESS_SEED=<n>` to reproduce a
//! CI failure locally — the seed is printed in every failure message).

use privateer_fuzz::Rng;
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{CmpOp, Heap, Intrinsic, Module, PlanEntry, Type, Value};
use privateer_runtime::{EngineConfig, MainRuntime, SequentialPlanRuntime};
use privateer_vm::{load_module, Interp, NopHooks, Trap};

/// The campaign seed: `STRESS_SEED` from the environment, or a fixed
/// default so ordinary runs are byte-for-byte reproducible.
fn stress_seed() -> u64 {
    match std::env::var("STRESS_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|e| panic!("STRESS_SEED={s:?} is not a u64: {e}")),
        Err(_) => 0x57_5e55,
    }
}

/// body(i): cell[i % 4] = i, with privacy checks; print i.
fn build(n: i64, divide_by_zero_at: Option<i64>) -> Module {
    let mut m = Module::new("stress");
    let cells = m.add_global("cells", 32);
    m.global_mut(cells).heap = Some(Heap::Private);
    for name in ["body", "recovery"] {
        let checks = name == "body";
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let i = b.param(0);
        let idx = b.bin(privateer_ir::BinOp::SRem, Type::I64, i, Value::const_i64(4));
        let slot = b.gep(Value::Global(cells), idx, 8, 0);
        if checks {
            b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
        }
        b.store(Type::I64, i, slot);
        if let Some(bad) = divide_by_zero_at {
            // divisor = i - bad: zero exactly at the bad iteration.
            let d = b.sub(Type::I64, i, Value::const_i64(bad));
            let q = b.bin(
                privateer_ir::BinOp::SDiv,
                Type::I64,
                Value::const_i64(100),
                d,
            );
            let c = b.icmp(CmpOp::Eq, q, Value::const_i64(i64::MIN));
            let z = b.select(Type::I64, c, Value::const_i64(0), Value::const_i64(1));
            let _ = z;
        }
        b.print_i64(i);
        b.ret(None);
        m.add_function(b.finish());
    }
    let body = m.func_by_name("body").unwrap();
    let recovery = m.func_by_name("recovery").unwrap();
    m.plans.push(PlanEntry { body, recovery });
    let mut b = FunctionBuilder::new("main", vec![], None);
    b.intrinsic(
        Intrinsic::ParallelInvoke(0),
        vec![Value::const_i64(0), Value::const_i64(n)],
    );
    let v = b.gep(Value::Global(cells), Value::const_i64(3), 8, 0);
    let x = b.load(Type::I64, v);
    b.print_i64(x);
    b.ret(None);
    m.add_function(b.finish());
    m
}

fn expected(m: &Module) -> Vec<u8> {
    let image = load_module(m);
    let mut interp = Interp::new(m, &image, NopHooks, SequentialPlanRuntime::new(&image));
    interp.run_main().unwrap();
    interp.rt.take_output()
}

#[test]
fn degenerate_configurations_all_agree() {
    let m = build(10, None);
    let want = expected(&m);
    let configs = [
        (16, 4),  // more workers than iterations
        (3, 1),   // checkpoint every iteration
        (2, 253), // one period covers the whole loop (max allowed)
        (10, 3),  // workers == iterations
        (1, 2),   // single worker, tiny periods
    ];
    for (workers, period) in configs {
        let image = load_module(&m);
        let cfg = EngineConfig {
            workers,
            checkpoint_period: period,
            inject_rate: 0.0,
            inject_seed: 0,
        };
        let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg));
        interp.run_main().unwrap();
        assert_eq!(
            interp.rt.take_output(),
            want,
            "workers={workers} period={period}"
        );
    }
}

#[test]
fn misspeculation_on_final_iteration_recovers() {
    let m = build(12, None);
    let want = expected(&m);
    // Find a seed that injects exactly at the last iteration.
    let seed = (0u64..50_000)
        .find(|&s| (0..12).all(|i| privateer_runtime::worker::injected_at(0.02, s, i) == (i == 11)))
        .expect("some seed injects only at iteration 11");
    let image = load_module(&m);
    let cfg = EngineConfig {
        workers: 4,
        checkpoint_period: 5,
        inject_rate: 0.02,
        inject_seed: seed,
    };
    let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg));
    interp.run_main().unwrap();
    assert_eq!(interp.rt.take_output(), want);
    assert_eq!(interp.rt.stats.misspecs, 1);
    // After recovering iteration 11 there is nothing left: no resume event.
    assert!(!interp.rt.events.iter().any(|e| matches!(
        e.event,
        privateer_runtime::EngineEvent::ParallelResumed { .. }
    )));
}

#[test]
fn genuine_error_reproduces_sequentially() {
    // A real division by zero at iteration 7: the speculative worker
    // faults (treated as misspeculation), recovery re-executes
    // sequentially — and hits the same genuine error, which must
    // propagate as an error, not be swallowed.
    let m = build(10, Some(7));
    let image = load_module(&m);
    let cfg = EngineConfig {
        workers: 3,
        checkpoint_period: 4,
        inject_rate: 0.0,
        inject_seed: 0,
    };
    let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg));
    let err = interp.run_main().unwrap_err();
    assert_eq!(err, Trap::DivByZero);
    // The fault was first observed speculatively.
    assert!(interp.rt.stats.misspecs >= 1);
}

/// Seeded sweep over random hostile configurations: worker counts,
/// checkpoint periods (including > n and the 253 clamp), and injected
/// misspeculation rates, every round checked against the sequential
/// output. Failures print the campaign seed and the per-round
/// parameters, so `STRESS_SEED=<seed> cargo test` replays them exactly.
#[test]
fn randomized_hostile_configs_agree() {
    let seed = stress_seed();
    let mut r = Rng::new(seed);
    for round in 0..12 {
        let n = r.range(1, 40);
        let workers = r.range(1, 17) as usize;
        let period = match r.below(4) {
            0 => 1,
            1 => r.below(4) + 1,
            2 => n as u64 + r.below(8),
            _ => 253,
        };
        let inject_rate = if r.chance(1, 2) { 0.05 } else { 0.0 };
        let inject_seed = r.next_u64();
        let ctx = format!(
            "STRESS_SEED={seed} round={round}: n={n} workers={workers} \
             period={period} inject_rate={inject_rate} inject_seed={inject_seed}"
        );

        let m = build(n, None);
        let want = expected(&m);
        let image = load_module(&m);
        let cfg = EngineConfig {
            workers,
            checkpoint_period: period,
            inject_rate,
            inject_seed,
        };
        let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg));
        interp
            .run_main()
            .unwrap_or_else(|e| panic!("{ctx}: trapped {e:?}"));
        assert_eq!(interp.rt.take_output(), want, "{ctx}");
    }
}

#[test]
fn empty_and_single_iteration_regions() {
    for n in [0i64, 1] {
        let m = build(n, None);
        let want = expected(&m);
        let image = load_module(&m);
        let cfg = EngineConfig {
            workers: 4,
            checkpoint_period: 8,
            inject_rate: 0.0,
            inject_seed: 0,
        };
        let mut interp = Interp::new(&m, &image, NopHooks, MainRuntime::new(&image, cfg));
        interp.run_main().unwrap();
        assert_eq!(interp.rt.take_output(), want, "n={n}");
    }
}
