//! Deterministic replay of engine interleavings that previously required
//! a timing race, via [`VirtualScheduler`] scripts.
//!
//! The headline regression: the *drop-on-arrival* path for squashed
//! contributions (`PeriodCommitter::contribution` in the engine). A
//! contribution for a period at or after a detected misspeculation must
//! be dropped the moment it arrives — but in a free-running span the
//! contributing worker usually observes the squash flag first and never
//! sends, so the path went untested end-to-end (the engine's unit tests
//! drive the committer without threads). A three-entry script makes the
//! race a certainty.
//!
//! The scheduler's progress argument rests on the order in which each
//! worker reaches its points; `gate_sees_each_workers_points_in_order`
//! pins that order with a gate that only records.

use privateer_fuzz::schedule::owner_worker;
use privateer_fuzz::VirtualScheduler;
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{CmpOp, Heap, Intrinsic, Module, PlanEntry, Type, Value};
use privateer_runtime::worker::injected_at;
use privateer_runtime::{
    EngineConfig, EngineEvent, MainRuntime, SchedGate, SchedPoint, SequentialPlanRuntime,
};
use privateer_vm::{load_module, Interp, NopHooks};
use std::sync::{Arc, Mutex};

const N: i64 = 8;
/// Private buffer size in 8-byte cells, one cell per page so multi-page
/// periods are cheap to provoke (`PAGES` pages of dirty traffic per
/// iteration).
const PAGES: i64 = 14;
const PAGE: i64 = 4096;

/// A write-then-read privatization body over a `PAGES`-page private
/// buffer: every iteration overwrites one cell in each page, then reads
/// one back and prints it, so each contribution carries `PAGES` dirty
/// pages and output observes the committed state.
fn build_module() -> Module {
    let mut m = Module::new("sched");
    let buf = m.add_global("buf", (PAGES * PAGE) as u64);
    m.global_mut(buf).heap = Some(Heap::Private);

    for (name, checks) in [("body", true), ("recovery", false)] {
        let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
        let iter = b.param(0);
        let header = b.new_block();
        let bodyb = b.new_block();
        let after = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (j, j_phi) = b.phi(Type::I64);
        b.add_phi_incoming(j_phi, b.entry_block(), Value::const_i64(0));
        let c = b.icmp(CmpOp::Lt, j, Value::const_i64(PAGES));
        b.cond_br(c, bodyb, after);
        b.switch_to(bodyb);
        let slot = b.gep(Value::Global(buf), j, PAGE as u64, 0);
        if checks {
            b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
        }
        let v = b.mul(Type::I64, iter, Value::const_i64(100));
        let v = b.add(Type::I64, v, j);
        b.store(Type::I64, v, slot);
        let j2 = b.add(Type::I64, j, Value::const_i64(1));
        b.add_phi_incoming(j_phi, bodyb, j2);
        b.br(header);
        b.switch_to(after);
        let idx = b.bin(
            privateer_ir::BinOp::SRem,
            Type::I64,
            iter,
            Value::const_i64(PAGES),
        );
        let slot = b.gep(Value::Global(buf), idx, PAGE as u64, 0);
        if checks {
            b.intrinsic(Intrinsic::PrivateRead, vec![slot, Value::const_i64(8)]);
        }
        let v = b.load(Type::I64, slot);
        b.print_i64(v);
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
    for j in 0..PAGES {
        let slot = b.gep(Value::Global(buf), Value::const_i64(j), PAGE as u64, 0);
        let v = b.load(Type::I64, slot);
        b.print_i64(v);
    }
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

/// A seed whose only injected misspeculation in `0..N` is iteration 1
/// (worker 1's first iteration under 2-worker cyclic assignment).
fn seed_injecting_only_iter_1(rate: f64) -> u64 {
    (0u64..200_000)
        .find(|&s| (0..N).all(|i| injected_at(rate, s, i) == (i == 1)))
        .expect("an iter-1-only injection seed exists in the search range")
}

/// The race, forced: worker 0 finishes its period-0 iterations *before*
/// worker 1 publishes the iteration-1 misspeculation, and its period-0
/// contribution is released *after* — so the contribution reaches the
/// collection loop squashed and must be dropped on arrival. Free-running
/// spans essentially never produce this order (the worker sees the
/// squash flag and never sends); with the script it happens every run.
#[test]
fn scripted_late_contribution_is_dropped_on_arrival() {
    let m = build_module();
    let rate = 0.02;
    let seed = seed_injecting_only_iter_1(rate);

    let script = vec![
        // Worker 0 runs its last period-0 iteration to completion...
        SchedPoint::Iter { worker: 0, iter: 2 },
        // ...then worker 1's trap at iteration 1 publishes the squash...
        SchedPoint::Misspec { worker: 1 },
        // ...and only then does worker 0's period-0 contribution land.
        SchedPoint::Contribute {
            worker: 0,
            period: 0,
        },
    ];

    let image = load_module(&m);
    let mut rt = MainRuntime::new(
        &image,
        EngineConfig {
            workers: 2,
            checkpoint_period: 4,
            inject_rate: rate,
            inject_seed: seed,
        },
    );
    let sched = VirtualScheduler::scripted(script.clone());
    rt.set_gate(sched.clone());
    let mut interp = Interp::new(&m, &image, NopHooks, rt);
    interp.run_main().unwrap();

    assert_eq!(sched.timeouts(), 0, "script must be consistent, not forced");
    assert_eq!(sched.remaining(), 0, "every scripted point must fire");
    assert_eq!(sched.fired(), script, "points fire in script order");
    assert!(
        interp.rt.stats.squashed_pages_dropped >= PAGES as u64,
        "the late contribution ({PAGES} pages minimum) must be dropped on \
         arrival, got {}",
        interp.rt.stats.squashed_pages_dropped
    );
    assert_eq!(interp.rt.stats.misspecs, 1, "only the injected misspec");
    assert_eq!(
        interp.rt.take_output(),
        run_sequential(&m),
        "recovery must still reproduce the sequential output exactly"
    );
}

/// Without the scheduler the same workload must also agree with the
/// sequential run (sanity: the script changes *scheduling*, never
/// results).
#[test]
fn unscripted_run_agrees_with_sequential() {
    let m = build_module();
    let rate = 0.02;
    let seed = seed_injecting_only_iter_1(rate);
    let image = load_module(&m);
    let rt = MainRuntime::new(
        &image,
        EngineConfig {
            workers: 2,
            checkpoint_period: 4,
            inject_rate: rate,
            inject_seed: seed,
        },
    );
    let mut interp = Interp::new(&m, &image, NopHooks, rt);
    interp.run_main().unwrap();
    assert_eq!(interp.rt.take_output(), run_sequential(&m));
}

/// Seeded random exploration of contribution-arrival orders: every
/// explored interleaving must commit the same bytes, and the same seed
/// must explore the same interleaving.
#[test]
fn random_arrival_exploration_is_reproducible_and_agrees() {
    let m = build_module();
    let expect = run_sequential(&m);
    let mut first_orders = Vec::new();
    for round in 0..2 {
        let mut orders = Vec::new();
        for seed in 0..4u64 {
            let image = load_module(&m);
            let mut rt = MainRuntime::new(
                &image,
                EngineConfig {
                    workers: 2,
                    checkpoint_period: 4,
                    ..EngineConfig::default()
                },
            );
            // N=8, k=4, 2 workers -> 2 periods per worker.
            let sched = VirtualScheduler::random_arrivals(2, 2, seed);
            rt.set_gate(sched.clone());
            let mut interp = Interp::new(&m, &image, NopHooks, rt);
            interp.run_main().unwrap();
            assert_eq!(sched.timeouts(), 0, "seed {seed}: consistent script");
            assert_eq!(
                interp.rt.take_output(),
                expect,
                "seed {seed}: arrival order must never change results"
            );
            orders.push(sched.fired());
        }
        if round == 0 {
            first_orders = orders;
        } else {
            assert_eq!(first_orders, orders, "same seeds, same interleavings");
        }
    }
    assert!(
        first_orders
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1,
        "different seeds should explore more than one interleaving"
    );
}

/// What one worker passed through the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Point(SchedPoint),
    Retired(usize),
}

impl Seen {
    fn worker(self) -> usize {
        match self {
            Seen::Point(point) => owner_worker(&point),
            Seen::Retired(worker) => worker,
        }
    }
}

/// A gate that only logs: each worker's entries land in its program
/// order, and nothing is held back.
#[derive(Debug, Default)]
struct RecordingGate(Mutex<Vec<Seen>>);

impl SchedGate for RecordingGate {
    fn run(&self, point: SchedPoint, f: &mut dyn FnMut()) {
        self.0.lock().unwrap().push(Seen::Point(point));
        f();
    }

    fn retire_worker(&self, worker: usize) {
        self.0.lock().unwrap().push(Seen::Retired(worker));
    }
}

/// The gate seam's contract, per worker and per span of a free-running
/// run, with and without the iteration-1 misspeculation: `Iter` points
/// rise by a stride of `workers`; `Contribute` periods run 0, 1, …, each
/// after that period's last `Iter`; a `Misspec` is the worker's last
/// point; and the worker is retired exactly once.
#[test]
fn gate_sees_each_workers_points_in_order() {
    let m = build_module();
    let rate = 0.02;
    let seed = seed_injecting_only_iter_1(rate);
    let k = 4;
    for workers in [1, 2, 5] {
        for inject in [false, true] {
            let image = load_module(&m);
            let mut rt = MainRuntime::new(
                &image,
                EngineConfig {
                    workers,
                    checkpoint_period: k as u64,
                    inject_rate: if inject { rate } else { 0.0 },
                    inject_seed: seed,
                },
            );
            let gate = Arc::new(RecordingGate::default());
            rt.set_gate(gate.clone());
            let mut interp = Interp::new(&m, &image, NopHooks, rt);
            interp.run_main().unwrap();
            assert_eq!(interp.rt.stats.misspecs, inject as u64);
            let span_los: Vec<i64> = interp
                .rt
                .events
                .iter()
                .filter_map(|e| match e.event {
                    EngineEvent::Invoke { lo, .. } => Some(lo),
                    EngineEvent::ParallelResumed { at } => Some(at),
                    _ => None,
                })
                .collect();
            let log = gate.0.lock().unwrap();
            for w in 0..workers {
                let ctx = format!("workers={workers} inject={inject} worker={w}");
                let mine: Vec<Seen> = log.iter().copied().filter(|s| s.worker() == w).collect();
                let spans: Vec<&[Seen]> = mine
                    .split_inclusive(|s| matches!(s, Seen::Retired(_)))
                    .collect();
                assert_eq!(
                    spans.len(),
                    span_los.len(),
                    "{ctx}: one retirement per span"
                );
                for (span, &lo) in spans.iter().zip(&span_los) {
                    let (last, points) = span.split_last().unwrap();
                    assert_eq!(*last, Seen::Retired(w), "{ctx}: span ends retired");
                    let mut prev_iter = None;
                    let mut contributed = 0u64;
                    for (i, seen) in points.iter().enumerate() {
                        match *seen {
                            Seen::Point(SchedPoint::Iter { iter, .. }) => {
                                if let Some(prev) = prev_iter {
                                    assert_eq!(iter - prev, workers as i64, "{ctx}: stride");
                                }
                                prev_iter = Some(iter);
                                assert_eq!(
                                    (iter - lo) / k,
                                    contributed as i64,
                                    "{ctx}: iteration {iter} runs after the contributions \
                                     of earlier periods and before its own"
                                );
                            }
                            Seen::Point(SchedPoint::Contribute { period, .. }) => {
                                assert_eq!(period, contributed, "{ctx}: periods in order");
                                contributed += 1;
                            }
                            Seen::Point(SchedPoint::Misspec { .. }) => {
                                assert_eq!(i + 1, points.len(), "{ctx}: misspec is last")
                            }
                            Seen::Retired(_) => unreachable!("split at retirements"),
                        }
                    }
                }
            }
        }
    }
}
