//! End-to-end profiling: run a miniature "data-structure reuse" program
//! (the pattern of the paper's Figure 2) and check the profile identifies
//! exactly what the paper's analyses need.

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::loops::LoopId;
use privateer_ir::{CmpOp, FuncId, InstKind, Module, Type, Value};
use privateer_profile::{profile_module, ObjectName};
use privateer_vm::load_module;
use privateer_workloads::util::for_loop;

mod programs;

#[test]
fn profile_identifies_reuse_patterns() {
    let m = programs::reuse_program();
    privateer_ir::verify::verify_module(&m).unwrap();
    let image = load_module(&m);
    let (profile, out) = profile_module(&m, &image).unwrap();

    // Output is the sum 0+1+...+5 = 15.
    assert_eq!(out, b"15\n");

    let main = m.main().unwrap();
    // The outer loop is the hottest loop.
    let loops = profile.loops_by_weight();
    assert!(!loops.is_empty());
    let (hot, stats) = loops[0];
    assert_eq!(hot.0, main);
    assert_eq!(stats.invocations, 1);
    assert_eq!(stats.total_iters, 7); // 6 executed iterations + exit test

    // The malloc'd node is short-lived w.r.t. the outer loop.
    let short: Vec<&ObjectName> = profile
        .short_lived
        .iter()
        .filter(|(_, lp)| *lp == hot)
        .map(|(n, _)| n)
        .collect();
    assert_eq!(short.len(), 1, "{short:?}");
    assert!(matches!(short[0], ObjectName::Site { .. }));

    // There is a cross-iteration flow dependence on the accumulator, and
    // its address is the accumulator global's cell.
    let acc_addr = image.global_addrs[m.global_by_name("acc_cell").unwrap().index()];
    let deps: Vec<_> = profile.deps_of(hot).collect();
    assert!(!deps.is_empty());
    let all_addrs: Vec<u64> = deps
        .iter()
        .flat_map(|(_, info)| info.addrs.iter().copied())
        .collect();
    assert!(
        all_addrs
            .iter()
            .all(|&a| (acc_addr..acc_addr + 8).contains(&a)),
        "cross-iteration flow must only be through acc_cell: {all_addrs:?}"
    );

    // The table is written then read within each iteration: no
    // cross-iteration flow dep lands in its range.
    let table_addr = image.global_addrs[m.global_by_name("table").unwrap().index()];
    assert!(all_addrs
        .iter()
        .all(|&a| !(table_addr..table_addr + 64).contains(&a)));

    // Every block of main executed.
    for bb in m.func(main).block_ids() {
        assert!(!profile.block_unexecuted(main, bb), "{bb} never ran");
    }
}

#[test]
fn call_context_distinguishes_allocation_sites() {
    // helper() mallocs; called from two different sites. The object names
    // must differ by call path.
    let mut m = Module::new("ctx");
    let helper_id = FuncId::new(0);
    let mut h = FunctionBuilder::new("helper", vec![], Some(Type::Ptr));
    let p = h.malloc(Value::const_i64(8));
    h.store(Type::I64, Value::const_i64(1), p);
    h.ret(Some(p));
    m.add_function(h.finish());

    let mut b = FunctionBuilder::new("main", vec![], None);
    let p1 = b.call(helper_id, vec![], Some(Type::Ptr)).unwrap();
    let p2 = b.call(helper_id, vec![], Some(Type::Ptr)).unwrap();
    let v1 = b.load(Type::I64, p1);
    let v2 = b.load(Type::I64, p2);
    let s = b.add(Type::I64, v1, v2);
    b.print_i64(s);
    b.free(p1);
    b.free(p2);
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();

    let image = load_module(&m);
    let (profile, out) = profile_module(&m, &image).unwrap();
    assert_eq!(out, b"2\n");

    // The two loads reference objects with the same site but different
    // call paths.
    let mut names = std::collections::BTreeSet::new();
    for objs in profile.access_objects.values() {
        for o in objs {
            if matches!(o, ObjectName::Site { .. }) {
                names.insert(o.clone());
            }
        }
    }
    assert_eq!(names.len(), 2, "{names:?}");
    let sites: std::collections::BTreeSet<_> = names.iter().map(|n| n.alloc_site()).collect();
    assert_eq!(sites.len(), 1, "same static site");
}

#[test]
fn branch_bias_and_hotness_measured() {
    // A branch taken 1 time in 10, inside a loop that dominates execution.
    let mut m = Module::new("bias");
    let g = m.add_global("acc", 8);
    let mut b = FunctionBuilder::new("main", vec![], None);
    let pre = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let rare = b.new_block();
    let join = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let (i, phi) = b.phi(Type::I64);
    b.add_phi_incoming(phi, pre, Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, i, Value::const_i64(50));
    b.cond_br(c, body, exit);
    b.switch_to(body);
    let r = b.bin(
        privateer_ir::BinOp::SRem,
        Type::I64,
        i,
        Value::const_i64(10),
    );
    let is0 = b.icmp(CmpOp::Eq, r, Value::const_i64(0));
    b.cond_br(is0, rare, join);
    b.switch_to(rare);
    let v = b.load(Type::I64, Value::Global(g));
    let v2 = b.add(Type::I64, v, Value::const_i64(1));
    b.store(Type::I64, v2, Value::Global(g));
    b.br(join);
    b.switch_to(join);
    let i2 = b.add(Type::I64, i, Value::const_i64(1));
    b.add_phi_incoming(phi, join, i2);
    b.br(header);
    b.switch_to(exit);
    b.ret(None);
    let main = m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();

    let image = load_module(&m);
    let (profile, _) = profile_module(&m, &image).unwrap();

    // The body's conditional is 10% taken.
    let stats = profile
        .branch_stats
        .get(&(main, privateer_ir::BlockId::new(2)))
        .expect("body branch profiled");
    assert_eq!(stats.taken, 5);
    assert_eq!(stats.not_taken, 45);
    assert!((stats.bias() - 0.1).abs() < 1e-9);

    // The header branch is ~98% taken (50 of 51).
    let hdr = profile
        .branch_stats
        .get(&(main, privateer_ir::BlockId::new(1)))
        .expect("header branch profiled");
    assert!(hdr.bias() > 0.9);

    // Hotness: the loop's weight accounts for nearly all instructions.
    let (hot, stats) = profile.loops_by_weight()[0];
    assert_eq!(hot.0, main);
    assert!(stats.weight as f64 > 0.9 * profile.total_insts as f64);
    assert_eq!(stats.invocations, 1);
    assert_eq!(stats.total_iters, 51);
}

#[test]
fn recursion_through_a_loop_reports_only_the_outermost_dependence() {
    let m = programs::recursive_loop_program();
    privateer_ir::verify::verify_module(&m).unwrap();
    let image = load_module(&m);
    let (profile, out) = profile_module(&m, &image).unwrap();
    // f(0) and the nested f(1) each increment g twice.
    assert_eq!(out, b"4\n");

    let f = m.func_by_name("f").unwrap();
    let lp = (f, LoopId::new(0));
    let site = |want: fn(&InstKind) -> bool| {
        let func = m.func(f);
        let i = func.insts.iter().position(|inst| want(&inst.kind)).unwrap();
        (f, privateer_ir::InstId::new(i))
    };
    let load = site(|k| matches!(k, InstKind::Load(..)));
    let store = site(|k| matches!(k, InstKind::Store(..)));
    let g = image.global_addrs[m.global_by_name("g").unwrap().index()];

    // The outer invocation O of L reads in its iteration 1 the g that its
    // iteration 0 wrote (g was last written by the nested invocation I,
    // still inside O's iteration 0): one dependence, 8 bytes. I also reads
    // in its iteration 1 what its iteration 0 wrote, but L is on the stack
    // twice then; only the outermost occurrence reports, so I adds nothing.
    let deps: Vec<_> = profile.deps_of(lp).collect();
    assert_eq!(deps.len(), 1, "{deps:?}");
    let (&(src, dst), info) = deps[0];
    assert_eq!((src, dst), (store, load));
    assert_eq!(info.count, 8);
    assert_eq!(info.addrs, (g..g + 8).collect());
    assert!(!info.addrs_overflow);
    assert_eq!(profile.cross_deps.len(), 1);

    // Weights (instruction counts in `recursive_loop_program`'s docs):
    // I runs header 3 × 1 + body 2 × 5 + latch 2 × 1 = 15 instructions;
    // O runs the same 15, plus the call (1) and I's 15, so 31. I's
    // instructions count in both invocations: 31 + 15 = 46.
    let stats = profile.loop_stats[&lp];
    assert_eq!(stats.invocations, 2);
    assert_eq!(stats.total_iters, 6);
    assert_eq!(stats.weight, 46);
    // main's call, load and print, plus O's 31.
    assert_eq!(profile.total_insts, 34);
}

/// `for i in 0..3 { for j in 0..n { load i8 buf[j]; store i8 buf[j] } }`:
/// from the outer loop's second iteration on, the load reads the `n` bytes
/// the store wrote in the iteration before.
fn carried_bytes_program(n: i64) -> Module {
    let mut m = Module::new("carried");
    let buf = Value::Global(m.add_global("buf", 72));
    let mut b = FunctionBuilder::new("main", vec![], None);
    for_loop(&mut b, Value::const_i64(0), Value::const_i64(3), |b, i| {
        for_loop(b, Value::const_i64(0), Value::const_i64(n), |b, j| {
            let p = b.gep(buf, j, 1, 0);
            b.load(Type::I8, p);
            let v = b.trunc(i, Type::I8);
            b.store(Type::I8, v, p);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    privateer_ir::verify::verify_module(&m).unwrap();
    m
}

/// The one cross-iteration dependence of `carried_bytes_program(n)`.
fn carried_dep(n: i64) -> (u64, privateer_profile::DepInfo) {
    let m = carried_bytes_program(n);
    let image = load_module(&m);
    let (profile, _) = profile_module(&m, &image).unwrap();
    let deps: Vec<_> = profile.cross_deps.values().flatten().collect();
    assert_eq!(deps.len(), 1, "{deps:?}");
    let buf = image.global_addrs[m.global_by_name("buf").unwrap().index()];
    (buf, deps[0].1.clone())
}

#[test]
fn a_dependence_through_exactly_the_address_cap_does_not_overflow() {
    // Two iterations each carry the same 64 bytes: the second adds no new
    // address, so nothing is dropped.
    let (buf, info) = carried_dep(64);
    assert_eq!(info.count, 2 * 64);
    assert_eq!(info.addrs, (buf..buf + 64).collect());
    assert!(!info.addrs_overflow);
}

#[test]
fn a_dependence_through_one_byte_more_than_the_cap_overflows() {
    let (buf, info) = carried_dep(65);
    assert_eq!(info.count, 2 * 65);
    assert_eq!(info.addrs, (buf..buf + 64).collect());
    assert!(info.addrs_overflow);
}
