//! Programs shared by the profiler's end-to-end and equivalence tests.

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{CmpOp, FuncId, Module, Type, Value};

/// Build:
///
/// ```c
/// long acc_cell;                 // global, written+read across iterations
/// long table[8];                 // global, re-initialized each iteration
/// for (i = 0; i < 6; i++) {      // outer hot loop
///     for (j = 0; j < 8; j++) table[j] = i;       // kill: write-first
///     node = malloc(16); node[0] = table[i % 8];  // short-lived node
///     acc_cell = acc_cell + node[0];              // cross-iteration flow
///     free(node);
/// }
/// print(acc_cell);
/// ```
pub fn reuse_program() -> Module {
    let mut m = Module::new("reuse");
    let acc = m.add_global("acc_cell", 8);
    let table = m.add_global("table", 64);

    let mut b = FunctionBuilder::new("main", vec![], None);
    let oh = b.new_block();
    let init_h = b.new_block();
    let init_b = b.new_block();
    let work = b.new_block();
    let ol = b.new_block();
    let exit = b.new_block();
    b.br(oh);

    // outer header
    b.switch_to(oh);
    let (i, i_phi) = b.phi(Type::I64);
    b.add_phi_incoming(i_phi, b.entry_block(), Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, i, Value::const_i64(6));
    b.cond_br(c, init_h, exit);

    // inner init loop header
    b.switch_to(init_h);
    let (j, j_phi) = b.phi(Type::I64);
    b.add_phi_incoming(j_phi, oh, Value::const_i64(0));
    let cj = b.icmp(CmpOp::Lt, j, Value::const_i64(8));
    b.cond_br(cj, init_b, work);

    b.switch_to(init_b);
    let slot = b.gep(Value::Global(table), j, 8, 0);
    b.store(Type::I64, i, slot);
    let j2 = b.add(Type::I64, j, Value::const_i64(1));
    b.add_phi_incoming(j_phi, init_b, j2);
    b.br(init_h);

    // work: malloc node, read table, accumulate into acc_cell
    b.switch_to(work);
    let node = b.malloc(Value::const_i64(16));
    let idx = b.bin(privateer_ir::BinOp::SRem, Type::I64, i, Value::const_i64(8));
    let tslot = b.gep(Value::Global(table), idx, 8, 0);
    let tv = b.load(Type::I64, tslot);
    b.store(Type::I64, tv, node);
    let nv = b.load(Type::I64, node);
    let old = b.load(Type::I64, Value::Global(acc));
    let sum = b.add(Type::I64, old, nv);
    b.store(Type::I64, sum, Value::Global(acc));
    b.free(node);
    b.br(ol);

    b.switch_to(ol);
    let i2 = b.add(Type::I64, i, Value::const_i64(1));
    b.add_phi_incoming(i_phi, ol, i2);
    b.br(oh);

    b.switch_to(exit);
    let fin = b.load(Type::I64, Value::Global(acc));
    b.print_i64(fin);
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// Build a loop that recurses through itself:
///
/// ```c
/// long g;
/// void f(long depth) {
///     for (i = 0; i < 2; i++) {           // loop L
///         g = g + 1;                      // read in iteration k+1 what
///                                         // iteration k wrote
///         if (depth + i == 0) f(1);       // f(1) runs inside f(0)'s L
///     }
/// }
/// main() { f(0); print(g); }
/// ```
///
/// Non-phi instructions per block: `header` 1 (icmp), `body` 5 (load,
/// add, store, add, icmp), `rec` 1 (call), `latch` 1 (add); `entry` and
/// `exit` have none, and `main` runs 3 (call, load, print).
pub fn recursive_loop_program() -> Module {
    let mut m = Module::new("recursive-loop");
    let g = m.add_global("g", 8);
    let f_id = FuncId::new(0);

    let mut b = FunctionBuilder::new("f", vec![Type::I64], None);
    let entry = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let rec = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();
    b.br(header);

    b.switch_to(header);
    let (i, i_phi) = b.phi(Type::I64);
    b.add_phi_incoming(i_phi, entry, Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, i, Value::const_i64(2));
    b.cond_br(c, body, exit);

    b.switch_to(body);
    let v = b.load(Type::I64, Value::Global(g));
    let v1 = b.add(Type::I64, v, Value::const_i64(1));
    b.store(Type::I64, v1, Value::Global(g));
    let depth = b.param(0);
    let s = b.add(Type::I64, depth, i);
    let first = b.icmp(CmpOp::Eq, s, Value::const_i64(0));
    b.cond_br(first, rec, latch);

    b.switch_to(rec);
    b.call(f_id, vec![Value::const_i64(1)], None);
    b.br(latch);

    b.switch_to(latch);
    let i2 = b.add(Type::I64, i, Value::const_i64(1));
    b.add_phi_incoming(i_phi, latch, i2);
    b.br(header);

    b.switch_to(exit);
    b.ret(None);
    assert_eq!(m.add_function(b.finish()), f_id);

    let mut b = FunctionBuilder::new("main", vec![], None);
    b.call(f_id, vec![Value::const_i64(0)], None);
    let fin = b.load(Type::I64, Value::Global(g));
    b.print_i64(fin);
    b.ret(None);
    m.add_function(b.finish());
    m
}
