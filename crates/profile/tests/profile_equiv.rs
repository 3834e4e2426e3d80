//! Equivalence: `ProfileSuite` (shadow memory, stamps, block clock, dense
//! tables) gathers exactly the profile of the per-event reference profiler
//! in `reference/`, compared through `format!("{:?}")`, on the five
//! workloads, the wall-clock benchmark's three configurations, the
//! end-to-end test programs and generated programs, among them programs
//! aimed at the suite's fast paths: sites striding across shadow pages and
//! loads whose bytes have different last writers.

use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{CmpOp, FuncId, Module, Type, Value};
use privateer_profile::profile_module;
use privateer_vm::load_module;
use privateer_workloads::util::for_loop;
use privateer_workloads::{alvinn, blackscholes, dijkstra, md5, swaptions};
use proptest::prelude::*;

mod programs;
mod reference;

/// Profile `m` with both suites and require identical profiles and output.
fn assert_same_profile(what: &str, m: &Module) {
    privateer_ir::verify::verify_module(m).unwrap_or_else(|e| panic!("{what}: {e:?}"));
    let image = load_module(m);
    let (fast, fast_out) = profile_module(m, &image).unwrap();
    let (slow, slow_out) = reference::reference_profile(m, &image).unwrap();
    assert_eq!(fast_out, slow_out, "{what}: output");
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{what}: profile");
}

#[test]
fn workloads_at_train_scale() {
    assert_same_profile("alvinn", &alvinn::build(&alvinn::Params::train()));
    assert_same_profile(
        "blackscholes",
        &blackscholes::build(&blackscholes::Params::train()),
    );
    assert_same_profile("dijkstra", &dijkstra::build(&dijkstra::Params::train()));
    assert_same_profile("md5", &md5::build(&md5::Params::train()));
    assert_same_profile("swaptions", &swaptions::build(&swaptions::Params::train()));
}

/// The inputs of the wall-clock benchmark's workloads (`wallbench`'s
/// `Workload::instance`), at the seeds its runs use first.
#[test]
fn wallbench_configurations() {
    for seed in 1..=3 {
        let alvinn = alvinn::Params {
            inputs: 16,
            hidden: 10,
            outputs: 4,
            examples: 24,
            epochs: 8,
            seed,
        };
        assert_same_profile("alvinn-private", &alvinn::build(&alvinn));
        let blackscholes = blackscholes::Params {
            options: 4096,
            runs: 4,
            seed,
        };
        assert_same_profile("blackscholes-wide", &blackscholes::build(&blackscholes));
        let md5 = md5::Params {
            messages: 160,
            msg_len: 96,
            seed,
        };
        assert_same_profile("md5-misspec", &md5::build(&md5));
    }
}

#[test]
fn end_to_end_programs() {
    assert_same_profile("reuse", &programs::reuse_program());
    assert_same_profile("recursive loop", &programs::recursive_loop_program());
}

/// Bytes of the global buffer generated accesses land in: three pages,
/// page-aligned because it is the module's first global.
const BUF_SIZE: u64 = 3 * 4096;
/// Offsets into the buffer: aligned, unaligned, and straddling the first
/// and second page boundaries for 4- and 8-byte accesses.
const BUF_OFFSETS: [i64; 10] = [0, 1, 3, 8, 13, 4090, 4093, 4095, 8189, 8191];
/// Heap cells that hold `malloc` results (null when empty).
const CELLS: u64 = 3;
/// `malloc` sizes; freed blocks of one size are reused by the next
/// allocation of that size.
const SIZES: [i64; 3] = [16, 24, 40];
/// Offsets into a heap block or the helper's stack slot (8-byte accesses
/// stay inside the smallest block).
const OBJ_OFFSETS: [i64; 5] = [0, 1, 3, 7, 8];

#[derive(Debug, Clone, Copy)]
enum Target {
    /// `buf + off + iv * scale`, `iv` the innermost induction variable.
    Buf { off: i64, scale: u64 },
    /// `cell`'s block (or `buf` while the cell is empty), plus `off`.
    Heap { cell: u64, off: i64 },
    /// The helper's stack slot plus `off`.
    Stack { off: i64 },
}

#[derive(Debug, Clone)]
enum Stmt {
    Loop { trips: i64, body: Vec<Stmt> },
    Store { ty: Type, at: Target },
    Load { ty: Type, at: Target },
    Malloc { cell: u64, size: i64 },
    Free { cell: u64 },
    CallHelper,
    CallRecursive,
}

/// xorshift64*: a deterministic statement generator per seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// Which function a statement list is generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum In {
    Main,
    Helper,
    Recursive,
}

fn gen_stmts(rng: &mut Rng, within: In, depth: u32) -> Vec<Stmt> {
    let n = 1 + rng.below(5);
    (0..n).map(|_| gen_stmt(rng, within, depth)).collect()
}

fn gen_stmt(rng: &mut Rng, within: In, depth: u32) -> Stmt {
    let ty = rng.pick(&[Type::I8, Type::I32, Type::I64]);
    let at = match rng.below(if within == In::Helper { 3 } else { 2 }) {
        0 => Target::Buf {
            off: rng.pick(&BUF_OFFSETS),
            scale: rng.pick(&[0, 1, 8]),
        },
        1 => Target::Heap {
            cell: rng.below(CELLS),
            off: rng.pick(&OBJ_OFFSETS),
        },
        _ => Target::Stack {
            off: rng.pick(&OBJ_OFFSETS),
        },
    };
    match rng.below(9) {
        0 | 1 if depth < 3 => Stmt::Loop {
            trips: rng.below(4) as i64,
            body: gen_stmts(rng, within, depth + 1),
        },
        0..=2 => Stmt::Store { ty, at },
        3 | 4 => Stmt::Load { ty, at },
        5 => Stmt::Malloc {
            cell: rng.below(CELLS),
            size: rng.pick(&SIZES),
        },
        6 => Stmt::Free {
            cell: rng.below(CELLS),
        },
        7 if within != In::Helper => Stmt::CallHelper,
        8 if within == In::Main => Stmt::CallRecursive,
        _ => Stmt::Store { ty, at },
    }
}

/// Globals and functions statements refer to.
struct Env {
    buf: Value,
    cells: Value,
    helper: FuncId,
    recursive: FuncId,
    /// The helper's stack slot (only inside the helper).
    slot: Option<Value>,
}

fn emit(b: &mut FunctionBuilder, env: &Env, iv: Value, stmts: &[Stmt]) {
    for s in stmts {
        match s {
            Stmt::Loop { trips, body } => {
                for_loop(b, Value::const_i64(0), Value::const_i64(*trips), |b, iv| {
                    emit(b, env, iv, body)
                });
            }
            Stmt::Store { ty, at } => {
                let p = address(b, env, iv, *at);
                let v = if *ty == Type::I64 {
                    iv
                } else {
                    b.trunc(iv, *ty)
                };
                b.store(*ty, v, p);
            }
            Stmt::Load { ty, at } => {
                let p = address(b, env, iv, *at);
                b.load(*ty, p);
            }
            Stmt::Malloc { cell, size } => {
                let p = b.malloc(Value::const_i64(*size));
                let c = b.gep_const(env.cells, 8 * *cell as i64);
                b.store(Type::Ptr, p, c);
            }
            Stmt::Free { cell } => {
                let c = b.gep_const(env.cells, 8 * *cell as i64);
                let p = b.load(Type::Ptr, c);
                b.free(p);
                b.store(Type::Ptr, Value::Null, c);
            }
            Stmt::CallHelper => {
                b.call(env.helper, vec![], None);
            }
            Stmt::CallRecursive => {
                b.call(env.recursive, vec![Value::const_i64(0)], None);
            }
        }
    }
}

fn address(b: &mut FunctionBuilder, env: &Env, iv: Value, at: Target) -> Value {
    match at {
        Target::Buf { off, scale } => b.gep(env.buf, iv, scale, off),
        Target::Heap { cell, off } => {
            let c = b.gep_const(env.cells, 8 * cell as i64);
            let p = b.load(Type::Ptr, c);
            let empty = b.icmp(CmpOp::Eq, p, Value::Null);
            let base = b.select(Type::Ptr, empty, env.buf, p);
            b.gep_const(base, off)
        }
        Target::Stack { off } => b.gep_const(env.slot.expect("stack slot"), off),
    }
}

/// A program of three functions built from `seed`:
///
/// * `helper()` has a stack slot and runs generated statements (no calls);
/// * `rec(depth)` runs `for i in 0..trips { stmts; if depth + i == k {
///   rec(NESTED) } }`, so the nested call puts its loop on the stack twice
///   (and, as `k < NESTED`, recurses no further);
/// * `main()` runs generated statements that may call both from inside
///   its loops.
fn generated_program(seed: u64) -> Module {
    const NESTED: i64 = 16;
    let mut rng = Rng(seed | 1);
    let mut m = Module::new("generated");
    let buf = Value::Global(m.add_global("buf", BUF_SIZE));
    let cells = Value::Global(m.add_global("cells", 8 * CELLS));
    let mut env = Env {
        buf,
        cells,
        helper: FuncId::new(0),
        recursive: FuncId::new(1),
        slot: None,
    };

    let mut h = FunctionBuilder::new("helper", vec![], None);
    env.slot = Some(h.alloca(24, "slot"));
    let stmts = gen_stmts(&mut rng, In::Helper, 1);
    emit(&mut h, &env, Value::const_i64(0), &stmts);
    h.ret(None);
    assert_eq!(m.add_function(h.finish()), env.helper);
    env.slot = None;

    let mut r = FunctionBuilder::new("rec", vec![Type::I64], None);
    let trips = 1 + rng.below(3) as i64;
    let k = rng.below(trips as u64) as i64;
    let stmts = gen_stmts(&mut rng, In::Recursive, 1);
    for_loop(
        &mut r,
        Value::const_i64(0),
        Value::const_i64(trips),
        |r, i| {
            emit(r, &env, i, &stmts);
            let depth = r.param(0);
            let s = r.add(Type::I64, depth, i);
            let now = r.icmp(CmpOp::Eq, s, Value::const_i64(k));
            let call = r.new_block();
            let join = r.new_block();
            r.cond_br(now, call, join);
            r.switch_to(call);
            r.call(env.recursive, vec![Value::const_i64(NESTED)], None);
            r.br(join);
            r.switch_to(join);
        },
    );
    r.ret(None);
    assert_eq!(m.add_function(r.finish()), env.recursive);

    let mut b = FunctionBuilder::new("main", vec![], None);
    let stmts = gen_stmts(&mut rng, In::Main, 0);
    emit(&mut b, &env, Value::const_i64(0), &stmts);
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// A program whose `main` runs `stmts` (which must not call).
fn straight_program(stmts: &[Stmt]) -> Module {
    let mut m = Module::new("straight");
    let env = Env {
        buf: Value::Global(m.add_global("buf", BUF_SIZE)),
        cells: Value::Global(m.add_global("cells", 8 * CELLS)),
        helper: FuncId::new(0),
        recursive: FuncId::new(0),
        slot: None,
    };
    let mut b = FunctionBuilder::new("main", vec![], None);
    emit(&mut b, &env, Value::const_i64(0), stmts);
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// Strides of about a page: each trip of a striding site lands on the
/// next page of the buffer.
const PAGE_STRIDES: [u64; 3] = [4088, 4096, 4104];
/// Offsets a page-striding access starts at, so that its third trip
/// (`off + 2 * 4104 + 8`) stays inside the buffer.
const STRIDE_OFFSETS: [i64; 5] = [0, 5, 2040, 4067, 4072];
/// Access types of the page-striding sites.
const TYPES: [Type; 3] = [Type::I8, Type::I32, Type::I64];
/// Words the mixed-writer loads read; the last straddles the first page
/// boundary.
const MIXED_WORDS: [i64; 4] = [0, 8, 4088, 4092];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_programs(seed in any::<u64>()) {
        assert_same_profile(&format!("generated seed {seed}"), &generated_program(seed));
    }

    /// One store site and one load site stride across page boundaries,
    /// between accesses of sites that stay on one page, so each site's
    /// cached shadow page goes stale on every trip.
    #[test]
    fn sites_striding_across_pages(
        stride in 0..PAGE_STRIDES.len(),
        offs in (0..STRIDE_OFFSETS.len(), 0..STRIDE_OFFSETS.len(), 0..BUF_OFFSETS.len()),
        tys in (0..TYPES.len(), 0..TYPES.len()),
        outer in 2..4i64,
        trips in 2..4i64,
    ) {
        let scale = PAGE_STRIDES[stride];
        let fixed = Target::Buf { off: BUF_OFFSETS[offs.2], scale: 0 };
        let inner = Stmt::Loop {
            trips,
            body: vec![
                Stmt::Load { ty: Type::I64, at: fixed },
                Stmt::Store {
                    ty: TYPES[tys.0],
                    at: Target::Buf { off: STRIDE_OFFSETS[offs.0], scale },
                },
                Stmt::Store { ty: Type::I8, at: fixed },
                Stmt::Load {
                    ty: TYPES[tys.1],
                    at: Target::Buf { off: STRIDE_OFFSETS[offs.1], scale },
                },
            ],
        };
        let program = straight_program(&[Stmt::Loop { trips: outer, body: vec![inner] }]);
        assert_same_profile(&format!("stride {scale}, offsets {offs:?}"), &program);
    }

    /// A 1-byte store into an 8-byte word the iteration before an 8-byte
    /// load of it: the load's bytes hold two different last writers.
    #[test]
    fn a_load_over_mixed_writers(
        word in 0..MIXED_WORDS.len(),
        byte in 0..8i64,
        trips in 2..4i64,
    ) {
        let word = MIXED_WORDS[word];
        let at = Target::Buf { off: word, scale: 0 };
        let program = straight_program(&[Stmt::Loop {
            trips,
            body: vec![
                Stmt::Load { ty: Type::I64, at },
                Stmt::Store { ty: Type::I64, at },
                Stmt::Store { ty: Type::I8, at: Target::Buf { off: word + byte, scale: 0 } },
            ],
        }]);
        assert_same_profile(&format!("word {word} byte {byte}"), &program);
    }
}
