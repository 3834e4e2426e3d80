//! Seeded generation of random transformed loops.
//!
//! A [`CaseSpec`] is a tiny declarative program: a loop over `0..iters`
//! whose body is a sequence of [`Stmt`]s over a private cell buffer and
//! a reduction accumulator. [`CaseSpec::build_module`] lowers it to IR
//! twice — a speculative *body* carrying privatization/separation/
//! prediction checks and a check-free *recovery* — exactly the
//! body/recovery pairing the separation pass emits (paper §5), plus a
//! `main` that registers the reduction, runs `parallel_invoke`, and
//! prints the accumulator and every cell so the differential oracle
//! observes both output and committed memory.
//!
//! Generation is pure: [`CaseSpec::generate`]`(seed, index)` always
//! yields the same case, and [`CaseSpec::to_text`] /
//! [`CaseSpec::from_text`] round-trip a case through the repro-file
//! format the `privfuzz` CLI writes on failure.
//!
//! Several statement kinds *deliberately misspeculate* — cross-iteration
//! reads, failing predictions, wrong-heap pointers, leaked short-lived
//! objects — and one ([`Stmt::GenuineFault`]) is a genuine program error
//! that must fault identically under sequential and speculative
//! execution. The oracle never needs to know which is which: the
//! contract is byte-equality either way.

use crate::rng::Rng;
use privateer_ir::builder::FunctionBuilder;
use privateer_ir::{
    BinOp, CmpOp, GlobalId, GlobalInit, Heap, Intrinsic, Module, PlanEntry, ReduxOp, Type, Value,
};

/// One statement of a generated loop body.
///
/// `i` below is the iteration variable. All cell indices are reduced
/// modulo the case's cell count, so any parameter values form a valid
/// program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `cells[(i*stride + add) % cells] = i*mul + add` — the privatization
    /// workhorse: a per-iteration write with a `private_write` check.
    WriteCells {
        /// Cell-index stride per iteration.
        stride: u64,
        /// Cell-index offset (kept in `0..cells`).
        add: i64,
        /// Stored-value multiplier.
        mul: i64,
    },
    /// Read back `cells[(i*stride + add) % cells]` (guarded by
    /// `private_read`) and print it. The generator only emits this after
    /// a [`Stmt::WriteCells`] with the same `stride`/`add`, so the read
    /// is write-then-read safe; shrinking may break the pairing, which
    /// merely turns the case into an always-misspeculating one.
    ReadCellPrint {
        /// Must match a prior write's stride for a safe read.
        stride: u64,
        /// Must match a prior write's offset for a safe read.
        add: i64,
    },
    /// `if (i % modulus) < threshold { cells[cell % cells] = i*mul }` —
    /// a branchy write-only access (no flow dependence; last writer
    /// wins), stressing partially-dirty contributions.
    CondWrite {
        /// Branch period (≥ 1).
        modulus: i64,
        /// Write when `i % modulus` is below this.
        threshold: i64,
        /// Target cell.
        cell: u64,
        /// Stored-value multiplier.
        mul: i64,
    },
    /// `acc += i*mul + add` through plain loads/stores on the redux heap.
    Redux {
        /// Contribution multiplier.
        mul: i64,
        /// Contribution offset.
        add: i64,
    },
    /// `print(i*mul + add)` — deferred I/O that must retire in iteration
    /// order.
    PrintExpr {
        /// Multiplier.
        mul: i64,
        /// Offset.
        add: i64,
    },
    /// Allocate a short-lived node, chase it, print through it, free it.
    /// With `leak_at = Some(i)` the speculative body skips the free at
    /// iteration `i` (the recovery always frees), forcing a lifetime
    /// misspeculation.
    ShortLived {
        /// Iteration whose free the body skips, if any.
        leak_at: Option<i64>,
    },
    /// At iteration `at`, read `cells[(i + offset) % cells]` under a
    /// `private_read` check — a cross-iteration flow dependence the
    /// privacy check must catch (unless an earlier write this iteration
    /// happened to cover the cell, in which case it legitimately passes).
    CrossIterRead {
        /// Iteration performing the stale read.
        at: i64,
        /// Distance to the (usually unwritten) cell (≥ 1).
        offset: u64,
    },
    /// `predict(i != at)` — a value prediction that fails exactly once.
    PredictFail {
        /// Iteration at which the prediction is wrong.
        at: i64,
    },
    /// At iteration `at`, run `check_heap::<ShortLived>` on a pointer
    /// into the *private* heap — a separation violation. Other
    /// iterations pass a null pointer, which vacuously passes.
    WrongHeapCheck {
        /// Iteration handing the wrong-heap pointer to the check.
        at: i64,
    },
    /// `for j in 0..len { cells[start + j + shift] = mul·cells[start + j]
    /// plus i }` — a counted inner loop doing a read-modify-write on a run
    /// of private cells, one affine access stream whose checks
    /// [`coalesce_privacy_checks`](privateer::transform::coalesce_privacy_checks)
    /// can turn into range checks. With `init` a first inner loop writes
    /// every cell of the run, so the reads see this iteration's values;
    /// without it they read live-in values and the write after them
    /// misspeculates. `shift = 1` writes one cell over, aliasing the next
    /// trip's read, which must stop the rewrite. The run is clamped to
    /// the buffer.
    RunRmw {
        /// First cell of the run.
        start: u64,
        /// Cells in the run.
        len: u64,
        /// Write each cell of the run first.
        init: bool,
        /// Distance from the read cell to the written cell (0 or 1).
        shift: u64,
        /// Multiplier applied to the value read.
        mul: i64,
    },
    /// `print(1 / (i - at))` — a genuine division-by-zero at iteration
    /// `at`, present in body *and* recovery: sequential and speculative
    /// runs must report the identical trap with identical partial output.
    GenuineFault {
        /// The faulting iteration.
        at: i64,
    },
}

/// A complete generated case: loop bounds, data-layout knobs, and the
/// statement list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Case name (embedded in the module name and repro files).
    pub name: String,
    /// Loop trip count; the loop runs `0..iters`.
    pub iters: i64,
    /// Number of 8-byte cells in the private buffer.
    pub cells: u64,
    /// Byte distance between consecutive cells: 8 packs the buffer into
    /// few pages, 4096 gives every cell its own page (multi-page
    /// contributions and sharded merges).
    pub pitch: u64,
    /// Initial value of the reduction accumulator.
    pub redux_init: i64,
    /// The loop body.
    pub stmts: Vec<Stmt>,
}

impl CaseSpec {
    /// Deterministically generate case number `index` of the stream
    /// seeded by `seed`.
    pub fn generate(seed: u64, index: u64) -> CaseSpec {
        // Decorrelate (seed, index) pairs: one splitmix step over the
        // mixed pair seeds the per-case stream.
        let mut r = Rng::new(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();

        let iters = r.range(12, 49);
        let cells = 2 + r.below(11);
        let pitch = if r.chance(1, 4) { 4096 } else { 8 };
        let redux_init = r.range(-5, 50);
        let n_stmts = 2 + r.below(6);

        let mut stmts = Vec::new();
        let mut writes: Vec<(u64, i64)> = Vec::new();
        let mut faulted = false;
        for _ in 0..n_stmts {
            let roll = r.below(100);
            let stmt = match roll {
                0..=24 => {
                    let stride = 1 + r.below(4);
                    let add = r.range(0, cells as i64);
                    writes.push((stride, add));
                    Stmt::WriteCells {
                        stride,
                        add,
                        mul: r.range(-9, 10),
                    }
                }
                25..=39 if !writes.is_empty() => {
                    let (stride, add) = writes[r.below(writes.len() as u64) as usize];
                    Stmt::ReadCellPrint { stride, add }
                }
                25..=39 => Stmt::PrintExpr {
                    mul: r.range(-4, 5),
                    add: r.range(0, 100),
                },
                40..=51 => Stmt::CondWrite {
                    modulus: r.range(2, 7),
                    threshold: r.range(1, 4),
                    cell: r.below(cells),
                    mul: r.range(-9, 10),
                },
                52..=66 => Stmt::Redux {
                    mul: r.range(-3, 8),
                    add: r.range(-10, 11),
                },
                67..=76 => Stmt::PrintExpr {
                    mul: r.range(-4, 5),
                    add: r.range(0, 100),
                },
                77..=84 => Stmt::ShortLived {
                    leak_at: if r.chance(1, 3) {
                        Some(r.range(0, iters))
                    } else {
                        None
                    },
                },
                85..=89 => Stmt::CrossIterRead {
                    at: r.range(0, iters),
                    offset: 1 + r.below(cells - 1),
                },
                90..=93 => Stmt::PredictFail {
                    at: r.range(0, iters),
                },
                94..=96 => Stmt::WrongHeapCheck {
                    at: r.range(0, iters),
                },
                _ if !faulted => {
                    faulted = true;
                    // Fault late so several checkpoints commit first.
                    Stmt::GenuineFault {
                        at: r.range(iters / 2, iters),
                    }
                }
                _ => Stmt::Redux {
                    mul: r.range(-3, 8),
                    add: r.range(-10, 11),
                },
            };
            stmts.push(stmt);
        }
        // Drawn after the statement rolls, so the other statements of a
        // seed's cases do not depend on whether this one is drawn.
        if r.chance(1, 3) {
            let stmt = Stmt::RunRmw {
                start: r.below(cells),
                len: 1 + r.below(cells),
                init: r.chance(1, 2),
                shift: r.below(2),
                mul: r.range(-3, 4),
            };
            let at = r.below(stmts.len() as u64 + 1) as usize;
            stmts.insert(at, stmt);
        }

        CaseSpec {
            name: format!("case-{seed:x}-{index}"),
            iters,
            cells,
            pitch,
            redux_init,
            stmts,
        }
    }

    /// Lower the case to a verified IR module: `body`/`recovery` plan
    /// pair plus a `main` that registers the reduction, invokes the
    /// plan over `0..iters`, then prints the accumulator and every cell.
    pub fn build_module(&self) -> Module {
        let mut m = Module::new(&self.name);
        let buf = m.add_global("cells", self.cells * self.pitch);
        m.global_mut(buf).heap = Some(Heap::Private);
        let acc = m.add_global_init("acc", 8, GlobalInit::I64s(vec![self.redux_init]));
        m.global_mut(acc).heap = Some(Heap::Redux);

        for (name, checks) in [("body", true), ("recovery", false)] {
            let mut b = FunctionBuilder::new(name, vec![Type::I64], None);
            let iter = b.param(0);
            for stmt in &self.stmts {
                self.emit_stmt(&mut b, checks, iter, buf, acc, stmt);
            }
            b.ret(None);
            m.add_function(b.finish());
        }
        let body = m.func_by_name("body").unwrap();
        let recovery = m.func_by_name("recovery").unwrap();
        m.plans.push(PlanEntry { body, recovery });

        let mut b = FunctionBuilder::new("main", vec![], None);
        b.intrinsic(
            Intrinsic::ReduxRegister(ReduxOp::SumI64),
            vec![Value::Global(acc), Value::const_i64(8)],
        );
        b.intrinsic(
            Intrinsic::ParallelInvoke(0),
            vec![Value::const_i64(0), Value::const_i64(self.iters)],
        );
        let a = b.load(Type::I64, Value::Global(acc));
        b.print_i64(a);
        for c in 0..self.cells {
            let slot = b.gep_const(Value::Global(buf), (c * self.pitch) as i64);
            let v = b.load(Type::I64, slot);
            b.print_i64(v);
        }
        b.ret(None);
        m.add_function(b.finish());
        privateer_ir::verify::verify_module(&m).expect("generated module verifies");
        m
    }

    /// `&cells[(expr) % cells]` for a dynamic index expression.
    fn cell_slot(&self, b: &mut FunctionBuilder, buf: GlobalId, index: Value) -> Value {
        let idx = b.bin(
            BinOp::SRem,
            Type::I64,
            index,
            Value::const_i64(self.cells as i64),
        );
        b.gep(Value::Global(buf), idx, self.pitch, 0)
    }

    fn emit_stmt(
        &self,
        b: &mut FunctionBuilder,
        checks: bool,
        iter: Value,
        buf: GlobalId,
        acc: GlobalId,
        stmt: &Stmt,
    ) {
        match *stmt {
            Stmt::WriteCells { stride, add, mul } => {
                let scaled = b.mul(Type::I64, iter, Value::const_i64(stride as i64));
                let idx = b.add(Type::I64, scaled, Value::const_i64(add));
                let slot = self.cell_slot(b, buf, idx);
                if checks {
                    b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
                }
                let v = b.mul(Type::I64, iter, Value::const_i64(mul));
                let v = b.add(Type::I64, v, Value::const_i64(add));
                b.store(Type::I64, v, slot);
            }
            Stmt::ReadCellPrint { stride, add } => {
                let scaled = b.mul(Type::I64, iter, Value::const_i64(stride as i64));
                let idx = b.add(Type::I64, scaled, Value::const_i64(add));
                let slot = self.cell_slot(b, buf, idx);
                if checks {
                    b.intrinsic(Intrinsic::PrivateRead, vec![slot, Value::const_i64(8)]);
                }
                let v = b.load(Type::I64, slot);
                b.print_i64(v);
            }
            Stmt::CondWrite {
                modulus,
                threshold,
                cell,
                mul,
            } => {
                let rem = b.bin(
                    BinOp::SRem,
                    Type::I64,
                    iter,
                    Value::const_i64(modulus.max(1)),
                );
                let c = b.icmp(CmpOp::Lt, rem, Value::const_i64(threshold));
                let then = b.new_block();
                let cont = b.new_block();
                b.cond_br(c, then, cont);
                b.switch_to(then);
                let slot = b.gep_const(
                    Value::Global(buf),
                    ((cell % self.cells) * self.pitch) as i64,
                );
                if checks {
                    b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
                }
                let v = b.mul(Type::I64, iter, Value::const_i64(mul));
                b.store(Type::I64, v, slot);
                b.br(cont);
                b.switch_to(cont);
            }
            Stmt::Redux { mul, add } => {
                let a = b.load(Type::I64, Value::Global(acc));
                let v = b.mul(Type::I64, iter, Value::const_i64(mul));
                let v = b.add(Type::I64, v, Value::const_i64(add));
                let a2 = b.add(Type::I64, a, v);
                b.store(Type::I64, a2, Value::Global(acc));
            }
            Stmt::PrintExpr { mul, add } => {
                let v = b.mul(Type::I64, iter, Value::const_i64(mul));
                let v = b.add(Type::I64, v, Value::const_i64(add));
                b.print_i64(v);
            }
            Stmt::ShortLived { leak_at } => {
                let p = b
                    .intrinsic(
                        Intrinsic::HAlloc(Heap::ShortLived),
                        vec![Value::const_i64(16)],
                    )
                    .unwrap();
                if checks {
                    b.intrinsic(Intrinsic::CheckHeap(Heap::ShortLived), vec![p]);
                }
                let v = b.mul(Type::I64, iter, Value::const_i64(3));
                let v = b.add(Type::I64, v, Value::const_i64(1));
                b.store(Type::I64, v, p);
                let back = b.load(Type::I64, p);
                b.print_i64(back);
                match leak_at {
                    Some(at) if checks => {
                        // The speculative body "loses" the free at `at`.
                        let is_at = b.icmp(CmpOp::Eq, iter, Value::const_i64(at));
                        let dofree = b.new_block();
                        let end = b.new_block();
                        b.cond_br(is_at, end, dofree);
                        b.switch_to(dofree);
                        b.intrinsic(Intrinsic::HFree(Heap::ShortLived), vec![p]);
                        b.br(end);
                        b.switch_to(end);
                    }
                    _ => {
                        b.intrinsic(Intrinsic::HFree(Heap::ShortLived), vec![p]);
                    }
                }
            }
            Stmt::CrossIterRead { at, offset } => {
                let c = b.icmp(CmpOp::Eq, iter, Value::const_i64(at));
                let then = b.new_block();
                let cont = b.new_block();
                b.cond_br(c, then, cont);
                b.switch_to(then);
                let idx = b.add(Type::I64, iter, Value::const_i64(offset as i64));
                let slot = self.cell_slot(b, buf, idx);
                if checks {
                    b.intrinsic(Intrinsic::PrivateRead, vec![slot, Value::const_i64(8)]);
                }
                let v = b.load(Type::I64, slot);
                b.print_i64(v);
                b.br(cont);
                b.switch_to(cont);
            }
            Stmt::PredictFail { at } => {
                if checks {
                    let ok = b.icmp(CmpOp::Ne, iter, Value::const_i64(at));
                    b.intrinsic(Intrinsic::Predict, vec![ok]);
                }
            }
            Stmt::WrongHeapCheck { at } => {
                if checks {
                    let c = b.icmp(CmpOp::Eq, iter, Value::const_i64(at));
                    let p = b.select(Type::Ptr, c, Value::Global(buf), Value::Null);
                    b.intrinsic(Intrinsic::CheckHeap(Heap::ShortLived), vec![p]);
                }
            }
            Stmt::RunRmw {
                start,
                len,
                init,
                shift,
                mul,
            } => {
                let start = start % self.cells;
                let len = len.min(self.cells.saturating_sub(start + shift)) as i64;
                let run = b.gep_const(Value::Global(buf), (start * self.pitch) as i64);
                let pitch = self.pitch;
                if init {
                    counted_loop(b, len, |b, j| {
                        let slot = b.gep(run, j, pitch, 0);
                        if checks {
                            b.intrinsic(Intrinsic::PrivateWrite, vec![slot, Value::const_i64(8)]);
                        }
                        b.store(Type::I64, iter, slot);
                    });
                }
                counted_loop(b, len, |b, j| {
                    let src = b.gep(run, j, pitch, 0);
                    if checks {
                        b.intrinsic(Intrinsic::PrivateRead, vec![src, Value::const_i64(8)]);
                    }
                    let x = b.load(Type::I64, src);
                    let v = b.mul(Type::I64, x, Value::const_i64(mul));
                    let v = b.add(Type::I64, v, iter);
                    let dst = b.gep(run, j, pitch, (shift * pitch) as i64);
                    if checks {
                        b.intrinsic(Intrinsic::PrivateWrite, vec![dst, Value::const_i64(8)]);
                    }
                    b.store(Type::I64, v, dst);
                });
            }
            Stmt::GenuineFault { at } => {
                let d = b.sub(Type::I64, iter, Value::const_i64(at));
                let q = b.bin(BinOp::SDiv, Type::I64, Value::const_i64(1), d);
                b.print_i64(q);
            }
        }
    }

    /// Serialize to the `privfuzz-case v1` repro format (one line per
    /// field/statement; `#` comments and blank lines are ignored on
    /// read).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("privfuzz-case v1\n");
        s.push_str(&format!("name {}\n", self.name));
        s.push_str(&format!("iters {}\n", self.iters));
        s.push_str(&format!("cells {}\n", self.cells));
        s.push_str(&format!("pitch {}\n", self.pitch));
        s.push_str(&format!("redux-init {}\n", self.redux_init));
        for st in &self.stmts {
            let line = match *st {
                Stmt::WriteCells { stride, add, mul } => {
                    format!("stmt write stride={stride} add={add} mul={mul}")
                }
                Stmt::ReadCellPrint { stride, add } => {
                    format!("stmt read stride={stride} add={add}")
                }
                Stmt::CondWrite {
                    modulus,
                    threshold,
                    cell,
                    mul,
                } => format!(
                    "stmt condwrite modulus={modulus} threshold={threshold} cell={cell} mul={mul}"
                ),
                Stmt::Redux { mul, add } => format!("stmt redux mul={mul} add={add}"),
                Stmt::PrintExpr { mul, add } => format!("stmt print mul={mul} add={add}"),
                Stmt::ShortLived { leak_at } => match leak_at {
                    Some(at) => format!("stmt shortlived leak_at={at}"),
                    None => "stmt shortlived leak_at=none".to_string(),
                },
                Stmt::CrossIterRead { at, offset } => {
                    format!("stmt crossread at={at} offset={offset}")
                }
                Stmt::PredictFail { at } => format!("stmt predictfail at={at}"),
                Stmt::WrongHeapCheck { at } => format!("stmt wrongheap at={at}"),
                Stmt::RunRmw {
                    start,
                    len,
                    init,
                    shift,
                    mul,
                } => format!(
                    "stmt rmw start={start} len={len} init={} shift={shift} mul={mul}",
                    u8::from(init)
                ),
                Stmt::GenuineFault { at } => format!("stmt fault at={at}"),
            };
            s.push_str(&line);
            s.push('\n');
        }
        s
    }

    /// Parse the [`Self::to_text`] format. Returns a human-readable
    /// error naming the offending line.
    pub fn from_text(text: &str) -> Result<CaseSpec, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some("privfuzz-case v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut spec = CaseSpec {
            name: "replay".to_string(),
            iters: 16,
            cells: 4,
            pitch: 8,
            redux_init: 0,
            stmts: Vec::new(),
        };
        for line in lines {
            let mut words = line.split_whitespace();
            let key = words.next().unwrap_or("");
            let fields: Vec<&str> = words.collect();
            let kv = |name: &str| -> Result<i64, String> {
                fields
                    .iter()
                    .find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
                    .ok_or_else(|| format!("missing {name}= in: {line}"))?
                    .parse()
                    .map_err(|e| format!("bad {name} in {line:?}: {e}"))
            };
            match key {
                "name" => spec.name = fields.first().unwrap_or(&"replay").to_string(),
                "iters" => spec.iters = parse_scalar(line, &fields)?,
                "cells" => spec.cells = parse_scalar(line, &fields)? as u64,
                "pitch" => spec.pitch = parse_scalar(line, &fields)? as u64,
                "redux-init" => spec.redux_init = parse_scalar(line, &fields)?,
                "stmt" => {
                    let stmt = match *fields.first().unwrap_or(&"") {
                        "write" => Stmt::WriteCells {
                            stride: kv("stride")? as u64,
                            add: kv("add")?,
                            mul: kv("mul")?,
                        },
                        "read" => Stmt::ReadCellPrint {
                            stride: kv("stride")? as u64,
                            add: kv("add")?,
                        },
                        "condwrite" => Stmt::CondWrite {
                            modulus: kv("modulus")?,
                            threshold: kv("threshold")?,
                            cell: kv("cell")? as u64,
                            mul: kv("mul")?,
                        },
                        "redux" => Stmt::Redux {
                            mul: kv("mul")?,
                            add: kv("add")?,
                        },
                        "print" => Stmt::PrintExpr {
                            mul: kv("mul")?,
                            add: kv("add")?,
                        },
                        "shortlived" => Stmt::ShortLived {
                            leak_at: match kv("leak_at") {
                                Ok(at) => Some(at),
                                Err(_) if line.contains("leak_at=none") => None,
                                Err(e) => return Err(e),
                            },
                        },
                        "crossread" => Stmt::CrossIterRead {
                            at: kv("at")?,
                            offset: kv("offset")? as u64,
                        },
                        "predictfail" => Stmt::PredictFail { at: kv("at")? },
                        "wrongheap" => Stmt::WrongHeapCheck { at: kv("at")? },
                        "rmw" => Stmt::RunRmw {
                            start: kv("start")? as u64,
                            len: kv("len")? as u64,
                            init: kv("init")? != 0,
                            shift: kv("shift")?.clamp(0, 1) as u64,
                            mul: kv("mul")?,
                        },
                        "fault" => Stmt::GenuineFault { at: kv("at")? },
                        other => return Err(format!("unknown stmt kind {other:?}")),
                    };
                    spec.stmts.push(stmt);
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if spec.iters < 1 || spec.cells == 0 || spec.pitch == 0 {
            return Err("iters, cells and pitch must be positive".to_string());
        }
        Ok(spec)
    }
}

/// Emit `for j in 0..n { body(j) }` at the builder's current block,
/// leaving the builder at the loop's exit.
fn counted_loop(b: &mut FunctionBuilder, n: i64, body: impl FnOnce(&mut FunctionBuilder, Value)) {
    let pre = b.current_block();
    let header = b.new_block();
    let body_bb = b.new_block();
    let exit = b.new_block();
    b.br(header);
    b.switch_to(header);
    let (j, phi) = b.phi(Type::I64);
    b.add_phi_incoming(phi, pre, Value::const_i64(0));
    let c = b.icmp(CmpOp::Lt, j, Value::const_i64(n));
    b.cond_br(c, body_bb, exit);
    b.switch_to(body_bb);
    body(b, j);
    let next = b.add(Type::I64, j, Value::const_i64(1));
    let latch = b.current_block();
    b.add_phi_incoming(phi, latch, next);
    b.br(header);
    b.switch_to(exit);
}

fn parse_scalar(line: &str, fields: &[&str]) -> Result<i64, String> {
    fields
        .first()
        .ok_or_else(|| format!("missing value in: {line}"))?
        .parse()
        .map_err(|e| format!("bad value in {line:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for idx in 0..20 {
            assert_eq!(CaseSpec::generate(42, idx), CaseSpec::generate(42, idx));
        }
        let distinct: std::collections::HashSet<String> = (0..20)
            .map(|i| CaseSpec::generate(42, i).to_text())
            .collect();
        assert!(distinct.len() > 15, "cases should differ across indices");
    }

    #[test]
    fn text_roundtrip_preserves_every_generated_case() {
        for idx in 0..200 {
            let spec = CaseSpec::generate(7, idx);
            let back = CaseSpec::from_text(&spec.to_text()).unwrap();
            assert_eq!(spec, back, "roundtrip of case {idx}");
        }
    }

    #[test]
    fn every_generated_case_builds_a_verified_module() {
        for idx in 0..100 {
            CaseSpec::generate(3, idx).build_module();
        }
    }

    #[test]
    fn from_text_rejects_malformed_input() {
        assert!(CaseSpec::from_text("nonsense").is_err());
        assert!(CaseSpec::from_text("privfuzz-case v1\nstmt warp x=1").is_err());
        assert!(CaseSpec::from_text("privfuzz-case v1\nstmt write stride=1").is_err());
        assert!(CaseSpec::from_text("privfuzz-case v1\ncells 0").is_err());
        let ok = CaseSpec::from_text(
            "privfuzz-case v1\n# comment\nname t\niters 9\nstmt shortlived leak_at=none\n",
        )
        .unwrap();
        assert_eq!(ok.iters, 9);
        assert_eq!(ok.stmts, vec![Stmt::ShortLived { leak_at: None }]);
    }
}
