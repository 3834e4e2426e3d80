//! The decoded form the interpreter executes.
//!
//! [`crate::Interp::new`] decodes every function of a module once into a
//! [`Code`]: per function, a flat, index-addressed array of ops.
//!
//! * **Registers.** A function's frame is a slice of one shared `u64`
//!   register stack: parameters first, then one slot per instruction, one
//!   scratch slot, then the constants the function uses (integer and float
//!   constants, global addresses and null). A call copies the constant
//!   template into the new frame, so every operand is a plain slot index.
//!   Values are raw bits: integers and pointers as `i64` bits, floats as
//!   `f64` bits. Types are fixed at decode time, so each op knows how to
//!   read its operands and no value carries a tag.
//! * **Blocks.** A block's non-phi instructions are followed by one
//!   terminator op. Phis do not become ops: each CFG edge carries the
//!   parallel copy its target's phis perform, sequentialized through the
//!   scratch slot, with the phi's type applied as on a register write.
//! * **Segments.** Instruction counting is per *segment*, not per
//!   instruction: a block is cut after each call, and entering a segment
//!   (at a block entry or a call's return) adds its length to the count at
//!   once. A trap inside a segment takes back the instructions the segment
//!   did not reach, so counts stay exact.
//! * **Loops.** For hooked runs each edge also carries the loops it exits,
//!   the loop whose next iteration it starts (a back edge), and the loops
//!   it enters, precomputed from the function's loop forest.
//!
//! Decoding requires a module that passes
//! [`privateer_ir::verify::verify_module`]: it relies on the verifier for
//! types, dominance and phi/predecessor agreement.

use privateer_ir::cfg::Cfg;
use privateer_ir::dom::DomTree;
use privateer_ir::loops::{LoopId, LoopInfo};
use privateer_ir::verify::value_type;
use privateer_ir::{
    BinOp, BlockId, CastOp, CmpOp, FuncId, Function, InstId, InstKind, Intrinsic, Module, Term,
    Type, Value,
};
use std::collections::HashMap;
use std::ops::Range;

/// A register: an index into the current frame.
pub(crate) type Reg = u32;

/// "No register" (a void call or return).
pub(crate) const NO_REG: Reg = Reg::MAX;

/// One decoded operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// 64-bit `d = a + b` (`I64` and `Ptr`, where results need no
    /// narrowing).
    Add(Reg, Reg, Reg),
    /// 64-bit `d = a - b`.
    Sub(Reg, Reg, Reg),
    /// 64-bit `d = a * b`.
    Mul(Reg, Reg, Reg),
    /// 64-bit `d = a & b`.
    And(Reg, Reg, Reg),
    /// 64-bit `d = a | b`.
    Or(Reg, Reg, Reg),
    /// 64-bit `d = a ^ b`.
    Xor(Reg, Reg, Reg),
    /// Any other integer operator, or any at a narrow width.
    IntBin {
        op: BinOp,
        ty: Type,
        d: Reg,
        a: Reg,
        b: Reg,
    },
    FAdd(Reg, Reg, Reg),
    FSub(Reg, Reg, Reg),
    FMul(Reg, Reg, Reg),
    FDiv(Reg, Reg, Reg),
    Icmp {
        op: CmpOp,
        d: Reg,
        a: Reg,
        b: Reg,
    },
    Fcmp {
        op: CmpOp,
        d: Reg,
        a: Reg,
        b: Reg,
    },
    /// `d = a`, for casts that keep the bits.
    Move(Reg, Reg),
    /// `d = a` narrowed to `ty` (sign-extension and truncation).
    Narrow {
        ty: Type,
        d: Reg,
        a: Reg,
    },
    /// `d = a & mask`, narrowed to `ty`.
    Zext {
        mask: u64,
        ty: Type,
        d: Reg,
        a: Reg,
    },
    SiToFp(Reg, Reg),
    FpToSi {
        ty: Type,
        d: Reg,
        a: Reg,
    },
    /// Loads: `d = mem[p]`; `inst` names the access for hooks.
    Load64 {
        d: Reg,
        p: Reg,
        inst: InstId,
    },
    Load32 {
        d: Reg,
        p: Reg,
        inst: InstId,
    },
    Load8 {
        d: Reg,
        p: Reg,
        inst: InstId,
    },
    Load1 {
        d: Reg,
        p: Reg,
        inst: InstId,
    },
    /// Stores: `mem[p] = v`.
    Store64 {
        v: Reg,
        p: Reg,
        inst: InstId,
    },
    Store32 {
        v: Reg,
        p: Reg,
        inst: InstId,
    },
    Store8 {
        v: Reg,
        p: Reg,
        inst: InstId,
    },
    Alloca {
        d: Reg,
        size: u64,
        inst: InstId,
    },
    Malloc {
        d: Reg,
        size: Reg,
        inst: InstId,
    },
    Free {
        p: Reg,
        inst: InstId,
    },
    Gep {
        d: Reg,
        base: Reg,
        index: Reg,
        scale: i64,
        disp: i64,
    },
    Select {
        ty: Type,
        d: Reg,
        c: Reg,
        t: Reg,
        e: Reg,
    },
    /// An intrinsic call; every intrinsic takes at most two arguments.
    Intrinsic {
        which: Intrinsic,
        d: Reg,
        a: Reg,
        b: Reg,
        inst: InstId,
    },
    /// A call: arguments are `args[first..first + count]` of the function,
    /// `resume` the length of the segment after the call.
    Call {
        callee: FuncId,
        first: u32,
        count: u32,
        d: Reg,
        inst: InstId,
        resume: u32,
    },
    /// Take edge `.0`.
    Jump(u32),
    /// Take edge `t` if `c` is nonzero, else edge `e`; `block` is the
    /// branching block (for hooks).
    Branch {
        c: Reg,
        t: u32,
        e: u32,
        block: u32,
    },
    /// Return `.0`, or nothing if it is [`NO_REG`].
    Ret(Reg),
    /// `unreachable` in block `.0`.
    Unreachable(u32),
}

/// A CFG edge as the interpreter takes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// First op of the target block.
    pub pc: u32,
    /// The target block.
    pub block: u32,
    /// Length of the target block's first segment.
    pub seg: u32,
    /// The phi copies, as a range of [`FuncCode::moves`].
    pub moves: (u32, u32),
}

/// One step of an edge's sequentialized parallel copy: `d = s`, narrowed
/// to `ty`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Move {
    pub d: Reg,
    pub s: Reg,
    pub ty: Type,
}

/// The loop events of a control transfer, for hooked runs: loops left
/// (innermost first), the loop whose next iteration starts (a back edge),
/// and loops entered (outermost first). The lists are ranges of
/// [`FuncCode::loop_ids`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Transfer {
    pub exits: Range<usize>,
    pub back: bool,
    pub enters: Range<usize>,
}

/// One decoded function.
#[derive(Debug)]
pub(crate) struct FuncCode {
    pub ops: Vec<Op>,
    pub edges: Vec<Edge>,
    /// Loop events per edge (parallel to `edges`).
    pub transfers: Vec<Transfer>,
    /// Loop events of entering the function.
    pub entry_transfer: Transfer,
    pub loop_ids: Vec<LoopId>,
    pub moves: Vec<Move>,
    /// Call argument registers.
    pub args: Vec<Reg>,
    /// Values of the constant slots `const_base..nregs`.
    pub consts: Vec<u64>,
    pub nparams: usize,
    pub const_base: usize,
    pub nregs: usize,
    /// Length of the entry block's first segment.
    pub entry_seg: u32,
    /// Whether the function returns `f64`.
    pub ret_float: bool,
    /// This function's first slot in the module's loop-invocation table.
    pub loop_base: usize,
}

/// A module decoded for the interpreter: shared (behind an `Arc`) by every
/// interpreter that runs the module, including the engine's workers and
/// its sequential recovery.
#[derive(Debug)]
pub struct Code {
    pub(crate) funcs: Vec<FuncCode>,
    /// Address of each global, indexed by `GlobalId`.
    pub(crate) global_addrs: Vec<u64>,
    /// Loops in the whole module.
    pub(crate) loops: usize,
}

impl Code {
    /// Decode every function of `module`, whose globals live at
    /// `global_addrs` (from [`crate::load_module`]).
    ///
    /// `module` must pass [`privateer_ir::verify::verify_module`].
    pub(crate) fn new(module: &Module, global_addrs: &[u64]) -> Code {
        let mut loops = 0;
        let funcs = module
            .functions
            .iter()
            .map(|func| {
                let f = decode(func, global_addrs, loops);
                loops += f.1;
                f.0
            })
            .collect();
        Code {
            funcs,
            global_addrs: global_addrs.to_vec(),
            loops,
        }
    }
}

/// `v` narrowed to `ty` under the register convention (narrow integers
/// live sign-extended, booleans as 0/1).
#[inline(always)]
pub(crate) fn narrow(ty: Type, v: u64) -> u64 {
    match ty {
        Type::I1 => v & 1,
        Type::I8 => v as i8 as u64,
        Type::I32 => v as i32 as u64,
        Type::I64 | Type::Ptr | Type::F64 => v,
    }
}

fn width_bits(ty: Type) -> u32 {
    match ty {
        Type::I1 => 1,
        Type::I8 => 8,
        Type::I32 => 32,
        Type::I64 | Type::Ptr | Type::F64 => 64,
    }
}

/// Evaluate an integer operator at `ty`.
pub(crate) fn int_bin(op: BinOp, ty: Type, x: i64, y: i64) -> Result<i64, crate::Trap> {
    let bits = width_bits(ty);
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let r = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::SDiv | BinOp::SRem if y == 0 => return Err(crate::Trap::DivByZero),
        BinOp::SDiv => x.wrapping_div(y),
        BinOp::SRem => x.wrapping_rem(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl((y as u32) % bits),
        // Logical shift operates on the value truncated to its width.
        BinOp::LShr => (((x as u64) & mask) >> ((y as u32) % bits)) as i64,
        BinOp::AShr => x >> ((y as u32) % bits),
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
            unreachable!("float operator decoded as an integer op")
        }
    };
    Ok(narrow(ty, r as u64) as i64)
}

/// Register assignment of one function while it is decoded.
struct Regs<'a> {
    func: &'a Function,
    global_addrs: &'a [u64],
    const_base: usize,
    consts: Vec<u64>,
    slots: HashMap<u64, Reg>,
}

impl Regs<'_> {
    fn inst(&self, i: InstId) -> Reg {
        (self.func.params.len() + i.index()) as Reg
    }

    fn scratch(&self) -> Reg {
        (self.const_base - 1) as Reg
    }

    /// The register holding `v`; constants get a slot of their own.
    fn of(&mut self, v: Value) -> Reg {
        let bits = match v {
            Value::Inst(i) if i.index() < self.func.insts.len() => return self.inst(i),
            Value::Param(n) if (n as usize) < self.func.params.len() => return n,
            Value::ConstInt(k, ty) => narrow(ty, k as u64),
            Value::ConstF64(bits) => bits,
            Value::Global(g) => self.global_addrs.get(g.index()).copied().unwrap_or(0),
            // Out-of-range operands only occur in modules that do not
            // verify; they read as zero.
            Value::Inst(_) | Value::Param(_) | Value::Null => 0,
        };
        let next = (self.const_base + self.consts.len()) as Reg;
        *self.slots.entry(bits).or_insert_with(|| {
            self.consts.push(bits);
            next
        })
    }
}

/// Decode `func`, whose loops start at `loop_base` in the module's
/// invocation table. Returns the code and the function's loop count.
fn decode(func: &Function, global_addrs: &[u64], loop_base: usize) -> (FuncCode, usize) {
    let nparams = func.params.len();
    let const_base = nparams + func.insts.len() + 1;
    let mut regs = Regs {
        func,
        global_addrs,
        const_base,
        consts: Vec::new(),
        slots: HashMap::new(),
    };

    // Block layout: non-phi instructions, then the terminator.
    let is_phi = |i: InstId| matches!(func.inst(i).kind, InstKind::Phi(..));
    let mut block_pc = Vec::with_capacity(func.blocks.len());
    let mut pc = 0u32;
    for b in &func.blocks {
        block_pc.push(pc);
        pc += b.insts.iter().filter(|&&i| !is_phi(i)).count() as u32 + 1;
    }
    // Segment lengths: from each block start and after each call, up to
    // and including the next call, or to the block's end.
    let seg_from = |b: BlockId, after: usize| -> u32 {
        let body = func.block(b).insts.iter().filter(|&&i| !is_phi(i));
        let mut n = 0;
        for &i in body.skip(after) {
            n += 1;
            if matches!(func.inst(i).kind, InstKind::Call(..)) {
                break;
            }
        }
        n
    };

    let loops = LoopForest::new(func);
    let mut code = FuncCode {
        ops: Vec::with_capacity(pc as usize),
        edges: Vec::new(),
        transfers: Vec::new(),
        entry_transfer: Transfer::default(),
        loop_ids: Vec::new(),
        moves: Vec::new(),
        args: Vec::new(),
        consts: Vec::new(),
        nparams,
        const_base,
        nregs: 0,
        entry_seg: seg_from(func.entry(), 0),
        ret_float: func.ret == Some(Type::F64),
        loop_base,
    };
    code.entry_transfer = loops.transfer(None, func.entry(), &mut code.loop_ids);

    for (bi, block) in func.blocks.iter().enumerate() {
        let bb = BlockId::new(bi);
        for (pos, &i) in block.insts.iter().filter(|&&i| !is_phi(i)).enumerate() {
            let resume = || seg_from(bb, pos + 1);
            let op = decode_inst(func, i, &mut regs, &mut code.args, resume);
            code.ops.push(op);
        }
        let edge = |to: BlockId, code: &mut FuncCode, regs: &mut Regs<'_>| -> u32 {
            let start = code.moves.len() as u32;
            phi_moves(func, bb, to, regs, &mut code.moves);
            code.edges.push(Edge {
                pc: block_pc[to.index()],
                block: to.index() as u32,
                seg: seg_from(to, 0),
                moves: (start, code.moves.len() as u32),
            });
            let t = loops.transfer(Some(bb), to, &mut code.loop_ids);
            code.transfers.push(t);
            (code.edges.len() - 1) as u32
        };
        let term = match &block.term {
            Term::Ret(v) => Op::Ret(v.map_or(NO_REG, |v| regs.of(v))),
            Term::Br(t) => Op::Jump(edge(*t, &mut code, &mut regs)),
            Term::CondBr(c, t, e) => {
                let c = regs.of(*c);
                let t = edge(*t, &mut code, &mut regs);
                let e = edge(*e, &mut code, &mut regs);
                Op::Branch {
                    c,
                    t,
                    e,
                    block: bi as u32,
                }
            }
            Term::Unreachable => Op::Unreachable(bi as u32),
        };
        code.ops.push(term);
    }
    code.nregs = const_base + regs.consts.len();
    code.consts = regs.consts;
    (code, loops.count)
}

fn decode_inst(
    func: &Function,
    i: InstId,
    regs: &mut Regs<'_>,
    args: &mut Vec<Reg>,
    resume: impl FnOnce() -> u32,
) -> Op {
    let inst = func.inst(i);
    let d = regs.inst(i);
    let id = i;
    let wide = |ty: Option<Type>| matches!(ty, Some(Type::I64 | Type::Ptr));
    match &inst.kind {
        InstKind::Phi(..) => unreachable!("phis decode into edge moves"),
        InstKind::Bin(op, a, b) => {
            let ty = inst.ty.expect("binop type");
            let (a, b) = (regs.of(*a), regs.of(*b));
            match op {
                BinOp::Add if wide(inst.ty) => Op::Add(d, a, b),
                BinOp::Sub if wide(inst.ty) => Op::Sub(d, a, b),
                BinOp::Mul if wide(inst.ty) => Op::Mul(d, a, b),
                BinOp::And if wide(inst.ty) => Op::And(d, a, b),
                BinOp::Or if wide(inst.ty) => Op::Or(d, a, b),
                BinOp::Xor if wide(inst.ty) => Op::Xor(d, a, b),
                BinOp::FAdd => Op::FAdd(d, a, b),
                BinOp::FSub => Op::FSub(d, a, b),
                BinOp::FMul => Op::FMul(d, a, b),
                BinOp::FDiv => Op::FDiv(d, a, b),
                _ => Op::IntBin {
                    op: *op,
                    ty,
                    d,
                    a,
                    b,
                },
            }
        }
        InstKind::Icmp(op, a, b) => Op::Icmp {
            op: *op,
            d,
            a: regs.of(*a),
            b: regs.of(*b),
        },
        InstKind::Fcmp(op, a, b) => Op::Fcmp {
            op: *op,
            d,
            a: regs.of(*a),
            b: regs.of(*b),
        },
        InstKind::Cast(op, v, to) => {
            let bits = value_type(func, *v).map_or(64, width_bits);
            let a = regs.of(*v);
            let to = *to;
            match op {
                CastOp::Zext => Op::Zext {
                    mask: if bits == 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    },
                    ty: to,
                    d,
                    a,
                },
                CastOp::Sext | CastOp::Trunc if width_bits(to) < 64 => Op::Narrow { ty: to, d, a },
                CastOp::SiToFp => Op::SiToFp(d, a),
                CastOp::FpToSi => Op::FpToSi { ty: to, d, a },
                CastOp::Sext
                | CastOp::Trunc
                | CastOp::PtrToInt
                | CastOp::IntToPtr
                | CastOp::Bitcast => Op::Move(d, a),
            }
        }
        InstKind::Load(ty, p) => {
            let p = regs.of(*p);
            match ty {
                Type::I1 => Op::Load1 { d, p, inst: id },
                Type::I8 => Op::Load8 { d, p, inst: id },
                Type::I32 => Op::Load32 { d, p, inst: id },
                Type::I64 | Type::Ptr | Type::F64 => Op::Load64 { d, p, inst: id },
            }
        }
        InstKind::Store(ty, v, p) => {
            let (v, p) = (regs.of(*v), regs.of(*p));
            match ty {
                Type::I1 | Type::I8 => Op::Store8 { v, p, inst: id },
                Type::I32 => Op::Store32 { v, p, inst: id },
                Type::I64 | Type::Ptr | Type::F64 => Op::Store64 { v, p, inst: id },
            }
        }
        InstKind::Alloca { size, .. } => Op::Alloca {
            d,
            size: *size,
            inst: id,
        },
        InstKind::Malloc(size) => Op::Malloc {
            d,
            size: regs.of(*size),
            inst: id,
        },
        InstKind::Free(p) => Op::Free {
            p: regs.of(*p),
            inst: id,
        },
        InstKind::Gep {
            base,
            index,
            scale,
            disp,
        } => Op::Gep {
            d,
            base: regs.of(*base),
            index: regs.of(*index),
            scale: *scale as i64,
            disp: *disp,
        },
        InstKind::Select(ty, c, t, e) => Op::Select {
            ty: *ty,
            d,
            c: regs.of(*c),
            t: regs.of(*t),
            e: regs.of(*e),
        },
        InstKind::CallIntrinsic(which, call_args) => {
            let mut arg = |k: usize| call_args.get(k).map_or(NO_REG, |&v| regs.of(v));
            Op::Intrinsic {
                which: *which,
                a: arg(0),
                b: arg(1),
                d,
                inst: id,
            }
        }
        InstKind::Call(callee, call_args) => {
            let first = args.len() as u32;
            args.extend(call_args.iter().map(|&v| regs.of(v)));
            Op::Call {
                callee: *callee,
                first,
                count: call_args.len() as u32,
                d: if inst.ty.is_some() { d } else { NO_REG },
                inst: id,
                resume: resume(),
            }
        }
    }
}

/// Append the copies the phis of `to` perform on the edge `from → to`,
/// sequentialized: every phi reads the value its source had before any of
/// the edge's phis was written.
fn phi_moves(
    func: &Function,
    from: BlockId,
    to: BlockId,
    regs: &mut Regs<'_>,
    out: &mut Vec<Move>,
) {
    let mut pending: Vec<Move> = Vec::new();
    for &i in &func.block(to).insts {
        let InstKind::Phi(ty, incoming) = &func.inst(i).kind else {
            break;
        };
        // A phi without an entry for this edge (only in modules that do
        // not verify) keeps its value.
        if let Some(&(_, v)) = incoming.iter().find(|(pred, _)| *pred == from) {
            let s = regs.of(v);
            pending.push(Move {
                d: regs.inst(i),
                s,
                ty: *ty,
            });
        }
    }
    let scratch = regs.scratch();
    while !pending.is_empty() {
        // A copy is safe to emit once no other pending copy reads its
        // destination.
        let ready = (0..pending.len()).find(|&k| {
            let d = pending[k].d;
            pending.iter().enumerate().all(|(j, m)| j == k || m.s != d)
        });
        match ready {
            Some(k) => out.push(pending.remove(k)),
            None => {
                // Every destination is still read: a cycle. Save one
                // destination in the scratch slot and redirect its readers.
                let d = pending[0].d;
                out.push(Move {
                    d: scratch,
                    s: d,
                    ty: Type::I64,
                });
                for m in pending.iter_mut().skip(1) {
                    if m.s == d {
                        m.s = scratch;
                    }
                }
            }
        }
    }
}

/// A function's loop forest, as the interpreter's loop events need it.
struct LoopForest {
    /// Loop chain (outermost → innermost) containing each block.
    chains: Vec<Vec<LoopId>>,
    /// The loop whose header is each block.
    header_of: Vec<Option<LoopId>>,
    count: usize,
}

impl LoopForest {
    fn new(func: &Function) -> LoopForest {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(func, &cfg);
        let li = LoopInfo::new(func, &cfg, &dom);
        let mut header_of = vec![None; func.blocks.len()];
        for (id, lp) in li.iter() {
            header_of[lp.header.index()] = Some(id);
        }
        let chains = (0..func.blocks.len())
            .map(|bb| {
                let mut chain = Vec::new();
                let mut cur = li.innermost(BlockId::new(bb));
                while let Some(l) = cur {
                    chain.push(l);
                    cur = li.get(l).parent;
                }
                chain.reverse();
                chain
            })
            .collect();
        LoopForest {
            chains,
            header_of,
            count: li.len(),
        }
    }

    /// The loop events of a transfer from `prev` (`None`: function entry)
    /// to `next`, with their loop lists appended to `ids`.
    fn transfer(&self, prev: Option<BlockId>, next: BlockId, ids: &mut Vec<LoopId>) -> Transfer {
        let prev_chain: &[LoopId] = prev.map_or(&[], |p| &self.chains[p.index()]);
        let next_chain = &self.chains[next.index()];
        let common = prev_chain
            .iter()
            .zip(next_chain)
            .take_while(|(a, b)| a == b)
            .count();
        let start = ids.len();
        ids.extend(prev_chain[common..].iter().rev());
        let exits = start..ids.len();
        let back = prev.is_some()
            && common > 0
            && self.header_of[next.index()] == Some(next_chain[common - 1]);
        let start = ids.len();
        ids.extend(&next_chain[common..]);
        Transfer {
            exits,
            back,
            enters: start..ids.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_ir::builder::FunctionBuilder;

    #[test]
    fn swap_cycle_goes_through_scratch() {
        // Two phis that swap on the back edge need a third slot.
        let mut b = FunctionBuilder::new("f", vec![], None);
        let header = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (x, x_phi) = b.phi(Type::I64);
        let (y, y_phi) = b.phi(Type::I64);
        b.add_phi_incoming(x_phi, b.entry_block(), Value::const_i64(1));
        b.add_phi_incoming(y_phi, b.entry_block(), Value::const_i64(2));
        b.add_phi_incoming(x_phi, header, y);
        b.add_phi_incoming(y_phi, header, x);
        b.br(header);
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let code = Code::new(&m, &[]);
        let f = &code.funcs[0];
        // The entry edge decodes first, the back edge second.
        let back = &f.edges[1];
        assert_eq!(back.block, 1);
        let (s, e) = back.moves;
        assert_eq!(e - s, 3, "a two-cycle takes three copies");
        assert_eq!(f.moves[s as usize].d as usize, f.const_base - 1);
    }
}
