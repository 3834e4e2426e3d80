//! The IR interpreter.
//!
//! Generic over [`Hooks`] (profiling instrumentation) and [`RuntimeIface`]
//! (speculation runtime), both statically dispatched so production runs pay
//! nothing for the seams.

use crate::hooks::{AllocKind, ExecCtx, Hooks, LoopFrame};
use crate::mem::{AddressSpace, GLOBAL_BASE, PAGE_SIZE};
use crate::runtime::RuntimeIface;
use crate::trap::Trap;
use crate::val::Val;
use privateer_ir::cfg::Cfg;
use privateer_ir::dom::DomTree;
use privateer_ir::loops::{LoopId, LoopInfo};
use privateer_ir::verify::value_type;
use privateer_ir::{
    BinOp, BlockId, CastOp, CmpOp, FuncId, Function, Heap, InstId, InstKind, Intrinsic, Module,
    Term, Type, Value,
};
use std::collections::HashMap;

/// A module laid out in memory: globals placed (including heap-assigned
/// globals, per the replace-allocation transformation §4.4) and
/// initialized.
///
/// Workers fork [`ProgramImage::mem`]-derived spaces; addresses of globals
/// are identical in every fork, which is what gives the system replacement
/// transparency.
#[derive(Debug, Clone)]
pub struct ProgramImage {
    /// Address of each global, indexed by `GlobalId`.
    pub global_addrs: Vec<u64>,
    /// Memory with global initializers applied.
    pub mem: AddressSpace,
    /// For each logical heap, the first address *after* statically placed
    /// globals — heap allocators must start here.
    pub heap_start: HashMap<Heap, u64>,
}

/// Lay out and initialize the module's globals.
pub fn load_module(module: &Module) -> ProgramImage {
    let mut mem = AddressSpace::new();
    let mut global_addrs = Vec::with_capacity(module.globals.len());
    let mut untagged_next = GLOBAL_BASE;
    let mut heap_start: HashMap<Heap, u64> = HashMap::new();
    for g in &module.globals {
        let next = match g.heap {
            None => &mut untagged_next,
            Some(h) => heap_start.entry(h).or_insert(h.base() + PAGE_SIZE),
        };
        let addr = *next;
        *next += (g.size.max(1) + 15) & !15;
        global_addrs.push(addr);
        let bytes = g.init.to_bytes(g.size);
        if bytes.iter().any(|&b| b != 0) {
            mem.write_bytes(addr, &bytes);
        }
    }
    for h in Heap::ALL {
        heap_start.entry(h).or_insert(h.base() + PAGE_SIZE);
    }
    ProgramImage {
        global_addrs,
        mem,
        heap_start,
    }
}

/// Counters kept by the interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Instructions executed.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

/// Per-function control-flow metadata the interpreter precomputes.
#[derive(Debug)]
struct FuncMeta {
    /// Loop chain (outermost → innermost) containing each block.
    block_loops: Vec<Vec<LoopId>>,
    /// `LoopId` whose header is the block, per block.
    header_of: Vec<Option<LoopId>>,
}

fn func_meta(func: &Function) -> FuncMeta {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);
    let li = LoopInfo::new(func, &cfg, &dom);
    let n = func.blocks.len();
    let mut block_loops = vec![Vec::new(); n];
    let mut header_of = vec![None; n];
    for (id, lp) in li.iter() {
        header_of[lp.header.index()] = Some(id);
    }
    for (bb, chain_slot) in block_loops.iter_mut().enumerate() {
        // Chain: walk from innermost outward, then reverse.
        let mut chain = Vec::new();
        let mut cur = li.innermost(BlockId::new(bb));
        while let Some(l) = cur {
            chain.push(l);
            cur = li.get(l).parent;
        }
        chain.reverse();
        *chain_slot = chain;
    }
    FuncMeta {
        block_loops,
        header_of,
    }
}

/// The interpreter.
///
/// # Example
///
/// ```
/// use privateer_ir::{builder::FunctionBuilder, Module, Type, Value};
/// use privateer_vm::interp::{load_module, Interp};
/// use privateer_vm::hooks::NopHooks;
/// use privateer_vm::runtime::BasicRuntime;
///
/// let mut module = Module::new("demo");
/// let mut b = FunctionBuilder::new("main", vec![], None);
/// b.print_i64(Value::const_i64(42));
/// b.ret(None);
/// module.add_function(b.finish());
///
/// let image = load_module(&module);
/// let mut interp = Interp::new(&module, &image, NopHooks, BasicRuntime::strict());
/// interp.run_main().unwrap();
/// assert_eq!(interp.rt.output_bytes(), b"42\n");
/// ```
pub struct Interp<'m, H, R> {
    module: &'m Module,
    /// The simulated address space (owned; fork it for workers).
    pub mem: AddressSpace,
    /// Profiling hooks.
    pub hooks: H,
    /// Speculation runtime.
    pub rt: R,
    /// Execution counters.
    pub stats: InterpStats,
    global_addrs: Vec<u64>,
    meta: Vec<FuncMeta>,
    ctx: ExecCtx,
    loop_invocations: HashMap<(FuncId, LoopId), u64>,
    steps: u64,
    step_limit: u64,
}

impl<'m, H: Hooks, R: RuntimeIface> Interp<'m, H, R> {
    /// Create an interpreter over a fork of the image's memory.
    pub fn new(module: &'m Module, image: &ProgramImage, hooks: H, rt: R) -> Interp<'m, H, R> {
        Interp::with_mem(
            module,
            image.mem.fork(),
            image.global_addrs.clone(),
            hooks,
            rt,
        )
    }

    /// Create an interpreter over an explicit memory (worker forks,
    /// sequential recovery). Stack and `malloc` allocation continue from
    /// `mem`'s allocators.
    pub fn with_mem(
        module: &'m Module,
        mem: AddressSpace,
        global_addrs: Vec<u64>,
        hooks: H,
        rt: R,
    ) -> Interp<'m, H, R> {
        let meta = module.functions.iter().map(func_meta).collect();
        Interp {
            module,
            mem,
            hooks,
            rt,
            stats: InterpStats::default(),
            global_addrs,
            meta,
            ctx: ExecCtx::default(),
            loop_invocations: HashMap::new(),
            steps: 0,
            step_limit: u64::MAX,
        }
    }

    /// Limit execution to `limit` instructions ([`Trap::StepLimit`] after).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// The module being executed.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Address of a global.
    pub fn global_addr(&self, g: privateer_ir::GlobalId) -> u64 {
        self.global_addrs[g.index()]
    }

    /// Run `main()`.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution, or [`Trap::Internal`] if the
    /// module has no `main`.
    pub fn run_main(&mut self) -> Result<(), Trap> {
        let main = self
            .module
            .main()
            .ok_or_else(|| Trap::Internal("module has no `main`".into()))?;
        self.call_function(main, &[])?;
        Ok(())
    }

    /// Call an arbitrary function with arguments (the DOALL engine uses
    /// this to invoke outlined loop bodies).
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution.
    pub fn call_function(&mut self, func: FuncId, args: &[Val]) -> Result<Option<Val>, Trap> {
        self.ctx.call_stack.push((func, None));
        let result = self.exec_function(func, args.to_vec());
        self.ctx.call_stack.pop();
        result
    }

    fn resolve(
        &self,
        func: &Function,
        regs: &[Option<Val>],
        args: &[Val],
        v: Value,
    ) -> Result<Val, Trap> {
        match v {
            Value::Inst(i) => regs[i.index()]
                .ok_or_else(|| Trap::UndefValue(format!("%{} in `{}`", i.index(), func.name))),
            Value::Param(n) => args
                .get(n as usize)
                .copied()
                .ok_or_else(|| Trap::UndefValue(format!("parameter {n} of `{}`", func.name))),
            Value::ConstInt(k, ty) => Ok(Val::Int(k).normalize(ty)),
            Value::ConstF64(bits) => Ok(Val::Float(f64::from_bits(bits))),
            Value::Global(g) => Ok(Val::ptr(self.global_addrs[g.index()])),
            Value::Null => Ok(Val::Int(0)),
        }
    }

    /// Handle loop-nest bookkeeping for a control transfer within `func_id`
    /// from `prev` to `next` (`prev = None` on function entry).
    fn note_transfer(
        &mut self,
        func_id: FuncId,
        prev: Option<BlockId>,
        next: BlockId,
        floor: usize,
    ) {
        let meta = &self.meta[func_id.index()];
        let empty: &[LoopId] = &[];
        let prev_chain: &[LoopId] = match prev {
            Some(p) => &meta.block_loops[p.index()],
            None => empty,
        };
        let next_chain: &[LoopId] = &meta.block_loops[next.index()];
        let mut common = 0usize;
        while common < prev_chain.len()
            && common < next_chain.len()
            && prev_chain[common] == next_chain[common]
        {
            common += 1;
        }
        // Exit abandoned loops, innermost first.
        for &l in prev_chain[common..].iter().rev() {
            debug_assert!(self.ctx.loop_stack.len() > floor);
            let frame = self.ctx.loop_stack.pop().expect("loop stack underflow");
            debug_assert_eq!(frame.loop_id, l);
            self.hooks
                .on_loop_exit(&self.ctx, func_id, l, frame.iter + 1);
        }
        // Back edge to the header of a still-active loop?
        if common > 0
            && meta.header_of[next.index()] == Some(next_chain[common - 1])
            && prev.is_some()
        {
            let top = self.ctx.loop_stack.last_mut().expect("active loop frame");
            top.iter += 1;
            let (l, iter) = (top.loop_id, top.iter);
            self.hooks
                .on_loop_iter(&self.ctx, func_id, l, iter, &self.mem);
        }
        // Enter new loops, outermost first.
        for &l in &next_chain[common..] {
            let inv = self
                .loop_invocations
                .entry((func_id, l))
                .and_modify(|c| *c += 1)
                .or_insert(1);
            let frame = LoopFrame {
                func: func_id,
                loop_id: l,
                invocation: *inv,
                iter: 0,
            };
            self.ctx.loop_stack.push(frame);
            self.hooks.on_loop_enter(&self.ctx, func_id, l);
            self.hooks.on_loop_iter(&self.ctx, func_id, l, 0, &self.mem);
        }
    }

    fn exec_function(&mut self, func_id: FuncId, args: Vec<Val>) -> Result<Option<Val>, Trap> {
        let func: &'m Function = self.module.func(func_id);
        let mut regs: Vec<Option<Val>> = vec![None; func.insts.len()];
        let mut allocas: Vec<u64> = Vec::new();
        let loop_floor = self.ctx.loop_stack.len();

        let mut prev: Option<BlockId> = None;
        let mut cur = func.entry();
        let ret = 'outer: loop {
            self.note_transfer(func_id, prev, cur, loop_floor);
            self.hooks.on_block(&self.ctx, func_id, cur);
            let block = func.block(cur);

            // Phis evaluate as a parallel copy based on the edge taken.
            if let Some(p) = prev {
                let mut updates: Vec<(InstId, Val)> = Vec::new();
                for &i in &block.insts {
                    if let InstKind::Phi(ty, incoming) = &func.inst(i).kind {
                        let (_, v) =
                            incoming
                                .iter()
                                .find(|(pred, _)| *pred == p)
                                .ok_or_else(|| {
                                    Trap::Internal(format!(
                                        "phi %{} has no incoming edge from {p}",
                                        i.index()
                                    ))
                                })?;
                        let val = self.resolve(func, &regs, &args, *v)?.normalize(*ty);
                        updates.push((i, val));
                    } else {
                        break;
                    }
                }
                for (i, v) in updates {
                    regs[i.index()] = Some(v);
                }
            }

            for &i in &block.insts {
                let inst = func.inst(i);
                if matches!(inst.kind, InstKind::Phi(..)) {
                    continue;
                }
                self.steps += 1;
                self.stats.insts += 1;
                if self.steps > self.step_limit {
                    return Err(Trap::StepLimit);
                }
                let out = self.exec_inst(func_id, func, &mut regs, &args, &mut allocas, i)?;
                regs[i.index()] = out;
            }

            match &block.term {
                Term::Ret(v) => {
                    let rv = match v {
                        Some(v) => Some(self.resolve(func, &regs, &args, *v)?),
                        None => None,
                    };
                    break 'outer rv;
                }
                Term::Br(t) => {
                    prev = Some(cur);
                    cur = *t;
                }
                Term::CondBr(c, t, e) => {
                    let taken = self.resolve(func, &regs, &args, *c)?.as_bool();
                    self.hooks.on_cond_branch(&self.ctx, func_id, cur, taken);
                    prev = Some(cur);
                    cur = if taken { *t } else { *e };
                }
                Term::Unreachable => {
                    return Err(Trap::Internal(format!(
                        "reached `unreachable` in `{}` {cur}",
                        func.name
                    )))
                }
            }
        };

        // Unwind loop frames this function still holds (ret inside a loop).
        while self.ctx.loop_stack.len() > loop_floor {
            let frame = self.ctx.loop_stack.pop().expect("loop stack underflow");
            self.hooks
                .on_loop_exit(&self.ctx, func_id, frame.loop_id, frame.iter + 1);
        }
        for a in allocas {
            self.mem
                .stack
                .free(a)
                .map_err(|e| Trap::AllocError(e.to_string()))?;
        }
        Ok(ret)
    }

    fn check_addr(addr: u64) -> Result<(), Trap> {
        if addr < PAGE_SIZE {
            Err(Trap::NullDeref { addr })
        } else {
            Ok(())
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inst(
        &mut self,
        func_id: FuncId,
        func: &'m Function,
        regs: &mut [Option<Val>],
        args: &[Val],
        allocas: &mut Vec<u64>,
        i: InstId,
    ) -> Result<Option<Val>, Trap> {
        let inst = func.inst(i);
        let rv = |v: Val| -> Result<Option<Val>, Trap> { Ok(Some(v)) };
        match &inst.kind {
            InstKind::Phi(..) => unreachable!("phis handled at block entry"),
            InstKind::Bin(op, a, b) => {
                let ty = inst.ty.expect("binop type");
                let a = self.resolve(func, regs, args, *a)?;
                let b = self.resolve(func, regs, args, *b)?;
                rv(eval_bin(*op, ty, a, b)?)
            }
            InstKind::Icmp(op, a, b) => {
                let a = self.resolve(func, regs, args, *a)?.as_int();
                let b = self.resolve(func, regs, args, *b)?.as_int();
                rv(Val::Int(op.eval(a.cmp(&b)) as i64))
            }
            InstKind::Fcmp(op, a, b) => {
                let a = self.resolve(func, regs, args, *a)?.as_f64();
                let b = self.resolve(func, regs, args, *b)?.as_f64();
                let r = match a.partial_cmp(&b) {
                    Some(ord) => op.eval(ord),
                    None => *op == CmpOp::Ne, // unordered
                };
                rv(Val::Int(r as i64))
            }
            InstKind::Cast(op, v, to) => {
                let src_ty = value_type(func, *v);
                let val = self.resolve(func, regs, args, *v)?;
                rv(eval_cast(*op, src_ty, val, *to))
            }
            InstKind::Load(ty, p) => {
                let addr = self.resolve(func, regs, args, *p)?.as_ptr();
                Self::check_addr(addr)?;
                self.stats.loads += 1;
                let val = load_typed(&self.mem, *ty, addr);
                self.hooks
                    .on_load(&self.ctx, func_id, i, addr, ty.size(), &self.mem);
                rv(val)
            }
            InstKind::Store(ty, v, p) => {
                let addr = self.resolve(func, regs, args, *p)?.as_ptr();
                Self::check_addr(addr)?;
                let val = self.resolve(func, regs, args, *v)?;
                self.stats.stores += 1;
                self.hooks
                    .on_store(&self.ctx, func_id, i, addr, ty.size(), &self.mem);
                store_typed(&mut self.mem, *ty, addr, val);
                Ok(None)
            }
            InstKind::Alloca { size, .. } => {
                let addr = self
                    .mem
                    .stack
                    .alloc(*size)
                    .map_err(|e| Trap::AllocError(e.to_string()))?;
                // Stack slots start zeroed each activation (freed slots may
                // be reused).
                self.mem.fill(addr, *size, 0);
                allocas.push(addr);
                self.hooks
                    .on_alloc(&self.ctx, func_id, i, addr, *size, AllocKind::Alloca);
                rv(Val::ptr(addr))
            }
            InstKind::Malloc(size) => {
                let size = self.resolve(func, regs, args, *size)?.as_int().max(0) as u64;
                let addr = self
                    .mem
                    .malloc
                    .alloc(size)
                    .map_err(|e| Trap::AllocError(e.to_string()))?;
                // C malloc does not zero; reused blocks keep stale bytes.
                self.hooks
                    .on_alloc(&self.ctx, func_id, i, addr, size, AllocKind::Malloc);
                rv(Val::ptr(addr))
            }
            InstKind::Free(p) => {
                let addr = self.resolve(func, regs, args, *p)?.as_ptr();
                if addr == 0 {
                    return Ok(None); // free(NULL) is a no-op
                }
                self.hooks.on_free(&self.ctx, func_id, i, addr);
                self.mem
                    .malloc
                    .free(addr)
                    .map_err(|e| Trap::AllocError(e.to_string()))?;
                Ok(None)
            }
            InstKind::Gep {
                base,
                index,
                scale,
                disp,
            } => {
                let base = self.resolve(func, regs, args, *base)?.as_ptr();
                let index = self.resolve(func, regs, args, *index)?.as_int();
                let addr = (base as i64)
                    .wrapping_add(index.wrapping_mul(*scale as i64))
                    .wrapping_add(*disp) as u64;
                rv(Val::ptr(addr))
            }
            InstKind::Call(callee, call_args) => {
                let mut vals = Vec::with_capacity(call_args.len());
                for &a in call_args {
                    vals.push(self.resolve(func, regs, args, a)?);
                }
                self.hooks.on_call(&self.ctx, func_id, i, *callee);
                self.ctx.call_stack.push((*callee, Some(i)));
                let r = self.exec_function(*callee, vals);
                self.ctx.call_stack.pop();
                self.hooks.on_ret(&self.ctx, *callee);
                r
            }
            InstKind::CallIntrinsic(which, call_args) => {
                let mut vals = Vec::with_capacity(call_args.len());
                for &a in call_args {
                    vals.push(self.resolve(func, regs, args, a)?);
                }
                self.exec_intrinsic(func_id, i, *which, &vals)
            }
            InstKind::Select(ty, c, t, e) => {
                let c = self.resolve(func, regs, args, *c)?.as_bool();
                let v = if c {
                    self.resolve(func, regs, args, *t)?
                } else {
                    self.resolve(func, regs, args, *e)?
                };
                rv(v.normalize(*ty))
            }
        }
    }

    fn exec_intrinsic(
        &mut self,
        func_id: FuncId,
        i: InstId,
        which: Intrinsic,
        vals: &[Val],
    ) -> Result<Option<Val>, Trap> {
        match which {
            Intrinsic::PrintI64 => {
                let s = format!("{}\n", vals[0].as_int());
                self.rt.output(s.as_bytes());
                Ok(None)
            }
            Intrinsic::PrintF64 => {
                let s = format!("{:.6}\n", vals[0].as_f64());
                self.rt.output(s.as_bytes());
                Ok(None)
            }
            Intrinsic::PrintChar => {
                self.rt.output(&[vals[0].as_int() as u8]);
                Ok(None)
            }
            Intrinsic::PrintStr => {
                let addr = vals[0].as_ptr();
                let len = vals[1].as_int().max(0) as usize;
                let mut buf = vec![0u8; len];
                self.mem.read_bytes(addr, &mut buf);
                self.rt.output(&buf);
                Ok(None)
            }
            Intrinsic::HAlloc(heap) => {
                let size = vals[0].as_int().max(0) as u64;
                let addr = self.rt.h_alloc(heap, size)?;
                self.hooks
                    .on_alloc(&self.ctx, func_id, i, addr, size, AllocKind::HAlloc(heap));
                Ok(Some(Val::ptr(addr)))
            }
            Intrinsic::HFree(heap) => {
                let addr = vals[0].as_ptr();
                if addr != 0 {
                    self.hooks.on_free(&self.ctx, func_id, i, addr);
                    self.rt.h_free(heap, addr)?;
                }
                Ok(None)
            }
            Intrinsic::CheckHeap(heap) => {
                self.rt.check_heap(heap, vals[0].as_ptr())?;
                Ok(None)
            }
            Intrinsic::PrivateRead => {
                let size = vals[1].as_int().max(0) as u64;
                self.rt
                    .private_read(vals[0].as_ptr(), size, &mut self.mem)?;
                Ok(None)
            }
            Intrinsic::PrivateWrite => {
                let size = vals[1].as_int().max(0) as u64;
                self.rt
                    .private_write(vals[0].as_ptr(), size, &mut self.mem)?;
                Ok(None)
            }
            Intrinsic::Predict => {
                self.rt.predict(vals[0].as_bool())?;
                Ok(None)
            }
            Intrinsic::Misspec => {
                self.rt.misspec()?;
                Ok(None)
            }
            Intrinsic::ReduxRegister(op) => {
                let size = vals[1].as_int().max(0) as u64;
                self.rt.redux_register(op, vals[0].as_ptr(), size)?;
                Ok(None)
            }
            Intrinsic::ParallelInvoke(plan) => {
                let plan = *self
                    .module
                    .plans
                    .get(plan as usize)
                    .ok_or_else(|| Trap::Internal(format!("unknown plan {plan}")))?;
                let (lo, hi) = (vals[0].as_int(), vals[1].as_int());
                self.rt.parallel_invoke(
                    self.module,
                    &self.global_addrs,
                    plan,
                    lo,
                    hi,
                    &mut self.mem,
                )?;
                Ok(None)
            }
            Intrinsic::Sqrt => Ok(Some(Val::Float(vals[0].as_f64().sqrt()))),
            Intrinsic::Exp => Ok(Some(Val::Float(vals[0].as_f64().exp()))),
            Intrinsic::Log => Ok(Some(Val::Float(vals[0].as_f64().ln()))),
            Intrinsic::FAbs => Ok(Some(Val::Float(vals[0].as_f64().abs()))),
        }
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

fn eval_bin(op: BinOp, ty: Type, a: Val, b: Val) -> Result<Val, Trap> {
    if op.is_float() {
        let (x, y) = (a.as_f64(), b.as_f64());
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            _ => unreachable!(),
        };
        return Ok(Val::Float(r));
    }
    let (x, y) = (a.as_int(), b.as_int());
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
        BinOp::SDiv => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_div(y)
        }
        BinOp::SRem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl((y as u32) % bits.max(1)),
        BinOp::LShr => {
            // Logical shift operates on the value truncated to its width.
            let ux = (x as u64) & mask;
            (ux >> ((y as u32) % bits.max(1))) as i64
        }
        BinOp::AShr => {
            let shift = (y as u32) % bits.max(1);
            x >> shift
        }
        _ => unreachable!(),
    };
    Ok(Val::Int(r).normalize(ty))
}

fn eval_cast(op: CastOp, src_ty: Option<Type>, v: Val, to: Type) -> Val {
    match op {
        CastOp::Zext => {
            let bits = src_ty.map_or(64, width_bits);
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            Val::Int(((v.as_int() as u64) & mask) as i64).normalize(to)
        }
        CastOp::Sext => Val::Int(v.as_int()).normalize(to),
        CastOp::Trunc => Val::Int(v.as_int()).normalize(to),
        CastOp::SiToFp => Val::Float(v.as_int() as f64),
        CastOp::FpToSi => Val::Int(v.as_f64() as i64).normalize(to),
        CastOp::PtrToInt | CastOp::IntToPtr => Val::Int(v.as_int()),
        CastOp::Bitcast => match (v, to) {
            (Val::Int(x), Type::F64) => Val::Float(f64::from_bits(x as u64)),
            (Val::Float(f), _) => Val::Int(f.to_bits() as i64),
            (x, _) => x,
        },
    }
}

/// Load a typed value from memory (narrow integers sign-extend into the
/// register, matching the store/normalize convention; `i8` is treated as
/// unsigned bytes as C string code expects).
pub fn load_typed(mem: &AddressSpace, ty: Type, addr: u64) -> Val {
    match ty {
        Type::I1 => Val::Int((mem.read_u8(addr) & 1) as i64),
        Type::I8 => Val::Int(mem.read_u8(addr) as i64),
        Type::I32 => {
            let mut b = [0u8; 4];
            mem.read_bytes(addr, &mut b);
            Val::Int(i32::from_le_bytes(b) as i64)
        }
        Type::I64 | Type::Ptr => Val::Int(mem.read_i64(addr)),
        Type::F64 => Val::Float(mem.read_f64(addr)),
    }
}

/// Store a typed value to memory.
pub fn store_typed(mem: &mut AddressSpace, ty: Type, addr: u64, v: Val) {
    match ty {
        Type::I1 | Type::I8 => mem.write_u8(addr, v.as_int() as u8),
        Type::I32 => mem.write_bytes(addr, &(v.as_int() as i32).to_le_bytes()),
        Type::I64 | Type::Ptr => mem.write_u64(addr, v.as_int() as u64),
        Type::F64 => mem.write_f64(addr, v.as_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NopHooks;
    use crate::runtime::BasicRuntime;
    use privateer_ir::builder::FunctionBuilder;
    use privateer_ir::GlobalInit;

    fn run(module: &Module) -> (Result<(), Trap>, Vec<u8>) {
        let image = load_module(module);
        let mut interp = Interp::new(module, &image, NopHooks, BasicRuntime::strict());
        let r = interp.run_main();
        let out = interp.rt.take_output();
        (r, out)
    }

    #[test]
    fn hello_sum_loop() {
        // Sum 0..10 and print.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (i, i_phi) = b.phi(Type::I64);
        let (s, s_phi) = b.phi(Type::I64);
        b.add_phi_incoming(i_phi, b.entry_block(), Value::const_i64(0));
        b.add_phi_incoming(s_phi, b.entry_block(), Value::const_i64(0));
        let c = b.icmp(CmpOp::Lt, i, Value::const_i64(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let s2 = b.add(Type::I64, s, i);
        let i2 = b.add(Type::I64, i, Value::const_i64(1));
        b.add_phi_incoming(i_phi, body, i2);
        b.add_phi_incoming(s_phi, body, s2);
        b.br(header);
        b.switch_to(exit);
        b.print_i64(s);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        assert_eq!(out, b"45\n");
    }

    #[test]
    fn recursion_factorial() {
        let mut m = Module::new("t");
        // fact(n) = n <= 1 ? 1 : n * fact(n-1); pre-assign id 0 to fact.
        let fact_id = FuncId::new(0);
        let mut f = FunctionBuilder::new("fact", vec![Type::I64], Some(Type::I64));
        let n = f.param(0);
        let rec = f.new_block();
        let basecase = f.new_block();
        let c = f.icmp(CmpOp::Le, n, Value::const_i64(1));
        f.cond_br(c, basecase, rec);
        f.switch_to(basecase);
        f.ret(Some(Value::const_i64(1)));
        f.switch_to(rec);
        let nm1 = f.sub(Type::I64, n, Value::const_i64(1));
        let r = f.call(fact_id, vec![nm1], Some(Type::I64)).unwrap();
        let prod = f.mul(Type::I64, n, r);
        f.ret(Some(prod));
        m.add_function(f.finish());

        let mut b = FunctionBuilder::new("main", vec![], None);
        let r = b
            .call(fact_id, vec![Value::const_i64(10)], Some(Type::I64))
            .unwrap();
        b.print_i64(r);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        assert_eq!(out, b"3628800\n");
    }

    #[test]
    fn memory_and_globals() {
        let mut m = Module::new("t");
        let g = m.add_global_init("tbl", 16, GlobalInit::I64s(vec![7, 9]));
        let mut b = FunctionBuilder::new("main", vec![], None);
        let second = b.gep(Value::Global(g), Value::const_i64(1), 8, 0);
        let v = b.load(Type::I64, second);
        b.print_i64(v);
        let p = b.malloc(Value::const_i64(8));
        b.store(Type::I64, v, p);
        let w = b.load(Type::I64, p);
        b.print_i64(w);
        b.free(p);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        assert_eq!(out, b"9\n9\n");
    }

    #[test]
    fn i32_narrowing_semantics() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        // i32 overflow wraps: 2^31 - 1 + 1 = -2^31.
        let x = b.add(Type::I32, Value::const_i32(i32::MAX), Value::const_i32(1));
        b.print_i64(x);
        // Store/load round-trips the 32-bit value.
        let p = b.alloca(4, "x");
        b.store(Type::I32, Value::const_i32(-5), p);
        let v = b.load(Type::I32, p);
        b.print_i64(v);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        assert_eq!(out, b"-2147483648\n-5\n");
    }

    #[test]
    fn float_ops_and_intrinsics() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let s = b
            .intrinsic(Intrinsic::Sqrt, vec![Value::const_f64(9.0)])
            .unwrap();
        b.print_f64(s);
        let e = b
            .intrinsic(Intrinsic::Exp, vec![Value::const_f64(0.0)])
            .unwrap();
        b.print_f64(e);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        assert_eq!(out, b"3.000000\n1.000000\n");
    }

    #[test]
    fn null_deref_traps() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let v = b.load(Type::I64, Value::Null);
        b.print_i64(v);
        b.ret(None);
        m.add_function(b.finish());
        let (r, _) = run(&m);
        assert!(matches!(r, Err(Trap::NullDeref { .. })));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![Type::I64], None);
        b.ret(None);
        m.add_function(b.finish());
        // Call div through a function so the divisor is dynamic.
        let mut b = FunctionBuilder::new("div", vec![Type::I64], Some(Type::I64));
        let q = b.bin(BinOp::SDiv, Type::I64, Value::const_i64(1), b.param(0));
        b.ret(Some(q));
        let div = m.add_function(b.finish());
        let image = load_module(&m);
        let mut interp = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
        let r = interp.call_function(div, &[Val::Int(0)]);
        assert_eq!(r, Err(Trap::DivByZero));
    }

    #[test]
    fn step_limit() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let bb = b.new_block();
        b.br(bb);
        b.switch_to(bb);
        let x = b.add(Type::I64, Value::const_i64(0), Value::const_i64(0));
        let c = b.icmp(CmpOp::Eq, x, Value::const_i64(0));
        b.cond_br(c, bb, bb);
        m.add_function(b.finish());
        let image = load_module(&m);
        let mut interp = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
        interp.set_step_limit(1000);
        assert_eq!(interp.run_main(), Err(Trap::StepLimit));
    }

    #[test]
    fn phi_parallel_copy_swap() {
        // (a, b) = (b, a) each iteration; after 3 swaps a=2 b=1 -> a=1... check.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (i, i_phi) = b.phi(Type::I64);
        let (a, a_phi) = b.phi(Type::I64);
        let (bb_, b_phi) = b.phi(Type::I64);
        b.add_phi_incoming(i_phi, b.entry_block(), Value::const_i64(0));
        b.add_phi_incoming(a_phi, b.entry_block(), Value::const_i64(1));
        b.add_phi_incoming(b_phi, b.entry_block(), Value::const_i64(2));
        let c = b.icmp(CmpOp::Lt, i, Value::const_i64(3));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add(Type::I64, i, Value::const_i64(1));
        b.add_phi_incoming(i_phi, body, i2);
        b.add_phi_incoming(a_phi, body, bb_); // a <- b
        b.add_phi_incoming(b_phi, body, a); // b <- a (old a!)
        b.br(header);
        b.switch_to(exit);
        b.print_i64(a);
        b.print_i64(bb_);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        // After 3 swaps: a=2, b=1.
        assert_eq!(out, b"2\n1\n");
    }

    #[test]
    fn halloc_and_checks_through_runtime() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let p = b
            .intrinsic(
                Intrinsic::HAlloc(Heap::ShortLived),
                vec![Value::const_i64(16)],
            )
            .unwrap();
        b.intrinsic(Intrinsic::CheckHeap(Heap::ShortLived), vec![p]);
        b.store(Type::I64, Value::const_i64(11), p);
        let v = b.load(Type::I64, p);
        b.print_i64(v);
        b.intrinsic(Intrinsic::HFree(Heap::ShortLived), vec![p]);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        assert_eq!(out, b"11\n");
    }

    #[test]
    fn wrong_heap_check_misspeculates() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let p = b.malloc(Value::const_i64(8));
        b.intrinsic(Intrinsic::CheckHeap(Heap::Private), vec![p]);
        b.ret(None);
        m.add_function(b.finish());
        let (r, _) = run(&m);
        assert!(matches!(r, Err(Trap::Misspec(_))));
    }

    #[test]
    fn alloca_zeroed_per_activation() {
        let mut m = Module::new("t");
        // leaf() allocates, writes, returns; second call must see zeros.
        let leaf_id = FuncId::new(0);
        let mut f = FunctionBuilder::new("leaf", vec![], Some(Type::I64));
        let p = f.alloca(8, "slot");
        let v = f.load(Type::I64, p);
        f.store(Type::I64, Value::const_i64(99), p);
        f.ret(Some(v));
        m.add_function(f.finish());
        let mut b = FunctionBuilder::new("main", vec![], None);
        let a = b.call(leaf_id, vec![], Some(Type::I64)).unwrap();
        let c = b.call(leaf_id, vec![], Some(Type::I64)).unwrap();
        b.print_i64(a);
        b.print_i64(c);
        b.ret(None);
        m.add_function(b.finish());
        let (r, out) = run(&m);
        r.unwrap();
        assert_eq!(out, b"0\n0\n");
    }
}
