//! The IR interpreter.
//!
//! Generic over [`Hooks`] (profiling instrumentation) and [`RuntimeIface`]
//! (speculation runtime), both statically dispatched so production runs pay
//! nothing for the seams. It executes the pre-decoded form of
//! [`crate::code`]: flat per-function op arrays over one shared register
//! stack, phis as per-edge copies, instructions counted per segment.
//!
//! The interpreter requires a module that passes
//! [`privateer_ir::verify::verify_module`], which guarantees that every
//! operand is defined before use and has the type its user expects.

use crate::code::{narrow, Code, FuncCode, Op, Transfer, NO_REG};
use crate::hooks::{AllocKind, ExecCtx, Hooks, LoopFrame};
use crate::mem::{AddressSpace, GLOBAL_BASE, PAGE_SIZE};
use crate::runtime::RuntimeIface;
use crate::trap::Trap;
use crate::val::Val;
use privateer_ir::{BlockId, CmpOp, FuncId, Heap, InstId, Intrinsic, Module};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Instructions executed (phis and terminators do not count). An
    /// instruction that traps counts, and so does the one a step limit
    /// refuses.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
}

impl std::ops::AddAssign for InterpStats {
    fn add_assign(&mut self, other: InterpStats) {
        self.insts += other.insts;
        self.loads += other.loads;
        self.stores += other.stores;
    }
}

/// A suspended caller while its callee runs.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: FuncId,
    /// The op after the call.
    pc: usize,
    /// The caller's first register on the stack.
    base: usize,
    /// Where the call's result goes.
    dst: u32,
    /// Length of the segment after the call.
    resume: u32,
    /// The caller's first alloca on the alloca stack.
    allocas: usize,
    /// Loop-stack depth at the caller's entry (hooked runs).
    loops: usize,
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
    code: Arc<Code>,
    /// The simulated address space (owned; fork it for workers).
    pub mem: AddressSpace,
    /// Profiling hooks.
    pub hooks: H,
    /// Speculation runtime.
    pub rt: R,
    /// Execution counters.
    pub stats: InterpStats,
    /// Call and loop stacks, kept only when `H::ENABLED`.
    ctx: ExecCtx,
    /// Entries per loop so far, indexed by a function's `loop_base` plus
    /// its `LoopId` (empty unless `H::ENABLED`).
    loop_invocations: Vec<u64>,
    step_limit: u64,
    /// The register stack, the suspended callers and the live allocas of
    /// the frames, kept between calls to reuse their allocations.
    stack: Vec<u64>,
    frames: Vec<Frame>,
    allocas: Vec<u64>,
}

impl<'m, H: Hooks, R: RuntimeIface> Interp<'m, H, R> {
    /// Create an interpreter over a fork of the image's memory, decoding
    /// `module` (which must pass [`privateer_ir::verify::verify_module`]).
    pub fn new(module: &'m Module, image: &ProgramImage, hooks: H, rt: R) -> Interp<'m, H, R> {
        let code = Arc::new(Code::new(module, &image.global_addrs));
        Interp::with_code(module, code, image.mem.fork(), hooks, rt)
    }

    /// Create an interpreter over already decoded `code` of `module` and
    /// an explicit memory (worker forks, sequential recovery). Stack and
    /// `malloc` allocation continue from `mem`'s allocators.
    pub fn with_code(
        module: &'m Module,
        code: Arc<Code>,
        mem: AddressSpace,
        hooks: H,
        rt: R,
    ) -> Interp<'m, H, R> {
        let loop_invocations = if H::ENABLED {
            vec![0; code.loops]
        } else {
            Vec::new()
        };
        Interp {
            module,
            code,
            mem,
            hooks,
            rt,
            stats: InterpStats::default(),
            ctx: ExecCtx::default(),
            loop_invocations,
            step_limit: u64::MAX,
            stack: Vec::new(),
            frames: Vec::new(),
            allocas: Vec::new(),
        }
    }

    /// Limit execution to `limit` instructions ([`Trap::StepLimit`] when
    /// the next one would exceed it).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// The module being executed.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Address of a global.
    pub fn global_addr(&self, g: privateer_ir::GlobalId) -> u64 {
        self.code.global_addrs[g.index()]
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
        let code = Arc::clone(&self.code);
        let mut stack = std::mem::take(&mut self.stack);
        let mut frames = std::mem::take(&mut self.frames);
        let mut allocas = std::mem::take(&mut self.allocas);
        if H::ENABLED {
            self.ctx.call_stack.push((func, None));
        }
        let result = self.run(&code, func, args, &mut stack, &mut frames, &mut allocas);
        if H::ENABLED {
            self.ctx.call_stack.pop();
        }
        stack.clear();
        frames.clear();
        allocas.clear();
        self.stack = stack;
        self.frames = frames;
        self.allocas = allocas;
        result
    }

    /// Execute `entry` with `args` until it returns, calls included.
    /// `stack`, `frames` and `allocas` come in empty.
    #[allow(clippy::too_many_lines)]
    fn run(
        &mut self,
        code: &Code,
        entry: FuncId,
        args: &[Val],
        stack: &mut Vec<u64>,
        frames: &mut Vec<Frame>,
        allocas: &mut Vec<u64>,
    ) -> Result<Option<Val>, Trap> {
        let mut fid = entry;
        let mut f: &FuncCode = &code.funcs[fid.index()];
        stack.resize(f.nregs, 0);
        for (slot, a) in stack.iter_mut().zip(args.iter().take(f.nparams)) {
            *slot = match *a {
                Val::Int(v) => v as u64,
                Val::Float(x) => x.to_bits(),
            };
        }
        stack[f.const_base..].copy_from_slice(&f.consts);
        let mut regs: &mut [u64] = &mut stack[..];
        let mut ops: &[Op] = &f.ops;
        let mut base = 0usize;
        let mut alloca_floor = 0usize;
        let mut loop_floor = self.ctx.loop_stack.len();
        let mut pc = 0usize;
        let mut seg_pc;
        let mut seg_len;

        // Count a segment of `len` instructions starting at `pc`; when the
        // step limit lands inside it, run up to the limit and stop.
        macro_rules! enter_segment {
            ($len:expr) => {
                seg_pc = pc;
                seg_len = u64::from($len);
                self.stats.insts += seg_len;
                if self.stats.insts > self.step_limit {
                    let trap = self.exhaust(fid, regs, allocas, &ops[pc..], seg_len);
                    return Err(self.unwind(fid, frames, trap));
                }
            };
        }
        // Take edge `e` of `f`: phi copies, loop events, the target's
        // first segment.
        macro_rules! take_edge {
            ($e:expr) => {
                let e = $e as usize;
                let edge = f.edges[e];
                for m in &f.moves[edge.moves.0 as usize..edge.moves.1 as usize] {
                    regs[m.d as usize] = narrow(m.ty, regs[m.s as usize]);
                }
                if H::ENABLED {
                    self.transfer(fid, f, &f.transfers[e]);
                    let block = BlockId::new(edge.block as usize);
                    self.hooks.on_block(&self.ctx, fid, block);
                }
                pc = edge.pc as usize;
                enter_segment!(edge.seg);
            };
        }

        if H::ENABLED {
            self.enter_function(fid, f);
        }
        enter_segment!(f.entry_seg);
        loop {
            let op = &ops[pc];
            pc += 1;
            match *op {
                Op::Jump(e) => {
                    take_edge!(e);
                }
                Op::Branch { c, t, e, block } => {
                    let taken = regs[c as usize] != 0;
                    if H::ENABLED {
                        let block = BlockId::new(block as usize);
                        self.hooks.on_cond_branch(&self.ctx, fid, block, taken);
                    }
                    take_edge!(if taken { t } else { e });
                }
                Op::Call {
                    callee,
                    first,
                    count,
                    d,
                    inst,
                    resume,
                } => {
                    let cf = &code.funcs[callee.index()];
                    if H::ENABLED {
                        self.hooks.on_call(&self.ctx, fid, inst, callee);
                        self.ctx.call_stack.push((callee, Some(inst)));
                    }
                    let top = base + f.nregs;
                    stack.resize(top + cf.nregs, 0);
                    let args = &f.args[first as usize..(first + count) as usize];
                    for (k, &a) in args.iter().take(cf.nparams).enumerate() {
                        stack[top + k] = stack[base + a as usize];
                    }
                    stack[top + cf.const_base..].copy_from_slice(&cf.consts);
                    frames.push(Frame {
                        func: fid,
                        pc,
                        base,
                        dst: d,
                        resume,
                        allocas: alloca_floor,
                        loops: loop_floor,
                    });
                    fid = callee;
                    f = cf;
                    ops = &f.ops;
                    base = top;
                    pc = 0;
                    alloca_floor = allocas.len();
                    loop_floor = self.ctx.loop_stack.len();
                    regs = &mut stack[base..];
                    if H::ENABLED {
                        self.enter_function(fid, f);
                    }
                    enter_segment!(f.entry_seg);
                }
                Op::Ret(v) => {
                    let rv = (v != NO_REG).then(|| regs[v as usize]);
                    if H::ENABLED {
                        // Leave the loops this function still holds (a
                        // return from inside a loop).
                        while self.ctx.loop_stack.len() > loop_floor {
                            let frame = self.ctx.loop_stack.pop().expect("loop stack underflow");
                            self.hooks
                                .on_loop_exit(&self.ctx, fid, frame.loop_id, frame.iter + 1);
                        }
                    }
                    for &a in &allocas[alloca_floor..] {
                        if let Err(e) = self.mem.stack.free(a) {
                            let trap = Trap::AllocError(e.to_string());
                            return Err(self.unwind(fid, frames, trap));
                        }
                    }
                    allocas.truncate(alloca_floor);
                    let Some(caller) = frames.pop() else {
                        return Ok(rv.map(|bits| {
                            if f.ret_float {
                                Val::Float(f64::from_bits(bits))
                            } else {
                                Val::Int(bits as i64)
                            }
                        }));
                    };
                    if H::ENABLED {
                        self.ctx.call_stack.pop();
                        self.hooks.on_ret(&self.ctx, fid);
                    }
                    stack.truncate(base);
                    fid = caller.func;
                    f = &code.funcs[fid.index()];
                    ops = &f.ops;
                    base = caller.base;
                    pc = caller.pc;
                    alloca_floor = caller.allocas;
                    loop_floor = caller.loops;
                    regs = &mut stack[base..];
                    if caller.dst != NO_REG {
                        regs[caller.dst as usize] = rv.unwrap_or(0);
                    }
                    enter_segment!(caller.resume);
                }
                Op::Unreachable(block) => {
                    let trap = Trap::Internal(format!(
                        "reached `unreachable` in `{}` {}",
                        self.module.func(fid).name,
                        BlockId::new(block as usize)
                    ));
                    return Err(self.unwind(fid, frames, trap));
                }
                _ => {
                    if let Err(trap) = self.exec(fid, regs, allocas, op) {
                        // Take back the rest of the segment.
                        self.stats.insts -= seg_len - (pc - seg_pc) as u64;
                        return Err(self.unwind(fid, frames, trap));
                    }
                }
            }
        }
    }

    /// The step limit lands inside the segment `ops[..seg_len]`, already
    /// counted in full: run the instructions the limit allows (none of
    /// them is a call, which only ends a segment) and refuse the next.
    #[cold]
    #[inline(never)]
    fn exhaust(
        &mut self,
        fid: FuncId,
        regs: &mut [u64],
        allocas: &mut Vec<u64>,
        ops: &[Op],
        seg_len: u64,
    ) -> Trap {
        let start = self.stats.insts - seg_len;
        let allowed = self.step_limit - start;
        self.stats.insts = start + allowed;
        for (k, op) in ops[..allowed as usize].iter().enumerate() {
            if let Err(trap) = self.exec(fid, regs, allocas, op) {
                self.stats.insts = start + k as u64 + 1;
                return trap;
            }
        }
        self.stats.insts += 1;
        Trap::StepLimit
    }

    /// Pop the callers of a trapping frame, with the hook events a return
    /// would give, and pass the trap on.
    fn unwind(&mut self, mut fid: FuncId, frames: &mut Vec<Frame>, trap: Trap) -> Trap {
        while let Some(caller) = frames.pop() {
            if H::ENABLED {
                self.ctx.call_stack.pop();
                self.hooks.on_ret(&self.ctx, fid);
            }
            fid = caller.func;
        }
        trap
    }

    /// Loop and block events of entering function `fid` (hooked runs).
    fn enter_function(&mut self, fid: FuncId, f: &FuncCode) {
        self.transfer(fid, f, &f.entry_transfer);
        let entry = BlockId::new(0);
        self.hooks.on_block(&self.ctx, fid, entry);
    }

    /// The loop events of a control transfer within `fid` (hooked runs).
    fn transfer(&mut self, func: FuncId, f: &FuncCode, t: &Transfer) {
        for &l in &f.loop_ids[t.exits.clone()] {
            let frame = self.ctx.loop_stack.pop().expect("loop stack underflow");
            debug_assert_eq!(frame.loop_id, l);
            self.hooks.on_loop_exit(&self.ctx, func, l, frame.iter + 1);
        }
        if t.back {
            let top = self.ctx.loop_stack.last_mut().expect("active loop frame");
            top.iter += 1;
            let (l, iter) = (top.loop_id, top.iter);
            self.hooks.on_loop_iter(&self.ctx, func, l, iter, &self.mem);
        }
        for &l in &f.loop_ids[t.enters.clone()] {
            let invocation = &mut self.loop_invocations[f.loop_base + l.index()];
            *invocation += 1;
            let frame = LoopFrame {
                func,
                loop_id: l,
                invocation: *invocation,
                iter: 0,
            };
            self.ctx.loop_stack.push(frame);
            self.hooks.on_loop_enter(&self.ctx, func, l);
            self.hooks.on_loop_iter(&self.ctx, func, l, 0, &self.mem);
        }
    }

    /// Execute one op that neither transfers control nor calls.
    #[inline(always)]
    fn exec(
        &mut self,
        func: FuncId,
        regs: &mut [u64],
        allocas: &mut Vec<u64>,
        op: &Op,
    ) -> Result<(), Trap> {
        let int = |r: u32| regs[r as usize] as i64;
        let float = |r: u32| f64::from_bits(regs[r as usize]);
        match *op {
            Op::Add(d, a, b) => regs[d as usize] = int(a).wrapping_add(int(b)) as u64,
            Op::Sub(d, a, b) => regs[d as usize] = int(a).wrapping_sub(int(b)) as u64,
            Op::Mul(d, a, b) => regs[d as usize] = int(a).wrapping_mul(int(b)) as u64,
            Op::And(d, a, b) => regs[d as usize] = regs[a as usize] & regs[b as usize],
            Op::Or(d, a, b) => regs[d as usize] = regs[a as usize] | regs[b as usize],
            Op::Xor(d, a, b) => regs[d as usize] = regs[a as usize] ^ regs[b as usize],
            Op::IntBin { op, ty, d, a, b } => {
                regs[d as usize] = crate::code::int_bin(op, ty, int(a), int(b))? as u64;
            }
            Op::FAdd(d, a, b) => regs[d as usize] = (float(a) + float(b)).to_bits(),
            Op::FSub(d, a, b) => regs[d as usize] = (float(a) - float(b)).to_bits(),
            Op::FMul(d, a, b) => regs[d as usize] = (float(a) * float(b)).to_bits(),
            Op::FDiv(d, a, b) => regs[d as usize] = (float(a) / float(b)).to_bits(),
            Op::Icmp { op, d, a, b } => {
                regs[d as usize] = u64::from(op.eval(int(a).cmp(&int(b))));
            }
            Op::Fcmp { op, d, a, b } => {
                let r = match float(a).partial_cmp(&float(b)) {
                    Some(ord) => op.eval(ord),
                    None => op == CmpOp::Ne, // unordered
                };
                regs[d as usize] = u64::from(r);
            }
            Op::Move(d, a) => regs[d as usize] = regs[a as usize],
            Op::Narrow { ty, d, a } => regs[d as usize] = narrow(ty, regs[a as usize]),
            Op::Zext { mask, ty, d, a } => regs[d as usize] = narrow(ty, regs[a as usize] & mask),
            Op::SiToFp(d, a) => regs[d as usize] = (int(a) as f64).to_bits(),
            Op::FpToSi { ty, d, a } => regs[d as usize] = narrow(ty, float(a) as i64 as u64),
            Op::Load64 { d, p, inst } => {
                let addr = self.load_addr(regs[p as usize])?;
                regs[d as usize] = self.mem.read_u64(addr);
                self.after_load(func, inst, addr, 8);
            }
            Op::Load32 { d, p, inst } => {
                let addr = self.load_addr(regs[p as usize])?;
                regs[d as usize] = self.mem.read_u32(addr) as i32 as u64;
                self.after_load(func, inst, addr, 4);
            }
            Op::Load8 { d, p, inst } => {
                let addr = self.load_addr(regs[p as usize])?;
                regs[d as usize] = u64::from(self.mem.read_u8(addr));
                self.after_load(func, inst, addr, 1);
            }
            Op::Load1 { d, p, inst } => {
                let addr = self.load_addr(regs[p as usize])?;
                regs[d as usize] = u64::from(self.mem.read_u8(addr) & 1);
                self.after_load(func, inst, addr, 1);
            }
            Op::Store64 { v, p, inst } => {
                let addr = self.store_addr(func, inst, regs[p as usize], 8)?;
                self.mem.write_u64(addr, regs[v as usize]);
            }
            Op::Store32 { v, p, inst } => {
                let addr = self.store_addr(func, inst, regs[p as usize], 4)?;
                self.mem.write_u32(addr, regs[v as usize] as u32);
            }
            Op::Store8 { v, p, inst } => {
                let addr = self.store_addr(func, inst, regs[p as usize], 1)?;
                self.mem.write_u8(addr, regs[v as usize] as u8);
            }
            Op::Alloca { d, size, inst } => {
                let addr = self
                    .mem
                    .stack
                    .alloc(size)
                    .map_err(|e| Trap::AllocError(e.to_string()))?;
                // Stack slots start zeroed each activation (freed slots may
                // be reused).
                self.mem.fill(addr, size, 0);
                allocas.push(addr);
                if H::ENABLED {
                    self.hooks
                        .on_alloc(&self.ctx, func, inst, addr, size, AllocKind::Alloca);
                }
                regs[d as usize] = addr;
            }
            Op::Malloc { d, size, inst } => {
                let size = int(size).max(0) as u64;
                let addr = self
                    .mem
                    .malloc
                    .alloc(size)
                    .map_err(|e| Trap::AllocError(e.to_string()))?;
                // C malloc does not zero; reused blocks keep stale bytes.
                if H::ENABLED {
                    self.hooks
                        .on_alloc(&self.ctx, func, inst, addr, size, AllocKind::Malloc);
                }
                regs[d as usize] = addr;
            }
            Op::Free { p, inst } => {
                let addr = regs[p as usize];
                // free(NULL) is a no-op.
                if addr != 0 {
                    if H::ENABLED {
                        self.hooks.on_free(&self.ctx, func, inst, addr);
                    }
                    self.mem
                        .malloc
                        .free(addr)
                        .map_err(|e| Trap::AllocError(e.to_string()))?;
                }
            }
            Op::Gep {
                d,
                base,
                index,
                scale,
                disp,
            } => {
                let addr = int(base)
                    .wrapping_add(int(index).wrapping_mul(scale))
                    .wrapping_add(disp);
                regs[d as usize] = addr as u64;
            }
            Op::Select { ty, d, c, t, e } => {
                let v = if regs[c as usize] != 0 { t } else { e };
                regs[d as usize] = narrow(ty, regs[v as usize]);
            }
            Op::Intrinsic {
                which,
                d,
                a,
                b,
                inst,
            } => self.intrinsic(func, inst, which, regs, d, a, b)?,
            Op::Jump(_) | Op::Branch { .. } | Op::Call { .. } | Op::Ret(_) | Op::Unreachable(_) => {
                unreachable!("control op {op:?} reached `exec`")
            }
        }
        Ok(())
    }

    /// Check a load address and count the load.
    #[inline(always)]
    fn load_addr(&mut self, addr: u64) -> Result<u64, Trap> {
        check_addr(addr)?;
        self.stats.loads += 1;
        Ok(addr)
    }

    #[inline(always)]
    fn after_load(&mut self, func: FuncId, inst: InstId, addr: u64, size: u32) {
        if H::ENABLED {
            self.hooks
                .on_load(&self.ctx, func, inst, addr, size, &self.mem);
        }
    }

    /// Check a store address, count the store and report it to the hooks
    /// (before it happens).
    #[inline(always)]
    fn store_addr(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
    ) -> Result<u64, Trap> {
        check_addr(addr)?;
        self.stats.stores += 1;
        if H::ENABLED {
            self.hooks
                .on_store(&self.ctx, func, inst, addr, size, &self.mem);
        }
        Ok(addr)
    }

    #[allow(clippy::too_many_arguments)]
    fn intrinsic(
        &mut self,
        func: FuncId,
        site: InstId,
        which: Intrinsic,
        regs: &mut [u64],
        d: u32,
        a: u32,
        b: u32,
    ) -> Result<(), Trap> {
        let int = |r: u32| regs[r as usize] as i64;
        let float = |r: u32| f64::from_bits(regs[r as usize]);
        let result = match which {
            Intrinsic::PrintI64 => {
                self.rt.output(format!("{}\n", int(a)).as_bytes());
                return Ok(());
            }
            Intrinsic::PrintF64 => {
                self.rt.output(format!("{:.6}\n", float(a)).as_bytes());
                return Ok(());
            }
            Intrinsic::PrintChar => {
                self.rt.output(&[int(a) as u8]);
                return Ok(());
            }
            Intrinsic::PrintStr => {
                let mut buf = vec![0u8; int(b).max(0) as usize];
                self.mem.read_bytes(int(a) as u64, &mut buf);
                self.rt.output(&buf);
                return Ok(());
            }
            Intrinsic::HAlloc(heap) => {
                let size = int(a).max(0) as u64;
                let addr = self.rt.h_alloc(heap, size)?;
                if H::ENABLED {
                    self.hooks
                        .on_alloc(&self.ctx, func, site, addr, size, AllocKind::HAlloc(heap));
                }
                addr
            }
            Intrinsic::HFree(heap) => {
                let addr = int(a) as u64;
                if addr != 0 {
                    if H::ENABLED {
                        self.hooks.on_free(&self.ctx, func, site, addr);
                    }
                    self.rt.h_free(heap, addr)?;
                }
                return Ok(());
            }
            Intrinsic::CheckHeap(heap) => return self.rt.check_heap(heap, int(a) as u64),
            Intrinsic::PrivateRead => {
                let size = int(b).max(0) as u64;
                return self.rt.private_read(int(a) as u64, size, &mut self.mem);
            }
            Intrinsic::PrivateWrite => {
                let size = int(b).max(0) as u64;
                return self.rt.private_write(int(a) as u64, size, &mut self.mem);
            }
            Intrinsic::Predict => return self.rt.predict(int(a) != 0),
            Intrinsic::Misspec => return self.rt.misspec(),
            Intrinsic::ReduxRegister(op) => {
                let size = int(b).max(0) as u64;
                return self.rt.redux_register(op, int(a) as u64, size);
            }
            Intrinsic::ParallelInvoke(plan) => {
                let plan = *self
                    .module
                    .plans
                    .get(plan as usize)
                    .ok_or_else(|| Trap::Internal(format!("unknown plan {plan}")))?;
                return self.rt.parallel_invoke(
                    self.module,
                    &self.code,
                    plan,
                    int(a),
                    int(b),
                    &mut self.mem,
                );
            }
            Intrinsic::Sqrt => float(a).sqrt().to_bits(),
            Intrinsic::Exp => float(a).exp().to_bits(),
            Intrinsic::Log => float(a).ln().to_bits(),
            Intrinsic::FAbs => float(a).abs().to_bits(),
        };
        regs[d as usize] = result;
        Ok(())
    }
}

fn check_addr(addr: u64) -> Result<(), Trap> {
    if addr < PAGE_SIZE {
        Err(Trap::NullDeref { addr })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NopHooks;
    use crate::runtime::BasicRuntime;
    use privateer_ir::builder::FunctionBuilder;
    use privateer_ir::{BinOp, GlobalInit, Type, Value};

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
