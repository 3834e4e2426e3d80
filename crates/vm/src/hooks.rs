//! Instrumentation hooks: the profilers' window into execution.
//!
//! The interpreter is generic over a [`Hooks`] implementation; the default
//! [`NopHooks`] compiles away. Profilers (crate `privateer-profile`)
//! implement `Hooks` to observe memory accesses, allocations, branches and
//! loop iterations — the events the paper's profilers consume (§4.1).

use crate::mem::AddressSpace;
use privateer_ir::loops::LoopId;
use privateer_ir::{FuncId, InstId};

/// What kind of allocation produced an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// A stack slot.
    Alloca,
    /// General-heap `malloc`.
    Malloc,
    /// Logical-heap allocation inserted by the Privateer transformation.
    HAlloc(privateer_ir::Heap),
}

/// One entry of the dynamic loop stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopFrame {
    /// Function containing the loop.
    pub func: FuncId,
    /// The loop.
    pub loop_id: LoopId,
    /// How many times this (func, loop) pair has been entered so far,
    /// program-wide (1-based).
    pub invocation: u64,
    /// Current iteration within this invocation (0-based).
    pub iter: u64,
}

/// The dynamic execution context visible to hooks: the call stack (as
/// static call sites) and the active loop nest.
///
/// This is the "dynamic context" the paper's pointer-to-object profiler
/// uses to name objects (§4.1).
#[derive(Debug, Clone, Default)]
pub struct ExecCtx {
    /// `(caller, call-site)` pairs from outermost to innermost; the first
    /// entry has no call site (the program entry).
    pub call_stack: Vec<(FuncId, Option<InstId>)>,
    /// Active loops, outermost first.
    pub loop_stack: Vec<LoopFrame>,
}

impl ExecCtx {
    /// The innermost active loop, if any.
    pub fn innermost_loop(&self) -> Option<LoopFrame> {
        self.loop_stack.last().copied()
    }

    /// The currently executing function.
    pub fn current_func(&self) -> Option<FuncId> {
        self.call_stack.last().map(|&(f, _)| f)
    }

    /// The call path as static call sites (excluding the entry).
    pub fn call_path(&self) -> Vec<(FuncId, InstId)> {
        self.call_stack
            .iter()
            .filter_map(|&(f, site)| site.map(|s| (f, s)))
            .collect()
    }
}

/// Observation points during interpretation. All methods default to no-ops.
///
/// `func`/`inst` identify the *static* instruction; `ctx` carries the
/// dynamic context. Memory contents can be inspected through `mem`.
#[allow(unused_variables)]
pub trait Hooks {
    /// After a load of `size` bytes at `addr`.
    fn on_load(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        mem: &AddressSpace,
    ) {
    }

    /// Before a store of `size` bytes at `addr`.
    fn on_store(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        mem: &AddressSpace,
    ) {
    }

    /// After an allocation at static site `(func, inst)`.
    fn on_alloc(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u64,
        kind: AllocKind,
    ) {
    }

    /// Before a deallocation.
    fn on_free(&mut self, ctx: &ExecCtx, func: FuncId, inst: InstId, addr: u64) {}

    /// After a conditional branch resolves.
    fn on_cond_branch(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        block: privateer_ir::BlockId,
        taken: bool,
    ) {
    }

    /// On first entry to a loop (before iteration 0 begins).
    fn on_loop_enter(&mut self, ctx: &ExecCtx, func: FuncId, loop_id: LoopId) {}

    /// At the start of each loop iteration (including iteration 0). `mem`
    /// allows boundary-value sampling (the value-prediction profiler).
    fn on_loop_iter(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        loop_id: LoopId,
        iter: u64,
        mem: &AddressSpace,
    ) {
    }

    /// When control leaves a loop after `trips` iterations.
    fn on_loop_exit(&mut self, ctx: &ExecCtx, func: FuncId, loop_id: LoopId, trips: u64) {}

    /// When control enters a basic block.
    fn on_block(&mut self, ctx: &ExecCtx, func: FuncId, block: privateer_ir::BlockId) {}

    /// Before a call executes.
    fn on_call(&mut self, ctx: &ExecCtx, caller: FuncId, site: InstId, callee: FuncId) {}

    /// After a function returns.
    fn on_ret(&mut self, ctx: &ExecCtx, callee: FuncId) {}

    /// After every interpreted instruction (hot; implement only in
    /// profilers that need instruction-level attribution).
    fn on_inst(&mut self, ctx: &ExecCtx, func: FuncId) {}
}

/// The do-nothing hooks used for production runs; every callback inlines to
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopHooks;

impl Hooks for NopHooks {}

/// Hooks that record interpreted loops as [`Phase::Loop`] spans on a
/// telemetry track (one span per loop invocation, args: loop index, trip
/// count). Built from a [`WorkerTelemetry`] handle; with a disabled
/// handle every callback reduces to one branch, like [`NopHooks`].
///
/// [`Phase::Loop`]: privateer_telemetry::Phase::Loop
/// [`WorkerTelemetry`]: privateer_telemetry::WorkerTelemetry
#[derive(Debug)]
pub struct TraceHooks {
    tel: privateer_telemetry::WorkerTelemetry,
    starts: Vec<std::time::Instant>,
}

impl TraceHooks {
    /// Hooks recording onto `tel`'s track.
    pub fn new(tel: privateer_telemetry::WorkerTelemetry) -> TraceHooks {
        TraceHooks {
            tel,
            starts: Vec::new(),
        }
    }

    /// Recover the telemetry handle (e.g. to absorb its ring into a
    /// [`privateer_telemetry::Telemetry`] sink).
    pub fn into_telemetry(self) -> privateer_telemetry::WorkerTelemetry {
        self.tel
    }
}

impl Hooks for TraceHooks {
    fn on_loop_enter(&mut self, _ctx: &ExecCtx, _func: FuncId, _loop_id: LoopId) {
        if self.tel.enabled() {
            self.starts.push(std::time::Instant::now());
        }
    }

    fn on_loop_exit(&mut self, _ctx: &ExecCtx, _func: FuncId, loop_id: LoopId, trips: u64) {
        if let Some(t0) = self.starts.pop() {
            self.tel.span_since(
                privateer_telemetry::Phase::Loop,
                Some(t0),
                loop_id.index() as i64,
                trips as i64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queries() {
        let mut ctx = ExecCtx::default();
        assert_eq!(ctx.innermost_loop(), None);
        assert_eq!(ctx.current_func(), None);
        ctx.call_stack.push((FuncId::new(0), None));
        ctx.call_stack.push((FuncId::new(1), Some(InstId::new(4))));
        ctx.loop_stack.push(LoopFrame {
            func: FuncId::new(1),
            loop_id: LoopId::new(0),
            invocation: 1,
            iter: 3,
        });
        assert_eq!(ctx.current_func(), Some(FuncId::new(1)));
        assert_eq!(ctx.innermost_loop().unwrap().iter, 3);
        assert_eq!(ctx.call_path(), vec![(FuncId::new(1), InstId::new(4))]);
    }

    #[test]
    fn trace_hooks_record_loop_spans() {
        let tel = privateer_telemetry::Telemetry::with_capacity(8);
        let mut h = TraceHooks::new(tel.worker(1));
        let ctx = ExecCtx::default();
        h.on_loop_enter(&ctx, FuncId::new(0), LoopId::new(2));
        h.on_loop_exit(&ctx, FuncId::new(0), LoopId::new(2), 7);
        tel.absorb(h.into_telemetry());
        let tr = tel.trace();
        assert_eq!(tr.events.len(), 1);
        assert_eq!(tr.events[0].phase, privateer_telemetry::Phase::Loop);
        assert_eq!(tr.events[0].a, 2);
        assert_eq!(tr.events[0].b, 7);
    }

    #[test]
    fn nop_hooks_compile() {
        let mut h = NopHooks;
        let ctx = ExecCtx::default();
        h.on_inst(&ctx, FuncId::new(0));
        h.on_loop_iter(
            &ctx,
            FuncId::new(0),
            LoopId::new(0),
            0,
            &AddressSpace::new(),
        );
    }
}
