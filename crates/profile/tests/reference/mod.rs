//! The reference profiler: the straightforward per-event implementation of
//! the profiling suite, kept as a test oracle for `ProfileSuite`.
//!
//! It keeps one last-writer entry per byte (a clone of the whole loop stack
//! per store), walks the interval map on every access, and attributes loop
//! weight one instruction at a time. `Hooks` has no per-instruction event,
//! so [`ReferenceSuite::on_block`] runs that per-instruction attribution
//! once for each non-phi instruction of the block it enters; every block of
//! a successful run executes to its end, so the totals are the ones an
//! after-every-instruction event would give.

use privateer_ir::loops::LoopId;
use privateer_ir::{BlockId, FuncId, InstId, InstKind, Module};
use privateer_profile::{
    BranchStats, CallSite, DepInfo, IntervalMap, LoopRef, LoopStats, ObjectName, Profile,
};
use privateer_vm::hooks::{AllocKind, ExecCtx, Hooks, LoopFrame};
use privateer_vm::interp::{Interp, ProgramImage};
use privateer_vm::runtime::BasicRuntime;
use privateer_vm::{AddressSpace, Trap};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

const DEP_ADDR_CAP: usize = 64;

#[derive(Debug, Clone)]
struct WriterInfo {
    src: CallSite,
    frames: Vec<LoopFrame>,
}

#[derive(Debug, Clone)]
struct LiveObj {
    name: ObjectName,
    alloc_frames: Vec<LoopFrame>,
}

/// The reference [`Hooks`] implementation that gathers a [`Profile`].
#[derive(Debug, Default)]
pub struct ReferenceSuite {
    objmap: IntervalMap<ObjectName>,
    access_objects: BTreeMap<CallSite, BTreeSet<ObjectName>>,
    live: HashMap<u64, LiveObj>,
    allocated_under: BTreeSet<(ObjectName, LoopRef)>,
    lifetime_violations: BTreeSet<(ObjectName, LoopRef)>,
    last_writer: HashMap<u64, Rc<WriterInfo>>,
    cross_deps: BTreeMap<LoopRef, BTreeMap<(CallSite, CallSite), DepInfo>>,
    loop_stats: BTreeMap<LoopRef, LoopStats>,
    branch_stats: BTreeMap<(FuncId, BlockId), BranchStats>,
    executed_blocks: BTreeSet<(FuncId, BlockId)>,
    total_insts: u64,
    /// Non-phi instructions per block, per function.
    block_insts: Vec<Vec<u64>>,
}

impl ReferenceSuite {
    /// A suite with globals pre-registered in the object map.
    pub fn new(module: &Module, image: &ProgramImage) -> ReferenceSuite {
        let mut suite = ReferenceSuite::default();
        for g in module.global_ids() {
            let addr = image.global_addrs[g.index()];
            let size = module.global(g).size.max(1);
            suite
                .objmap
                .insert(addr, addr + size, ObjectName::Global(g));
        }
        suite.block_insts = module
            .functions
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .map(|b| {
                        b.insts
                            .iter()
                            .filter(|&&i| !matches!(f.inst(i).kind, InstKind::Phi(..)))
                            .count() as u64
                    })
                    .collect()
            })
            .collect();
        suite
    }

    fn record_access(&mut self, ctx: &ExecCtx, func: FuncId, inst: InstId, addr: u64, size: u32) {
        let names: Vec<ObjectName> = self
            .objmap
            .query_range(addr, addr + size.max(1) as u64)
            .into_iter()
            .map(|(_, _, n)| n.clone())
            .collect();
        let entry = self.access_objects.entry((func, inst)).or_default();
        for n in names {
            entry.insert(n);
        }
        let _ = ctx;
    }

    fn note_flow(&mut self, ctx: &ExecCtx, dst: CallSite, addr: u64, size: u32) {
        for b in addr..addr + size as u64 {
            let Some(w) = self.last_writer.get(&b).cloned() else {
                continue;
            };
            // For each loop active at both the write and the read, in the
            // same invocation: earlier iteration => loop-carried flow dep.
            for rf in &ctx.loop_stack {
                let Some(wf) = w
                    .frames
                    .iter()
                    .find(|wf| wf.func == rf.func && wf.loop_id == rf.loop_id)
                else {
                    continue;
                };
                if wf.invocation == rf.invocation && wf.iter < rf.iter {
                    let dep = self
                        .cross_deps
                        .entry((rf.func, rf.loop_id))
                        .or_default()
                        .entry((w.src, dst))
                        .or_default();
                    dep.count += 1;
                    if dep.addrs.len() < DEP_ADDR_CAP {
                        dep.addrs.insert(b);
                    } else if !dep.addrs.contains(&b) {
                        dep.addrs_overflow = true;
                    }
                }
            }
        }
    }

    fn note_dealloc(&mut self, ctx: &ExecCtx, addr: u64) {
        if let Some(obj) = self.live.remove(&addr) {
            // Short-lived w.r.t. loop L iff freed in the same iteration of
            // the same invocation in which it was allocated.
            for af in &obj.alloc_frames {
                let ok = ctx.loop_stack.iter().any(|cf| {
                    cf.func == af.func
                        && cf.loop_id == af.loop_id
                        && cf.invocation == af.invocation
                        && cf.iter == af.iter
                });
                if !ok {
                    self.lifetime_violations
                        .insert((obj.name.clone(), (af.func, af.loop_id)));
                }
            }
            self.objmap.remove_at(addr);
        }
    }

    /// Per-instruction attribution: one instruction executed under every
    /// active loop frame.
    fn on_inst(&mut self, ctx: &ExecCtx) {
        self.total_insts += 1;
        for f in &ctx.loop_stack {
            self.loop_stats
                .entry((f.func, f.loop_id))
                .or_default()
                .weight += 1;
        }
    }

    /// Finalize into a queryable [`Profile`].
    pub fn finish(mut self) -> Profile {
        // Never-freed objects are not short-lived for any enclosing loop.
        let live: Vec<LiveObj> = self.live.drain().map(|(_, o)| o).collect();
        for obj in live {
            for af in &obj.alloc_frames {
                self.lifetime_violations
                    .insert((obj.name.clone(), (af.func, af.loop_id)));
            }
        }
        let short_lived = self
            .allocated_under
            .iter()
            .filter(|k| !self.lifetime_violations.contains(k))
            .cloned()
            .collect();
        Profile {
            access_objects: self.access_objects,
            short_lived,
            allocated_under: self.allocated_under,
            cross_deps: self.cross_deps,
            loop_stats: self.loop_stats,
            branch_stats: self.branch_stats,
            executed_blocks: self.executed_blocks,
            total_insts: self.total_insts,
        }
    }
}

impl Hooks for ReferenceSuite {
    fn on_load(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        _mem: &AddressSpace,
    ) {
        self.record_access(ctx, func, inst, addr, size);
        self.note_flow(ctx, (func, inst), addr, size);
    }

    fn on_store(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        _mem: &AddressSpace,
    ) {
        self.record_access(ctx, func, inst, addr, size);
        let info = Rc::new(WriterInfo {
            src: (func, inst),
            frames: ctx.loop_stack.clone(),
        });
        for b in addr..addr + size as u64 {
            self.last_writer.insert(b, Rc::clone(&info));
        }
    }

    fn on_alloc(
        &mut self,
        ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u64,
        _kind: AllocKind,
    ) {
        let name = ObjectName::Site {
            site: (func, inst),
            path: ctx.call_path(),
        };
        self.objmap.insert(addr, addr + size.max(1), name.clone());
        for f in &ctx.loop_stack {
            self.allocated_under
                .insert((name.clone(), (f.func, f.loop_id)));
        }
        self.live.insert(
            addr,
            LiveObj {
                name,
                alloc_frames: ctx.loop_stack.clone(),
            },
        );
    }

    fn on_free(&mut self, ctx: &ExecCtx, func: FuncId, inst: InstId, addr: u64) {
        self.record_access(ctx, func, inst, addr, 1);
        self.note_dealloc(ctx, addr);
    }

    fn on_cond_branch(&mut self, _ctx: &ExecCtx, func: FuncId, block: BlockId, taken: bool) {
        let e = self.branch_stats.entry((func, block)).or_default();
        if taken {
            e.taken += 1;
        } else {
            e.not_taken += 1;
        }
    }

    fn on_loop_enter(&mut self, _ctx: &ExecCtx, func: FuncId, loop_id: LoopId) {
        self.loop_stats
            .entry((func, loop_id))
            .or_default()
            .invocations += 1;
    }

    fn on_loop_iter(
        &mut self,
        _ctx: &ExecCtx,
        func: FuncId,
        loop_id: LoopId,
        _iter: u64,
        _mem: &AddressSpace,
    ) {
        self.loop_stats
            .entry((func, loop_id))
            .or_default()
            .total_iters += 1;
    }

    fn on_block(&mut self, ctx: &ExecCtx, func: FuncId, block: BlockId) {
        self.executed_blocks.insert((func, block));
        for _ in 0..self.block_insts[func.index()][block.index()] {
            self.on_inst(ctx);
        }
    }
}

/// Run `main` under the reference suite.
///
/// # Errors
///
/// Propagates any [`Trap`] from execution.
pub fn reference_profile(
    module: &Module,
    image: &ProgramImage,
) -> Result<(Profile, Vec<u8>), Trap> {
    let suite = ReferenceSuite::new(module, image);
    let mut interp = Interp::new(module, image, suite, BasicRuntime::strict());
    interp.run_main()?;
    let out = interp.rt.take_output();
    Ok((interp.hooks.finish(), out))
}
