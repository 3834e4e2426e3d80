//! The combined profiling suite: pointer-to-object, lifetime, control,
//! flow-dependence and hotness profiling in one instrumented run (§4.1).
//!
//! The suite is a set of specialised profilers over shadow state, in the
//! manner of PROMPT: each interpreter event updates a dense table or a
//! shadow page, and [`ProfileSuite::finish`] converts them into the
//! ordered maps of [`Profile`].
//!
//! * **Flow dependences.** A counter, the *stamp*, ticks on every loop
//!   entry and every iteration start. The suite mirrors the loop stack;
//!   each frame records the stamp of its invocation's start and of its
//!   current iteration's start, and whether it is the *outermost* frame of
//!   its `(func, loop)` (recursion can put one loop on the stack twice). A
//!   store writes one packed cell, `stamp << SITE_BITS | dense site`, into
//!   every byte it covers, in paged shadow memory shaped like
//!   [`AddressSpace`]'s 4 KiB pages and materialised by stores. A load
//!   whose bytes all hold one cell is checked once; otherwise it walks each
//!   run of bytes with one cell once. It reports a cross-iteration
//!   dependence for frame `f` iff `f` is outermost and
//!   `f.inv_start <= stamp < f.iter_start`: the write happened in this
//!   invocation of `f`'s loop, in an earlier iteration. That is the test
//!   "the writer's first frame of this loop is the same invocation, at an
//!   earlier iteration": an inner frame of a recursive loop was entered
//!   after its outermost twin, so the writer's first frame of that loop is
//!   never the inner one. Frames nest, so every frame below the innermost
//!   frame with `inv_start <= stamp` has `iter_start < stamp`; only that
//!   one frame can match.
//! * **Packing bounds.** A cell keeps `SITE_BITS` (24) bits of site and
//!   40 of stamp. [`ProfileSuite::new`] refuses a module with more sites
//!   than the site field holds, and a run whose stamp passes the stamp
//!   field's maximum ends in a [`Trap`] from [`ProfileSuite::finish`]
//!   (and so from [`profile_module`]) instead of wrapping.
//! * **Loop weights.** Entering a block adds its non-phi instruction count
//!   to an instruction clock. A loop invocation's weight is the clock at
//!   its exit minus the clock at its entry; the program's instruction
//!   count is the final clock. A recursive loop's nested invocations count
//!   again in the enclosing ones, as every instruction counts once per
//!   active frame. Its iteration count adds each exit's trip count.
//! * **Site tables.** Access sites and blocks index dense per-module
//!   tables. Each access site caches the object interval it last hit; the
//!   cache stays valid until the object map next removes an entry, and an
//!   access inside it skips the interval-map query. Each access site also
//!   caches the shadow page it last touched (a site streams through one
//!   page); shadow pages are never freed, so that cache is checked by page
//!   number only, and a miss goes to an Fx-hashed page map.
//! * **Saturated dependences.** A dependence keeps at most
//!   `DEP_ADDR_CAP` distinct byte addresses; once a new one had to be
//!   dropped, later flow through it only adds to its count. Before that,
//!   flow inside a byte range the set is known to hold skips the set.

use crate::interval::IntervalMap;
use crate::names::{CallSite, ObjectName};
use privateer_ir::loops::LoopId;
use privateer_ir::{BlockId, FuncId, InstId, InstKind, Module};
use privateer_vm::hooks::{AllocKind, ExecCtx, Hooks, LoopFrame};
use privateer_vm::interp::{Interp, ProgramImage};
use privateer_vm::mem::{FxHashMap, PAGE_SHIFT};
use privateer_vm::runtime::BasicRuntime;
use privateer_vm::{AddressSpace, Trap, PAGE_SIZE};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a loop module-wide.
pub type LoopRef = (FuncId, LoopId);

/// Per-loop execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Times the loop was entered.
    pub invocations: u64,
    /// Total iterations across all invocations.
    pub total_iters: u64,
    /// Instructions executed while the loop was active (inclusive of
    /// callees and nested loops) — the hotness measure.
    pub weight: u64,
}

/// Taken/not-taken counts for a conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Times the branch went to its `then` target.
    pub taken: u64,
    /// Times it went to its `else` target.
    pub not_taken: u64,
}

impl BranchStats {
    /// Fraction of executions that took the `then` target.
    pub fn bias(&self) -> f64 {
        let total = self.taken + self.not_taken;
        if total == 0 {
            0.5
        } else {
            self.taken as f64 / total as f64
        }
    }
}

/// A profiled cross-iteration memory flow dependence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepInfo {
    /// Times the dependence manifested.
    pub count: u64,
    /// Byte addresses through which it flowed (capped).
    pub addrs: BTreeSet<u64>,
    /// Whether `addrs` was truncated.
    pub addrs_overflow: bool,
}

const DEP_ADDR_CAP: usize = 64;

#[derive(Debug, Clone)]
struct LiveObj {
    name: ObjectName,
    alloc_frames: Vec<LoopFrame>,
}

/// The collected profile, queryable by the classifier (§4.2).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// For each load/store instruction, the set of object names its pointer
    /// referenced (the pointer-to-object map).
    pub access_objects: BTreeMap<CallSite, BTreeSet<ObjectName>>,
    /// `(object, loop)` pairs where every instance of `object` allocated
    /// under `loop` was freed within its allocation iteration.
    pub short_lived: BTreeSet<(ObjectName, LoopRef)>,
    /// Objects observed allocated at least once under each loop.
    pub allocated_under: BTreeSet<(ObjectName, LoopRef)>,
    /// Cross-iteration memory flow dependences per loop.
    pub cross_deps: BTreeMap<LoopRef, BTreeMap<(CallSite, CallSite), DepInfo>>,
    /// Per-loop trip counts and hotness.
    pub loop_stats: BTreeMap<LoopRef, LoopStats>,
    /// Conditional-branch statistics.
    pub branch_stats: BTreeMap<(FuncId, BlockId), BranchStats>,
    /// Blocks that executed at least once.
    pub executed_blocks: BTreeSet<(FuncId, BlockId)>,
    /// Total instructions executed in the profiled run.
    pub total_insts: u64,
}

impl Profile {
    /// Objects referenced by the pointer of the access at `site`.
    pub fn objects_at(&self, site: CallSite) -> Option<&BTreeSet<ObjectName>> {
        self.access_objects.get(&site)
    }

    /// Whether `object` is short-lived with respect to `lp` (paper:
    /// `Profile.isShortLived(o, L)`).
    pub fn is_short_lived(&self, object: &ObjectName, lp: LoopRef) -> bool {
        self.short_lived.contains(&(object.clone(), lp))
    }

    /// Loops ordered by decreasing hotness weight.
    pub fn loops_by_weight(&self) -> Vec<(LoopRef, LoopStats)> {
        let mut v: Vec<_> = self.loop_stats.iter().map(|(&l, &s)| (l, s)).collect();
        v.sort_by(|a, b| b.1.weight.cmp(&a.1.weight).then(a.0.cmp(&b.0)));
        v
    }

    /// Whether a block never executed during profiling (a control-
    /// speculation candidate).
    pub fn block_unexecuted(&self, func: FuncId, bb: BlockId) -> bool {
        !self.executed_blocks.contains(&(func, bb))
    }

    /// The cross-iteration flow dependences of one loop.
    pub fn deps_of(&self, lp: LoopRef) -> impl Iterator<Item = (&(CallSite, CallSite), &DepInfo)> {
        self.cross_deps.get(&lp).into_iter().flatten()
    }
}

/// One loop frame of the mirrored loop stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    lp: LoopRef,
    /// Stamp of this invocation's start.
    inv_start: u64,
    /// Stamp of the current iteration's start.
    iter_start: u64,
    /// Instruction clock at entry.
    clock_at_entry: u64,
    /// No enclosing frame has the same loop.
    outermost: bool,
}

/// Bits of a shadow cell that hold the writer's dense site index; the
/// stamp takes the other 40.
const SITE_BITS: u32 = 24;
/// Sites a module may have: every dense site index must fit a cell.
const MAX_SITES: usize = 1 << SITE_BITS;
/// The largest stamp a cell holds.
const MAX_STAMP: u64 = u64::MAX >> SITE_BITS;

/// The shadow cell of a byte last written at `stamp` by `site`.
fn pack(stamp: u64, site: u32) -> u64 {
    stamp << SITE_BITS | u64::from(site)
}

/// The stamp of a shadow cell.
fn cell_stamp(cell: u64) -> u64 {
    cell >> SITE_BITS
}

/// The dense site index of a shadow cell.
fn cell_site(cell: u64) -> u32 {
    (cell & (MAX_SITES as u64 - 1)) as u32
}

/// Paged last-writer shadow memory: one packed cell per byte (see
/// [`pack`]; zero, stamp 0, never reports a dependence). Pages are
/// materialised on first write, in the order written, and never freed;
/// page slot `k` owns `cells[k * PAGE_SIZE ..]`.
#[derive(Debug, Default)]
struct Shadow {
    slots: FxHashMap<u64, usize>,
    cells: Vec<u64>,
}

impl Shadow {
    /// The slot of page `page_no`, if it was ever written.
    fn find(&self, page_no: u64) -> Option<usize> {
        self.slots.get(&page_no).copied()
    }

    /// The slot of page `page_no`, materialising it zeroed.
    fn slot(&mut self, page_no: u64) -> usize {
        let next = self.slots.len();
        let slot = *self.slots.entry(page_no).or_insert(next);
        if slot == next {
            self.cells.resize((next + 1) * PAGE_SIZE as usize, 0);
        }
        slot
    }
}

/// `[addr, addr + size)` split at page boundaries, as `(page number,
/// offset in the page, length)`.
fn page_chunks(addr: u64, size: u32) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = addr + u64::from(size);
    let mut a = addr;
    std::iter::from_fn(move || {
        (a < end).then(|| {
            let off = (a & (PAGE_SIZE - 1)) as usize;
            let n = ((end - a) as usize).min(PAGE_SIZE as usize - off);
            let chunk = (a >> PAGE_SHIFT, off, n);
            a += n as u64;
            chunk
        })
    })
}

/// What one access site observed.
#[derive(Debug, Clone)]
struct AccessSite {
    /// The site executed at least once.
    seen: bool,
    /// Its pointer-to-object set.
    objects: BTreeSet<ObjectName>,
    /// The object interval the site last hit (empty: none), valid while
    /// `hit_epoch` equals the suite's removal epoch.
    hit: (u64, u64),
    hit_epoch: u64,
    /// `(page number, shadow slot)` of the shadow page the site last
    /// touched (`u64::MAX`: none).
    page: (u64, usize),
    /// Flow dependences into this (loading) site.
    deps: Vec<Dep>,
}

/// A flow dependence into a loading site.
#[derive(Debug, Clone)]
struct Dep {
    /// The loop carrying it and the writing site.
    key: (LoopRef, u32),
    info: DepInfo,
    /// Bytes `[held.0, held.1)` are all in `info.addrs`: flow through them
    /// again skips the set. It grows while recorded ranges touch it, so a
    /// dependence through a small array stops searching the set once it
    /// holds the whole array.
    held: (u64, u64),
}

impl Default for AccessSite {
    fn default() -> AccessSite {
        AccessSite {
            seen: false,
            objects: BTreeSet::new(),
            hit: (0, 0),
            hit_epoch: 0,
            page: (u64::MAX, 0),
            deps: Vec::new(),
        }
    }
}

/// The [`Hooks`] implementation that gathers a [`Profile`].
#[derive(Debug)]
pub struct ProfileSuite {
    objmap: IntervalMap<ObjectName>,
    /// Bumped whenever `objmap` loses an entry; invalidates site caches.
    objmap_epoch: u64,
    live: FxHashMap<u64, LiveObj>,
    allocated_under: BTreeSet<(ObjectName, LoopRef)>,
    lifetime_violations: BTreeSet<(ObjectName, LoopRef)>,
    /// Dense site index of each function's first instruction.
    inst_base: Vec<u32>,
    /// Dense block index of each function's first block.
    block_base: Vec<u32>,
    /// The call site of each dense site index.
    sites: Vec<CallSite>,
    access: Vec<AccessSite>,
    /// The block of each dense block index.
    blocks: Vec<(FuncId, BlockId)>,
    /// Non-phi instructions per dense block.
    block_len: Vec<u64>,
    executed: Vec<bool>,
    branches: Vec<BranchStats>,
    /// Per function, per loop index.
    loops: Vec<Vec<LoopStats>>,
    /// The mirrored loop stack, outermost first.
    frames: Vec<Frame>,
    /// Ticks on every loop entry and iteration start.
    stamp: u64,
    /// Non-phi instructions executed so far.
    clock: u64,
    shadow: Shadow,
}

impl ProfileSuite {
    /// A suite with globals pre-registered in the object map.
    ///
    /// # Errors
    ///
    /// A [`Trap::Internal`] if the module has more instructions than a
    /// shadow cell's site field can index.
    pub fn new(module: &Module, image: &ProgramImage) -> Result<ProfileSuite, Trap> {
        let n_sites: usize = module.functions.iter().map(|f| f.insts.len()).sum();
        check_sites(n_sites)?;
        let mut objmap = IntervalMap::new();
        for g in module.global_ids() {
            let addr = image.global_addrs[g.index()];
            let size = module.global(g).size.max(1);
            objmap.insert(addr, addr + size, ObjectName::Global(g));
        }
        let mut inst_base = Vec::with_capacity(module.functions.len());
        let mut block_base = Vec::with_capacity(module.functions.len());
        let mut sites = Vec::new();
        let mut blocks = Vec::new();
        let mut block_len = Vec::new();
        for (f, func) in module.func_ids().zip(&module.functions) {
            inst_base.push(sites.len() as u32);
            block_base.push(blocks.len() as u32);
            sites.extend((0..func.insts.len()).map(|i| (f, InstId::new(i))));
            blocks.extend(func.block_ids().map(|b| (f, b)));
            block_len.extend(func.blocks.iter().map(|b| {
                b.insts
                    .iter()
                    .filter(|&&i| !matches!(func.inst(i).kind, InstKind::Phi(..)))
                    .count() as u64
            }));
        }
        Ok(ProfileSuite {
            objmap,
            objmap_epoch: 0,
            live: FxHashMap::default(),
            allocated_under: BTreeSet::new(),
            lifetime_violations: BTreeSet::new(),
            access: vec![AccessSite::default(); sites.len()],
            executed: vec![false; block_len.len()],
            branches: vec![BranchStats::default(); block_len.len()],
            loops: vec![Vec::new(); module.functions.len()],
            inst_base,
            block_base,
            sites,
            blocks,
            block_len,
            frames: Vec::new(),
            stamp: 0,
            clock: 0,
            shadow: Shadow::default(),
        })
    }

    fn site(&self, func: FuncId, inst: InstId) -> usize {
        self.inst_base[func.index()] as usize + inst.index()
    }

    fn block(&self, func: FuncId, block: BlockId) -> usize {
        self.block_base[func.index()] as usize + block.index()
    }

    fn loop_stats(&mut self, (func, l): LoopRef) -> &mut LoopStats {
        let stats = &mut self.loops[func.index()];
        if stats.len() <= l.index() {
            stats.resize(l.index() + 1, LoopStats::default());
        }
        &mut stats[l.index()]
    }

    fn record_access(&mut self, site: usize, addr: u64, size: u32) {
        let end = addr + u64::from(size.max(1));
        let a = &mut self.access[site];
        a.seen = true;
        if a.hit_epoch == self.objmap_epoch && a.hit.0 <= addr && end <= a.hit.1 {
            return;
        }
        let hits = self.objmap.query_range(addr, end);
        for &(_, _, name) in &hits {
            if !a.objects.contains(name) {
                a.objects.insert(name.clone());
            }
        }
        a.hit = match hits[..] {
            [(lo, hi, _)] if lo <= addr && end <= hi => (lo, hi),
            _ => (0, 0),
        };
        a.hit_epoch = self.objmap_epoch;
    }

    /// The loop for which a byte last written at `stamp` is a
    /// cross-iteration flow dependence now, if any (see the module docs).
    fn carried_by(&self, stamp: u64) -> Option<LoopRef> {
        let f = self.frames.iter().rev().find(|f| f.inv_start <= stamp)?;
        (f.outermost && stamp < f.iter_start).then_some(f.lp)
    }

    /// The shadow slot of page `page_no` for a store by `site`,
    /// materialising the page.
    fn store_slot(&mut self, site: usize, page_no: u64) -> usize {
        let a = &mut self.access[site];
        if a.page.0 != page_no {
            a.page = (page_no, self.shadow.slot(page_no));
        }
        a.page.1
    }

    /// The shadow slot of page `page_no` for a load by `site`, if the page
    /// was ever written.
    fn load_slot(&mut self, site: usize, page_no: u64) -> Option<usize> {
        let a = &mut self.access[site];
        if a.page.0 != page_no {
            a.page = (page_no, self.shadow.find(page_no)?);
        }
        Some(a.page.1)
    }

    /// Record `site` as the last writer of `[addr, addr + size)`.
    fn note_write(&mut self, site: usize, addr: u64, size: u32) {
        let cell = pack(self.stamp, site as u32);
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        let n = size as usize;
        if off + n <= PAGE_SIZE as usize {
            let at = self.store_slot(site, addr >> PAGE_SHIFT) * PAGE_SIZE as usize + off;
            self.shadow.cells[at..at + n].fill(cell);
            return;
        }
        for (page_no, off, n) in page_chunks(addr, size) {
            let at = self.shadow.slot(page_no) * PAGE_SIZE as usize + off;
            self.shadow.cells[at..at + n].fill(cell);
        }
    }

    /// Report the cross-iteration flow into the load at `dst` of
    /// `[addr, addr + size)`.
    fn note_flow(&mut self, dst: usize, addr: u64, size: u32) {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        let n = size as usize;
        let page_no = addr >> PAGE_SHIFT;
        if off + n > PAGE_SIZE as usize {
            for (page_no, off, n) in page_chunks(addr, size) {
                if let Some(slot) = self.shadow.find(page_no) {
                    self.note_runs(dst, page_no, slot * PAGE_SIZE as usize, off, n);
                }
            }
            return;
        }
        let Some(slot) = self.load_slot(dst, page_no) else {
            return;
        };
        let base = slot * PAGE_SIZE as usize;
        let Some((&cell, rest)) = self.shadow.cells[base + off..base + off + n].split_first()
        else {
            return;
        };
        if rest.iter().all(|&c| c == cell) {
            if let Some(lp) = self.carried_by(cell_stamp(cell)) {
                self.record_dep(lp, cell_site(cell), dst, addr, n);
            }
        } else {
            self.note_runs(dst, page_no, base, off, n);
        }
    }

    /// Report the flow into `dst` of the `n` bytes from offset `off` of
    /// page `page_no` (shadow cells from `base`), walking each run of
    /// bytes with one cell once.
    fn note_runs(&mut self, dst: usize, page_no: u64, base: usize, off: usize, n: usize) {
        let (mut i, end) = (base + off, base + off + n);
        while i < end {
            let cell = self.shadow.cells[i];
            let mut j = i + 1;
            while j < end && self.shadow.cells[j] == cell {
                j += 1;
            }
            if let Some(lp) = self.carried_by(cell_stamp(cell)) {
                let first = (page_no << PAGE_SHIFT) + (i - base) as u64;
                self.record_dep(lp, cell_site(cell), dst, first, j - i);
            }
            i = j;
        }
    }

    /// Count the `len` bytes from `first` as flow from site `src` into
    /// site `dst`, carried by `lp`.
    fn record_dep(&mut self, lp: LoopRef, src: u32, dst: usize, first: u64, len: usize) {
        let deps = &mut self.access[dst].deps;
        let k = match deps.iter().position(|d| d.key == (lp, src)) {
            Some(k) => k,
            None => {
                deps.push(Dep {
                    key: (lp, src),
                    info: DepInfo::default(),
                    held: (0, 0),
                });
                deps.len() - 1
            }
        };
        let Dep { info, held, .. } = &mut deps[k];
        info.count += len as u64;
        let end = first + len as u64;
        if info.addrs_overflow || (held.0 <= first && end <= held.1) {
            return;
        }
        for b in first..end {
            if info.addrs.len() < DEP_ADDR_CAP {
                info.addrs.insert(b);
            } else if !info.addrs.contains(&b) {
                info.addrs_overflow = true;
                return;
            }
        }
        *held = if first <= held.1 && held.0 <= end {
            (held.0.min(first), held.1.max(end))
        } else {
            (first, end)
        };
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
            if self.objmap.remove_at(addr).is_some() {
                self.objmap_epoch += 1;
            }
        }
    }

    /// Finalize into a queryable [`Profile`].
    ///
    /// # Errors
    ///
    /// A [`Trap::Internal`] if the run ticked the stamp past what a shadow
    /// cell holds: cells written after that would alias earlier stamps.
    pub fn finish(mut self) -> Result<Profile, Trap> {
        if self.stamp > MAX_STAMP {
            return Err(Trap::Internal(format!(
                "profile: the run started more than {MAX_STAMP} loop invocations and iterations, \
                 the most a shadow cell's stamp holds"
            )));
        }
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
        let mut access_objects = BTreeMap::new();
        let mut cross_deps: BTreeMap<LoopRef, BTreeMap<(CallSite, CallSite), DepInfo>> =
            BTreeMap::new();
        for (&dst, a) in self.sites.iter().zip(self.access) {
            for Dep {
                key: (lp, src),
                info,
                ..
            } in a.deps
            {
                let key = (self.sites[src as usize], dst);
                cross_deps.entry(lp).or_default().insert(key, info);
            }
            if a.seen {
                access_objects.insert(dst, a.objects);
            }
        }
        let loop_stats = self
            .loops
            .iter()
            .enumerate()
            .flat_map(|(f, stats)| {
                stats
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.invocations > 0)
                    .map(move |(l, &s)| ((FuncId::new(f), LoopId::new(l)), s))
            })
            .collect();
        let branch_stats = self
            .blocks
            .iter()
            .zip(&self.branches)
            .filter(|(_, s)| s.taken + s.not_taken > 0)
            .map(|(&k, &s)| (k, s))
            .collect();
        let executed_blocks = self
            .blocks
            .iter()
            .zip(&self.executed)
            .filter(|(_, &e)| e)
            .map(|(&k, _)| k)
            .collect();
        Ok(Profile {
            access_objects,
            short_lived,
            allocated_under: self.allocated_under,
            cross_deps,
            loop_stats,
            branch_stats,
            executed_blocks,
            total_insts: self.clock,
        })
    }
}

/// Refuse a module with more access sites than a shadow cell indexes.
fn check_sites(n_sites: usize) -> Result<(), Trap> {
    if n_sites > MAX_SITES {
        return Err(Trap::Internal(format!(
            "profile: {n_sites} instructions, more than the {MAX_SITES} a shadow cell's site indexes"
        )));
    }
    Ok(())
}

impl Hooks for ProfileSuite {
    fn on_load(
        &mut self,
        _ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        _mem: &AddressSpace,
    ) {
        let site = self.site(func, inst);
        self.record_access(site, addr, size);
        if !self.frames.is_empty() {
            self.note_flow(site, addr, size);
        }
    }

    fn on_store(
        &mut self,
        _ctx: &ExecCtx,
        func: FuncId,
        inst: InstId,
        addr: u64,
        size: u32,
        _mem: &AddressSpace,
    ) {
        let site = self.site(func, inst);
        self.record_access(site, addr, size);
        self.note_write(site, addr, size);
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
        if self.objmap.insert(addr, addr + size.max(1), name.clone()) > 0 {
            self.objmap_epoch += 1;
        }
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
        // Free sites participate in the pointer-to-object map too — the
        // replace-allocation pass needs to know which objects a `free`
        // releases (§4.4).
        let site = self.site(func, inst);
        self.record_access(site, addr, 1);
        self.note_dealloc(ctx, addr);
    }

    fn on_cond_branch(&mut self, _ctx: &ExecCtx, func: FuncId, block: BlockId, taken: bool) {
        let b = self.block(func, block);
        let e = &mut self.branches[b];
        if taken {
            e.taken += 1;
        } else {
            e.not_taken += 1;
        }
    }

    fn on_loop_enter(&mut self, _ctx: &ExecCtx, func: FuncId, loop_id: LoopId) {
        let lp = (func, loop_id);
        self.stamp += 1;
        let outermost = !self.frames.iter().any(|f| f.lp == lp);
        self.frames.push(Frame {
            lp,
            inv_start: self.stamp,
            iter_start: self.stamp,
            clock_at_entry: self.clock,
            outermost,
        });
        self.loop_stats(lp).invocations += 1;
    }

    fn on_loop_iter(
        &mut self,
        _ctx: &ExecCtx,
        func: FuncId,
        loop_id: LoopId,
        _iter: u64,
        _mem: &AddressSpace,
    ) {
        self.stamp += 1;
        let top = self
            .frames
            .last_mut()
            .expect("iteration of an entered loop");
        debug_assert_eq!(top.lp, (func, loop_id));
        top.iter_start = self.stamp;
    }

    fn on_loop_exit(&mut self, _ctx: &ExecCtx, func: FuncId, loop_id: LoopId, trips: u64) {
        let f = self.frames.pop().expect("exit of an entered loop");
        debug_assert_eq!(f.lp, (func, loop_id));
        let weight = self.clock - f.clock_at_entry;
        let stats = self.loop_stats(f.lp);
        stats.total_iters += trips;
        stats.weight += weight;
    }

    fn on_block(&mut self, _ctx: &ExecCtx, func: FuncId, block: BlockId) {
        let b = self.block(func, block);
        self.executed[b] = true;
        self.clock += self.block_len[b];
    }
}

/// Run `main` under the full profiling suite.
///
/// Returns the profile and the program's output bytes (callers use the
/// output to cross-check against reference runs).
///
/// # Errors
///
/// Propagates any [`Trap`] from execution, and those of
/// [`ProfileSuite::new`] and [`ProfileSuite::finish`].
pub fn profile_module(module: &Module, image: &ProgramImage) -> Result<(Profile, Vec<u8>), Trap> {
    run_suite(ProfileSuite::new(module, image)?, module, image)
}

/// Run `main` under `suite`.
fn run_suite(
    suite: ProfileSuite,
    module: &Module,
    image: &ProgramImage,
) -> Result<(Profile, Vec<u8>), Trap> {
    let mut interp = Interp::new(module, image, suite, BasicRuntime::strict());
    interp.run_main()?;
    let out = interp.rt.take_output();
    Ok((interp.hooks.finish()?, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_ir::builder::FunctionBuilder;
    use privateer_ir::{Type, Value};
    use privateer_vm::load_module;
    use privateer_workloads::util::for_loop;

    #[test]
    fn cells_hold_the_largest_stamp_and_site() {
        let site = MAX_SITES as u32 - 1;
        let cell = pack(MAX_STAMP, site);
        assert_eq!((cell_stamp(cell), cell_site(cell)), (MAX_STAMP, site));
        assert_eq!((cell_stamp(pack(1, 0)), cell_site(pack(1, 0))), (1, 0));
    }

    #[test]
    fn a_module_with_more_sites_than_a_cell_indexes_is_refused() {
        assert!(check_sites(MAX_SITES).is_ok());
        let err = check_sites(MAX_SITES + 1).unwrap_err();
        assert!(
            matches!(err, Trap::Internal(ref m) if m.contains("instructions")),
            "{err}"
        );
    }

    /// `for i in 0..3 { buf = i }`: five stamp ticks (the entry, and four
    /// iteration starts counting the exit test).
    fn three_trip_loop() -> Module {
        let mut m = Module::new("ticks");
        let buf = Value::Global(m.add_global("buf", 8));
        let mut b = FunctionBuilder::new("main", vec![], None);
        for_loop(&mut b, Value::const_i64(0), Value::const_i64(3), |b, i| {
            b.store(Type::I64, i, buf);
        });
        b.ret(None);
        m.add_function(b.finish());
        privateer_ir::verify::verify_module(&m).unwrap();
        m
    }

    /// Profile `m` with the stamp starting at `stamp`.
    fn profile_from(m: &Module, stamp: u64) -> Result<(Profile, Vec<u8>), Trap> {
        let image = load_module(m);
        let mut suite = ProfileSuite::new(m, &image)?;
        suite.stamp = stamp;
        run_suite(suite, m, &image)
    }

    #[test]
    fn a_run_that_exhausts_the_stamp_space_traps() {
        let m = three_trip_loop();
        let (profile, _) = profile_from(&m, MAX_STAMP - 5).expect("the last stamp fits");
        assert_eq!(profile.loops_by_weight()[0].1.total_iters, 4);
        let err = profile_from(&m, MAX_STAMP - 4).unwrap_err();
        assert!(
            matches!(err, Trap::Internal(ref m) if m.contains("stamp")),
            "{err}"
        );
    }
}
