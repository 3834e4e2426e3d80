//! The Privateer transformation passes over a module with a chosen heap
//! assignment: replace allocation (§4.4), insert separation checks (§4.5)
//! and privacy checks (§4.6), coalesce the privacy checks of affine loop
//! streams into range checks, value-prediction re-materialization and
//! validation, and control speculation.

use crate::classify::HeapAssignment;
use privateer_ir::analysis::affine::AffineCtx;
use privateer_ir::callgraph::CallGraph;
use privateer_ir::cfg::Cfg;
use privateer_ir::counted::match_counted_loop;
use privateer_ir::dom::DomTree;
use privateer_ir::loops::{LoopId, LoopInfo};
use privateer_ir::{
    BinOp, BlockId, FuncId, Function, GlobalId, Heap, Inst, InstId, InstKind, Intrinsic, Module,
    Term, Type, Value,
};
use privateer_profile::{CallSite, ObjectName, Profile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A transformation failure (the loop should not have been selected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformError(pub String);

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transformation failed: {}", self.0)
    }
}

impl std::error::Error for TransformError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TransformError> {
    Err(TransformError(msg.into()))
}

/// The module-wide object→heap map derived from (possibly several) loops'
/// heap assignments: globals and allocation sites each get one heap.
#[derive(Debug, Clone, Default)]
pub struct PlacementMap {
    /// Heap of each classified global.
    pub globals: BTreeMap<GlobalId, Heap>,
    /// Heap of each classified allocation site (all context names of the
    /// site must agree).
    pub sites: BTreeMap<CallSite, Heap>,
}

impl PlacementMap {
    /// Fold a loop's assignment into the map. On failure `self` is left
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Fails if an object would be assigned two different heaps — the
    /// selection compatibility rule of §4.3.
    pub fn merge(&mut self, assignment: &HeapAssignment) -> Result<(), TransformError> {
        let mut tentative = self.clone();
        tentative.merge_in_place(assignment)?;
        *self = tentative;
        Ok(())
    }

    fn merge_in_place(&mut self, assignment: &HeapAssignment) -> Result<(), TransformError> {
        for (obj, heap) in assignment.iter() {
            match obj {
                ObjectName::Global(g) => {
                    if let Some(prev) = self.globals.insert(*g, heap) {
                        if prev != heap {
                            return err(format!("global {g} assigned both {prev} and {heap}"));
                        }
                    }
                }
                ObjectName::Site { site, .. } => {
                    if let Some(prev) = self.sites.insert(*site, heap) {
                        if prev != heap {
                            return err(format!(
                                "allocation site {}:{} assigned both {prev} and {heap}",
                                site.0, site.1
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The heap of an object name under this placement.
    pub fn heap_of(&self, obj: &ObjectName) -> Option<Heap> {
        match obj {
            ObjectName::Global(g) => self.globals.get(g).copied(),
            ObjectName::Site { site, .. } => self.sites.get(site).copied(),
        }
    }
}

/// §4.4 Replace Allocation: retarget globals, allocation sites and free
/// sites into their logical heaps, module-wide.
///
/// # Errors
///
/// Fails when a `free` releases objects spanning several heaps, or a
/// "site" is not actually an allocation.
pub fn replace_allocation(
    module: &mut Module,
    placement: &PlacementMap,
    profile: &Profile,
) -> Result<(), TransformError> {
    for (&g, &heap) in &placement.globals {
        module.global_mut(g).heap = Some(heap);
    }
    for (&(f, i), &heap) in &placement.sites {
        let kind = module.func(f).inst(i).kind.clone();
        match kind {
            InstKind::Malloc(size) => {
                module.func_mut(f).inst_mut(i).kind =
                    InstKind::CallIntrinsic(Intrinsic::HAlloc(heap), vec![size]);
            }
            InstKind::Alloca { size, .. } => {
                let size_v = Value::const_i64(size as i64);
                module.func_mut(f).inst_mut(i).kind =
                    InstKind::CallIntrinsic(Intrinsic::HAlloc(heap), vec![size_v]);
                insert_alloca_frees(module.func_mut(f), i, heap);
            }
            InstKind::CallIntrinsic(Intrinsic::HAlloc(h), _) if h == heap => {}
            other => {
                return err(format!(
                    "allocation site {f}:{i} is not an allocation ({other:?})"
                ))
            }
        }
    }
    // Retarget frees whose objects all live in one heap.
    for f in module.func_ids() {
        let ids: Vec<InstId> = (0..module.func(f).insts.len()).map(InstId::new).collect();
        for i in ids {
            let InstKind::Free(ptr) = module.func(f).inst(i).kind else {
                continue;
            };
            let Some(objects) = profile.objects_at((f, i)) else {
                continue;
            };
            let heaps: BTreeSet<Option<Heap>> =
                objects.iter().map(|o| placement.heap_of(o)).collect();
            match heaps.into_iter().collect::<Vec<_>>().as_slice() {
                [Some(h)] => {
                    module.func_mut(f).inst_mut(i).kind =
                        InstKind::CallIntrinsic(Intrinsic::HFree(*h), vec![ptr]);
                }
                [None] => {}
                mixed => {
                    return err(format!(
                        "free at {f}:{i} releases objects from mixed heaps {mixed:?}"
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Insert `h_dealloc` for a replaced alloca at every return it dominates
/// (paper: "a corresponding deallocation is inserted at all function
/// exits").
fn insert_alloca_frees(func: &mut Function, alloca: InstId, heap: Heap) {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);
    let Some(def_bb) = func.block_of(alloca) else {
        return;
    };
    let ret_blocks: Vec<BlockId> = func
        .block_ids()
        .filter(|&bb| matches!(func.block(bb).term, Term::Ret(_)) && dom.dominates(def_bb, bb))
        .collect();
    for bb in ret_blocks {
        let free = func.add_inst(Inst {
            kind: InstKind::CallIntrinsic(Intrinsic::HFree(heap), vec![Value::Inst(alloca)]),
            ty: None,
        });
        func.block_mut(bb).insts.push(free);
    }
}

/// Which heap(s) each access site is expected to touch, per the profile
/// and placement. Used both for check insertion and for the selection
/// sanity rule that one access never spans heaps.
pub fn access_heaps(
    module: &Module,
    profile: &Profile,
    placement: &PlacementMap,
    funcs: impl IntoIterator<Item = FuncId>,
) -> BTreeMap<CallSite, BTreeSet<Heap>> {
    let mut out = BTreeMap::new();
    for f in funcs {
        for (_, i) in module.func(f).inst_ids_in_order() {
            if !matches!(
                module.func(f).inst(i).kind,
                InstKind::Load(..) | InstKind::Store(..)
            ) {
                continue;
            }
            let Some(objects) = profile.objects_at((f, i)) else {
                continue;
            };
            let heaps: BTreeSet<Heap> = objects
                .iter()
                .filter_map(|o| placement.heap_of(o))
                .collect();
            if !heaps.is_empty() {
                out.insert((f, i), heaps);
            }
        }
    }
    out
}

/// Counters from check insertion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// `private_read` checks inserted.
    pub privacy_reads: usize,
    /// `private_write` checks inserted.
    pub privacy_writes: usize,
    /// `check_heap` checks inserted.
    pub separation: usize,
    /// Separation checks proved at compile time and elided.
    pub elided: usize,
    /// Privacy checks moved out of loops into range checks by
    /// [`coalesce_privacy_checks`].
    pub coalesced: usize,
}

/// §4.5 + §4.6: insert separation and privacy checks into `funcs`.
///
/// `expected` maps each access site to its expected heap(s). Separation
/// checks are attached to the *pointer definition* and elided when
/// provable (globals with the right placement, `h_alloc` results, and GEPs
/// thereof). Privacy checks precede each private access.
///
/// # Errors
///
/// Fails if any access expects more than one heap, or one pointer is used
/// against different heaps.
pub fn insert_checks(
    module: &mut Module,
    expected: &BTreeMap<CallSite, BTreeSet<Heap>>,
    placement: &PlacementMap,
    funcs: impl IntoIterator<Item = FuncId>,
) -> Result<CheckStats, TransformError> {
    let mut stats = CheckStats::default();
    for f in funcs {
        // Gather this function's accesses and their heaps.
        let mut pointer_heap: BTreeMap<Value, Heap> = BTreeMap::new();
        let mut privacy_points: Vec<(BlockId, InstId, Value, u32, bool)> = Vec::new();
        for bb in module.func(f).block_ids() {
            for &i in &module.func(f).block(bb).insts {
                let Some(heaps) = expected.get(&(f, i)) else {
                    continue;
                };
                if heaps.len() != 1 {
                    return err(format!(
                        "access {f}:{i} touches objects in several heaps: {heaps:?}"
                    ));
                }
                let heap = *heaps.iter().next().expect("one heap");
                let (ptr, size, is_store) = match module.func(f).inst(i).kind {
                    InstKind::Load(ty, p) => (p, ty.size(), false),
                    InstKind::Store(ty, _, p) => (p, ty.size(), true),
                    _ => continue,
                };
                if let Some(prev) = pointer_heap.insert(ptr, heap) {
                    if prev != heap {
                        return err(format!(
                            "pointer {ptr} used against both {prev} and {heap} in {f}"
                        ));
                    }
                }
                if heap == Heap::Private {
                    privacy_points.push((bb, i, ptr, size, is_store));
                }
            }
        }

        // Privacy checks: insert before each private access.
        for (bb, access, ptr, size, is_store) in privacy_points {
            let func = module.func_mut(f);
            let pos = func
                .block(bb)
                .insts
                .iter()
                .position(|&x| x == access)
                .expect("access is placed");
            let which = if is_store {
                Intrinsic::PrivateWrite
            } else {
                Intrinsic::PrivateRead
            };
            crate::outline::insert_at(
                func,
                bb,
                pos,
                Inst {
                    kind: InstKind::CallIntrinsic(which, vec![ptr, Value::const_i64(size as i64)]),
                    ty: None,
                },
            );
            if is_store {
                stats.privacy_writes += 1;
            } else {
                stats.privacy_reads += 1;
            }
        }

        // Separation checks at pointer definitions, with compile-time
        // elision.
        for (ptr, heap) in pointer_heap {
            if proves_heap(module.func(f), placement, ptr, heap) {
                stats.elided += 1;
                continue;
            }
            let check = Inst {
                kind: InstKind::CallIntrinsic(Intrinsic::CheckHeap(heap), vec![ptr]),
                ty: None,
            };
            let func = module.func_mut(f);
            match ptr {
                Value::Inst(def) => {
                    let Some(def_bb) = func.block_of(def) else {
                        return err(format!("pointer %{} is unplaced", def.index()));
                    };
                    let pos = func
                        .block(def_bb)
                        .insts
                        .iter()
                        .position(|&x| x == def)
                        .expect("definition is placed");
                    crate::outline::insert_at(func, def_bb, pos + 1, check);
                }
                _ => {
                    // Parameters and unproved constants: check at entry.
                    let entry = func.entry();
                    crate::outline::insert_at(func, entry, 0, check);
                }
            }
            stats.separation += 1;
        }
    }
    Ok(stats)
}

/// Can the compiler prove `ptr` stays within `heap`? (Globals placed
/// there, `h_alloc` results from there, and field/element arithmetic over
/// such pointers.)
fn proves_heap(func: &Function, placement: &PlacementMap, ptr: Value, heap: Heap) -> bool {
    let mut cur = ptr;
    for _ in 0..64 {
        match cur {
            Value::Global(g) => return placement.globals.get(&g) == Some(&heap),
            Value::Inst(id) => match &func.inst(id).kind {
                InstKind::CallIntrinsic(Intrinsic::HAlloc(h), _) => return *h == heap,
                InstKind::Gep { base, .. } => cur = *base,
                _ => return false,
            },
            _ => return false,
        }
    }
    false
}

/// A `private_read`/`private_write` placed in a function.
#[derive(Debug, Clone, Copy)]
struct PrivacyCheck {
    block: BlockId,
    inst: InstId,
    write: bool,
    ptr: Value,
    size: Value,
}

fn privacy_check(func: &Function, block: BlockId, inst: InstId) -> Option<PrivacyCheck> {
    let InstKind::CallIntrinsic(which, ref args) = func.inst(inst).kind else {
        return None;
    };
    let write = match which {
        Intrinsic::PrivateRead => false,
        Intrinsic::PrivateWrite => true,
        _ => return None,
    };
    Some(PrivacyCheck {
        block,
        inst,
        write,
        ptr: args[0],
        size: args[1],
    })
}

/// The bytes a check may touch while the induction variable of `ctx`
/// runs over `ivs` (first and last value, when constant), as `(root,
/// start, end)` byte offsets from `root`, when the affine analysis
/// bounds them.
fn footprint(
    ctx: &AffineCtx<'_>,
    check: &PrivacyCheck,
    ivs: Option<(i64, i64)>,
) -> Option<(Value, i128, i128)> {
    let size = i128::from(check.size.as_int().filter(|&n| n > 0)?);
    let addr = ctx.affine_addr(check.ptr)?;
    if !addr.lin.syms.is_empty() {
        return None;
    }
    let coeff = i128::from(addr.lin.iv_coeff);
    let (first, last) = if coeff == 0 {
        (0, 0)
    } else {
        let (first, last) = ivs?;
        (coeff * i128::from(first), coeff * i128::from(last))
    };
    let k = i128::from(addr.lin.konst);
    Some((addr.base, first.min(last) + k, first.max(last) + k + size))
}

/// A loop's coalescing decision: the checks of its affine streams, in
/// body order, become range checks at the end of its preheader.
struct CoalescePlan {
    preheader: BlockId,
    lo: Value,
    hi: Value,
    /// The streams, as the `(base, scale, disp)` of `gep base, iv, scale,
    /// disp`.
    streams: BTreeSet<Stream>,
    /// The streams' checks in body order.
    members: Vec<(Stream, PrivacyCheck)>,
}

/// The per-trip address `gep base, iv, scale, disp` of a check, as
/// `(base, scale, disp)`; any other pointer `p` is `(p, 0, 0)`.
type Stream = (Value, u64, i64);

/// Decide whether loop `l` of `func` has streams whose checks can be
/// coalesced (see [`coalesce_privacy_checks`] for the conditions).
fn plan_coalescing(
    func: &Function,
    cfg: &Cfg,
    dom: &DomTree,
    li: &LoopInfo,
    l: LoopId,
    reaches_checks: impl Fn(FuncId) -> bool,
) -> Option<CoalescePlan> {
    let lp = li.get(l);
    let counted = match_counted_loop(func, l, lp)?;
    if counted.step != 1 || func.inst(counted.iv).ty != Some(Type::I64) {
        return None;
    }
    let trips = counted.lo.as_int().zip(counted.hi.as_int());
    if trips.is_some_and(|(lo, hi)| hi <= lo) {
        return None;
    }
    // One exit, the header's. An edge into a block that ends in
    // `unreachable` (a control-speculated path) is no exit: the trip
    // traps there, and its period is squashed with the checks.
    for &bb in &lp.blocks {
        for s in func.block(bb).term.successors() {
            let header_exit = bb == counted.header && s == counted.exit;
            if !lp.contains(s) && !header_exit && func.block(s).term != Term::Unreachable {
                return None;
            }
        }
    }
    let outside: Vec<BlockId> = cfg
        .preds(counted.header)
        .iter()
        .copied()
        .filter(|&p| !lp.contains(p))
        .collect();
    let [preheader] = outside[..] else {
        return None;
    };
    if func.block(preheader).term != Term::Br(counted.header) {
        return None;
    }

    let mut checks = Vec::new();
    for &bb in &lp.blocks {
        for &i in &func.block(bb).insts {
            if let InstKind::Call(callee, _) = func.inst(i).kind {
                if reaches_checks(callee) {
                    return None;
                }
            }
            checks.extend(privacy_check(func, bb, i));
        }
    }

    // Checks group by per-trip address, so two GEPs computing the same
    // address are one stream. A check is a member of its stream when it
    // runs exactly once per trip, `base` is loop-invariant and the stride
    // equals the checked size; an address is a stream only if every check
    // on it is a member.
    let stream_of = |c: &PrivacyCheck| -> Stream {
        match c.ptr.as_inst().map(|g| &func.inst(g).kind) {
            Some(&InstKind::Gep {
                base,
                index,
                scale,
                disp,
            }) if index == Value::Inst(counted.iv) => (base, scale, disp),
            _ => (c.ptr, 0, 0),
        }
    };
    let invariant = |v: Value| match v {
        Value::Inst(i) => func.block_of(i).is_some_and(|bb| !lp.contains(bb)),
        _ => true,
    };
    let member = |(base, scale, _): Stream, c: &PrivacyCheck| {
        // The header runs once more than the body, for the exit test.
        let once_per_trip = c.block != counted.header
            && li.innermost(c.block) == Some(l)
            && dom.dominates(c.block, counted.latch);
        scale > 0 && c.size.as_int() == Some(scale as i64) && invariant(base) && once_per_trip
    };
    let keyed: Vec<(Stream, PrivacyCheck)> = checks.iter().map(|c| (stream_of(c), *c)).collect();
    let mut candidates: BTreeMap<Stream, bool> = BTreeMap::new();
    for (s, c) in &keyed {
        *candidates.entry(*s).or_insert(true) &= member(*s, c);
    }
    let streams: BTreeSet<Stream> = candidates
        .into_iter()
        .filter_map(|(s, all)| all.then_some(s))
        .collect();
    if streams.is_empty() {
        return None;
    }

    // Single stream: every check off a stream must be proved byte-disjoint
    // from the stream's whole range, or hoisting could reorder two
    // accesses to one byte.
    let ctx = AffineCtx {
        func,
        loop_blocks: &lp.blocks,
        iv: counted.iv,
    };
    let mut members = Vec::new();
    for &s in &streams {
        let first = keyed
            .iter()
            .find(|(k, _)| *k == s)
            .expect("stream has checks");
        for (_, c) in keyed.iter().filter(|(k, _)| *k != s) {
            // Trips run `iv` over `lo..hi`; the header also runs the final
            // exit test, at `iv = hi`.
            let ivs = |c: &PrivacyCheck| {
                let last = if c.block == counted.header { 0 } else { 1 };
                trips.map(|(lo, hi)| (lo, hi - last))
            };
            let range = footprint(&ctx, &first.1, ivs(&first.1))?;
            let other = footprint(&ctx, c, ivs(c))?;
            let disjoint = range.0 == other.0 && (range.2 <= other.1 || other.2 <= range.1);
            if !disjoint {
                return None;
            }
        }
        members.extend(keyed.iter().filter(|(k, _)| *k == s).copied());
    }
    // Body order: member blocks all dominate the latch, so reverse
    // postorder orders them as each trip runs them.
    members.sort_by_key(|(_, c)| {
        let at = func.block(c.block).insts.iter().position(|&x| x == c.inst);
        (cfg.rpo_index(c.block), at)
    });
    Some(CoalescePlan {
        preheader,
        lo: counted.lo,
        hi: counted.hi,
        streams,
        members,
    })
}

/// Carry out a [`CoalescePlan`]; returns the number of checks moved.
fn apply_coalescing(func: &mut Function, plan: CoalescePlan) -> usize {
    let pre = plan.preheader;
    let emit = |func: &mut Function, kind: InstKind, ty: Option<Type>| {
        let id = func.add_inst(Inst { kind, ty });
        func.block_mut(pre).insts.push(id);
        Value::Inst(id)
    };
    let trips = match (plan.lo.as_int(), plan.hi.as_int()) {
        (Some(lo), Some(hi)) => Value::const_i64(hi.wrapping_sub(lo)),
        _ => emit(
            func,
            InstKind::Bin(BinOp::Sub, plan.hi, plan.lo),
            Some(Type::I64),
        ),
    };
    let mut ranges: BTreeMap<Stream, (Value, Value)> = BTreeMap::new();
    for &(base, scale, disp) in &plan.streams {
        let addr = emit(
            func,
            InstKind::Gep {
                base,
                index: plan.lo,
                scale,
                disp,
            },
            Some(Type::Ptr),
        );
        let len = match trips.as_int() {
            Some(t) => Value::const_i64(t.wrapping_mul(scale as i64)),
            None => emit(
                func,
                InstKind::Bin(BinOp::Mul, trips, Value::const_i64(scale as i64)),
                Some(Type::I64),
            ),
        };
        ranges.insert((base, scale, disp), (addr, len));
    }
    for (stream, c) in &plan.members {
        let (addr, len) = ranges[stream];
        let which = if c.write {
            Intrinsic::PrivateWrite
        } else {
            Intrinsic::PrivateRead
        };
        emit(func, InstKind::CallIntrinsic(which, vec![addr, len]), None);
        func.block_mut(c.block).insts.retain(|&x| x != c.inst);
    }
    plan.members.len()
}

/// Coalesce per-trip privacy checks into one range check per affine
/// access stream (an extension of §4.6, which checks every access).
///
/// For each loop of `funcs`, innermost first, the `private_read`/
/// `private_write` checks of a stream `gep base, iv, s, disp` of `s`-byte
/// accesses are replaced by checks of `(hi − lo) · s` bytes from
/// `gep base, lo, s, disp`, appended to the preheader in body order. A
/// stream qualifies only when:
///
/// * the loop is counted (`iv` from `lo` to loop-invariant `hi` by 1) and
///   its one exit is the header's;
/// * `base` is loop-invariant and the stride equals the checked size, so
///   each trip checks its own `s` bytes;
/// * each of the stream's checks runs exactly once per trip (its block is
///   not the header, is in no inner loop and dominates the latch) — a
///   write check covering a trip that does not write would let phase 2
///   commit the worker's stale value as that trip's write;
/// * every other privacy check in the loop is proved byte-disjoint from
///   the stream by [`AffineCtx`], and no callee reachable from the loop
///   carries privacy checks.
///
/// Each byte then sees the same Table 2 transitions in the same order, so
/// the runtime validates exactly what the per-access checks did, in fewer
/// calls. A trap part-way through the loop may leave later trips' bytes
/// checked; that period misspeculates and recovers either way.
///
/// Returns the number of per-trip checks coalesced.
pub fn coalesce_privacy_checks(
    module: &mut Module,
    funcs: impl IntoIterator<Item = FuncId>,
) -> usize {
    let checked: BTreeSet<FuncId> = module
        .func_ids()
        .filter(|&f| {
            let func = module.func(f);
            func.inst_ids_in_order()
                .any(|(bb, i)| privacy_check(func, bb, i).is_some())
        })
        .collect();
    let cg = CallGraph::new(module);
    let reaches_checks = |callee: FuncId| {
        cg.reachable_from([callee])
            .iter()
            .any(|g| checked.contains(g))
    };
    let mut coalesced = 0;
    for f in funcs {
        // Rewrites only add instructions to preheaders, so the CFG and
        // its analyses stay valid across this function's loops.
        let func = module.func(f);
        let cfg = Cfg::new(func);
        let dom = DomTree::new(func, &cfg);
        let li = LoopInfo::new(func, &cfg, &dom);
        let mut loops: Vec<LoopId> = li.iter().map(|(l, _)| l).collect();
        loops.sort_by_key(|&l| std::cmp::Reverse(li.get(l).depth));
        for l in loops {
            if let Some(plan) = plan_coalescing(module.func(f), &cfg, &dom, &li, l, reaches_checks)
            {
                coalesced += apply_coalescing(module.func_mut(f), plan);
            }
        }
    }
    coalesced
}

/// A value prediction: `global + offset` holds `bytes` at the start of
/// every iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValuePrediction {
    /// The predicted global.
    pub global: GlobalId,
    /// Byte offset within it.
    pub offset: u64,
    /// The predicted bytes.
    pub bytes: Vec<u8>,
}

/// Insert value-prediction speculation into an outlined body:
/// re-materialize the predicted value at entry, and validate it before
/// returning (the paper's dijkstra transformation: the work list is
/// predicted empty at iteration boundaries, checked by `misspec()` guards
/// at the iteration end — Figure 2b lines 78–80).
///
/// # Errors
///
/// Fails if the body does not have exactly one return block.
pub fn insert_value_predictions(
    module: &mut Module,
    body: FuncId,
    predictions: &[ValuePrediction],
) -> Result<(), TransformError> {
    if predictions.is_empty() {
        return Ok(());
    }
    let func = module.func_mut(body);
    let entry = func.entry();
    let ret_blocks: Vec<BlockId> = func
        .block_ids()
        .filter(|&bb| matches!(func.block(bb).term, Term::Ret(_)))
        .collect();
    let [ret_block] = ret_blocks.as_slice() else {
        return err("outlined body must have exactly one return block");
    };
    let ret_block = *ret_block;

    for p in predictions {
        for (chunk_off, chunk) in chunks_of(&p.bytes) {
            let off = (p.offset + chunk_off) as i64;
            let (ty, cval) = chunk_const(&chunk);

            // Entry: address, privacy check, store of the predicted value.
            let addr = func.add_inst(Inst {
                kind: InstKind::Gep {
                    base: Value::Global(p.global),
                    index: Value::const_i64(0),
                    scale: 0,
                    disp: off,
                },
                ty: Some(Type::Ptr),
            });
            let pw = func.add_inst(Inst {
                kind: InstKind::CallIntrinsic(
                    Intrinsic::PrivateWrite,
                    vec![Value::Inst(addr), Value::const_i64(ty.size() as i64)],
                ),
                ty: None,
            });
            let st = func.add_inst(Inst {
                kind: InstKind::Store(ty, cval, Value::Inst(addr)),
                ty: None,
            });
            let block = func.block_mut(entry);
            block.insts.insert(0, st);
            block.insts.insert(0, pw);
            block.insts.insert(0, addr);

            // Return block: load and predict equality.
            let addr2 = func.add_inst(Inst {
                kind: InstKind::Gep {
                    base: Value::Global(p.global),
                    index: Value::const_i64(0),
                    scale: 0,
                    disp: off,
                },
                ty: Some(Type::Ptr),
            });
            let loaded = func.add_inst(Inst {
                kind: InstKind::Load(ty, Value::Inst(addr2)),
                ty: Some(ty),
            });
            let cmp = func.add_inst(Inst {
                kind: InstKind::Icmp(privateer_ir::CmpOp::Eq, Value::Inst(loaded), cval),
                ty: Some(Type::I1),
            });
            let predict = func.add_inst(Inst {
                kind: InstKind::CallIntrinsic(Intrinsic::Predict, vec![Value::Inst(cmp)]),
                ty: None,
            });
            let block = func.block_mut(ret_block);
            block.insts.push(addr2);
            block.insts.push(loaded);
            block.insts.push(cmp);
            block.insts.push(predict);
        }
    }
    Ok(())
}

/// Split predicted bytes into chunks the IR can load and store (8-byte
/// aligned runs, byte fallbacks).
fn chunks_of(bytes: &[u8]) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        if off.is_multiple_of(8) && bytes.len() - off >= 8 {
            out.push((off as u64, bytes[off..off + 8].to_vec()));
            off += 8;
        } else {
            out.push((off as u64, vec![bytes[off]]));
            off += 1;
        }
    }
    out
}

fn chunk_const(chunk: &[u8]) -> (Type, Value) {
    if chunk.len() == 8 {
        let v = i64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        (Type::I64, Value::const_i64(v))
    } else {
        (Type::I8, Value::const_i8(chunk[0] as i8))
    }
}

/// Control speculation: blocks of the outlined body that never executed
/// during profiling are replaced with `misspec()` (à la Chen/Mahlke/Hwu);
/// their dependences vanish from the optimistic view, and straying into
/// them at runtime triggers recovery.
pub fn apply_control_speculation(
    module: &mut Module,
    body: FuncId,
    cold_blocks: &[BlockId],
) -> usize {
    let func = module.func_mut(body);
    let mut n = 0;
    for &bb in cold_blocks {
        let mis = func.add_inst(Inst {
            kind: InstKind::CallIntrinsic(Intrinsic::Misspec, vec![]),
            ty: None,
        });
        let block = func.block_mut(bb);
        block.insts.clear();
        block.insts.push(mis);
        block.term = Term::Unreachable;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_ir::builder::FunctionBuilder;
    use privateer_ir::verify::verify_module;

    fn check(b: &mut FunctionBuilder, write: bool, ptr: Value, size: i64) {
        let which = if write {
            Intrinsic::PrivateWrite
        } else {
            Intrinsic::PrivateRead
        };
        b.intrinsic(which, vec![ptr, Value::const_i64(size)]);
    }

    /// Add `f(p: ptr, n: i64)` running `for i in lo..hi { body }` to `m`;
    /// `body` gets the builder, `p`, `i` and the exit block.
    fn counted_loop(
        m: &mut Module,
        lo: Value,
        hi: Value,
        body: impl FnOnce(&mut FunctionBuilder, Value, Value, BlockId),
    ) -> FuncId {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr, Type::I64], None);
        let header = b.new_block();
        let body_bb = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (i, phi) = b.phi(Type::I64);
        b.add_phi_incoming(phi, b.entry_block(), lo);
        let c = b.icmp(privateer_ir::CmpOp::Lt, i, hi);
        b.cond_br(c, body_bb, exit);
        b.switch_to(body_bb);
        let p = b.param(0);
        body(&mut b, p, i, exit);
        let latch = b.current_block();
        let next = b.add(Type::I64, i, Value::const_i64(1));
        b.add_phi_incoming(phi, latch, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        m.add_function(b.finish())
    }

    /// `(entry-block checks as (write, ptr, len), checks left elsewhere)`.
    fn placed_checks(m: &Module, f: FuncId) -> (Vec<(bool, Value, Value)>, usize) {
        let func = m.func(f);
        let mut entry = Vec::new();
        let mut rest = 0;
        for (bb, i) in func.inst_ids_in_order() {
            if let Some(c) = privacy_check(func, bb, i) {
                if bb == func.entry() {
                    entry.push((c.write, c.ptr, c.size));
                } else {
                    rest += 1;
                }
            }
        }
        (entry, rest)
    }

    /// `for i in lo..hi { x = p[i]; p[i] = x + 1 }`, checked per access.
    fn read_then_write(m: &mut Module, lo: Value, hi: Value) -> FuncId {
        counted_loop(m, lo, hi, |b, p, i, _| {
            let slot = b.gep(p, i, 8, 0);
            check(b, false, slot, 8);
            let x = b.load(Type::I64, slot);
            let x1 = b.add(Type::I64, x, Value::const_i64(1));
            check(b, true, slot, 8);
            b.store(Type::I64, x1, slot);
        })
    }

    #[test]
    fn read_then_write_stream_becomes_two_range_checks_in_order() {
        let mut m = Module::new("t");
        let f = read_then_write(&mut m, Value::const_i64(2), Value::Param(1));
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 2);
        verify_module(&m).unwrap_or_else(|e| panic!("{e}"));
        let (entry, rest) = placed_checks(&m, f);
        assert_eq!(rest, 0, "no per-trip check is left in the loop");
        let [(false, addr, len), (true, addr2, len2)] = entry[..] else {
            panic!("want a read then a write range check, got {entry:?}");
        };
        assert_eq!((addr, len), (addr2, len2));
        let func = m.func(f);
        assert_eq!(
            func.inst(addr.as_inst().unwrap()).kind,
            InstKind::Gep {
                base: Value::Param(0),
                index: Value::const_i64(2),
                scale: 8,
                disp: 0,
            }
        );
        // len = (n - 2) * 8.
        let InstKind::Bin(BinOp::Mul, trips, eight) = func.inst(len.as_inst().unwrap()).kind else {
            panic!("length is not a product");
        };
        assert_eq!(eight, Value::const_i64(8));
        assert_eq!(
            func.inst(trips.as_inst().unwrap()).kind,
            InstKind::Bin(BinOp::Sub, Value::Param(1), Value::const_i64(2))
        );
    }

    #[test]
    fn constant_bounds_fold_the_length() {
        let mut m = Module::new("t");
        let f = read_then_write(&mut m, Value::const_i64(0), Value::const_i64(16));
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 2);
        let (entry, _) = placed_checks(&m, f);
        assert!(
            entry.iter().all(|c| c.2 == Value::const_i64(128)),
            "{entry:?}"
        );
    }

    /// `for i in 0..16 { x = p[i]; p[i + d/8] = x }`.
    fn two_streams(m: &mut Module, disp: i64) -> FuncId {
        counted_loop(
            m,
            Value::const_i64(0),
            Value::const_i64(16),
            |b, p, i, _| {
                let src = b.gep(p, i, 8, 0);
                check(b, false, src, 8);
                let x = b.load(Type::I64, src);
                let dst = b.gep(p, i, 8, disp);
                check(b, true, dst, 8);
                b.store(Type::I64, x, dst);
            },
        )
    }

    #[test]
    fn overlapping_second_stream_is_refused() {
        let mut m = Module::new("t");
        let f = two_streams(&mut m, 8);
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 0);
        assert_eq!(placed_checks(&m, f), (vec![], 2));
    }

    #[test]
    fn disjoint_second_stream_is_coalesced_too() {
        let mut m = Module::new("t");
        let f = two_streams(&mut m, 128);
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 2);
        assert_eq!(placed_checks(&m, f).1, 0);
    }

    #[test]
    fn check_that_skips_trips_is_refused() {
        // `if i % 2 == 0 { p[i] = 0 }`: a range write would cover the odd
        // trips, which write nothing.
        let mut m = Module::new("t");
        let f = counted_loop(
            &mut m,
            Value::const_i64(0),
            Value::Param(1),
            |b, p, i, _| {
                let r = b.bin(BinOp::SRem, Type::I64, i, Value::const_i64(2));
                let even = b.icmp(privateer_ir::CmpOp::Eq, r, Value::const_i64(0));
                let then = b.new_block();
                let join = b.new_block();
                b.cond_br(even, then, join);
                b.switch_to(then);
                let slot = b.gep(p, i, 8, 0);
                check(b, true, slot, 8);
                b.store(Type::I64, Value::const_i64(0), slot);
                b.br(join);
                b.switch_to(join);
            },
        );
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 0);
    }

    #[test]
    fn early_exit_is_refused() {
        let mut m = Module::new("t");
        let f = counted_loop(
            &mut m,
            Value::const_i64(0),
            Value::Param(1),
            |b, p, i, exit| {
                let slot = b.gep(p, i, 8, 0);
                check(b, true, slot, 8);
                b.store(Type::I64, i, slot);
                let stop = b.icmp(privateer_ir::CmpOp::Eq, i, Value::const_i64(7));
                let more = b.new_block();
                b.cond_br(stop, exit, more);
                b.switch_to(more);
            },
        );
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 0);
    }

    #[test]
    fn callee_with_privacy_checks_is_refused() {
        let mut m = Module::new("t");
        let mut g = FunctionBuilder::new("g", vec![Type::Ptr], None);
        let q = g.param(0);
        check(&mut g, false, q, 8);
        g.ret(None);
        let g = m.add_function(g.finish());
        let f = counted_loop(
            &mut m,
            Value::const_i64(0),
            Value::Param(1),
            |b, p, i, _| {
                let slot = b.gep(p, i, 8, 0);
                check(b, true, slot, 8);
                b.store(Type::I64, i, slot);
                b.call(g, vec![p], None);
            },
        );
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 0);
    }

    #[test]
    fn check_in_the_header_is_refused() {
        // The header also runs for the exit test at `i = n`, so its check
        // covers one more element than the trips do.
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr, Type::I64], None);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let (i, phi) = b.phi(Type::I64);
        b.add_phi_incoming(phi, b.entry_block(), Value::const_i64(0));
        let slot = b.gep(b.param(0), i, 8, 0);
        check(&mut b, false, slot, 8);
        b.load(Type::I64, slot);
        let c = b.icmp(privateer_ir::CmpOp::Lt, i, b.param(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let next = b.add(Type::I64, i, Value::const_i64(1));
        b.add_phi_incoming(phi, body, next);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let mut m = Module::new("t");
        let f = m.add_function(b.finish());
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 0);
    }

    #[test]
    fn stride_other_than_size_is_refused() {
        // `p[2i]` as 16-byte elements checked 8 bytes at a time: a range
        // would cover the unwritten second half of every element.
        let mut m = Module::new("t");
        let f = counted_loop(
            &mut m,
            Value::const_i64(0),
            Value::Param(1),
            |b, p, i, _| {
                let slot = b.gep(p, i, 16, 0);
                check(b, true, slot, 8);
                b.store(Type::I64, i, slot);
            },
        );
        assert_eq!(coalesce_privacy_checks(&mut m, [f]), 0);
    }

    #[test]
    fn placement_merge_conflicts_detected() {
        let mut p = PlacementMap::default();
        let mut a = HeapAssignment::default();
        a.private.insert(ObjectName::Global(GlobalId::new(0)));
        p.merge(&a).unwrap();
        let mut b = HeapAssignment::default();
        b.read_only.insert(ObjectName::Global(GlobalId::new(0)));
        assert!(p.merge(&b).is_err());
        p.merge(&a).unwrap(); // same heap again is fine
    }

    #[test]
    fn proves_heap_through_geps() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 64);
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr], None);
        let e = b.gep(Value::Global(g), Value::const_i64(2), 8, 0);
        let e2 = b.gep(e, Value::const_i64(1), 8, 4);
        b.store(Type::I32, Value::const_i32(1), e2);
        let unk = b.param(0);
        b.store(Type::I32, Value::const_i32(1), unk);
        b.ret(None);
        let f = m.add_function(b.finish());
        let mut placement = PlacementMap::default();
        placement.globals.insert(g, Heap::Private);
        assert!(proves_heap(m.func(f), &placement, e2, Heap::Private));
        assert!(!proves_heap(m.func(f), &placement, e2, Heap::ReadOnly));
        assert!(!proves_heap(m.func(f), &placement, unk, Heap::Private));
    }

    #[test]
    fn value_prediction_shapes_verify() {
        let mut m = Module::new("t");
        let g = m.add_global("q", 16);
        m.global_mut(g).heap = Some(Heap::Private);
        let mut b = FunctionBuilder::new("body", vec![Type::I64], None);
        b.ret(None);
        let body = m.add_function(b.finish());
        insert_value_predictions(
            &mut m,
            body,
            &[ValuePrediction {
                global: g,
                offset: 0,
                bytes: vec![0; 16],
            }],
        )
        .unwrap();
        verify_module(&m).unwrap_or_else(|e| panic!("{e}"));
        let text = privateer_ir::printer::print_module(&m);
        assert_eq!(text.matches("intr predict").count(), 2, "{text}");
        assert_eq!(text.matches("intr private_write").count(), 2);
    }

    #[test]
    fn chunking_mixed_alignment() {
        let bytes = vec![1u8; 11];
        let chunks = chunks_of(&bytes);
        assert_eq!(chunks[0].1.len(), 8);
        assert_eq!(chunks.len(), 1 + 3);
        let total: usize = chunks.iter().map(|(_, c)| c.len()).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn control_speculation_replaces_blocks() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("body", vec![Type::I64], None);
        let cold = b.new_block();
        let warm = b.new_block();
        let c = b.icmp(privateer_ir::CmpOp::Lt, b.param(0), Value::const_i64(0));
        b.cond_br(c, cold, warm);
        b.switch_to(cold);
        b.print_i64(Value::const_i64(666));
        b.ret(None);
        b.switch_to(warm);
        b.ret(None);
        let body = m.add_function(b.finish());
        let n = apply_control_speculation(&mut m, body, &[cold]);
        assert_eq!(n, 1);
        verify_module(&m).unwrap();
        let text = privateer_ir::printer::print_function(&m, m.func(body));
        assert!(text.contains("intr misspec()"), "{text}");
        assert!(!text.contains("666"));
    }

    #[test]
    fn replace_allocation_rewrites_malloc_and_alloca() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], None);
        let p = b.malloc(Value::const_i64(24));
        b.store(Type::I64, Value::const_i64(1), p);
        let a = b.alloca(16, "tmp");
        b.store(Type::I64, Value::const_i64(2), a);
        b.free(p);
        b.ret(None);
        let main = m.add_function(b.finish());
        let malloc_site = (main, p.as_inst().unwrap());
        let alloca_site = (main, a.as_inst().unwrap());

        let mut placement = PlacementMap::default();
        placement.sites.insert(malloc_site, Heap::ShortLived);
        placement.sites.insert(alloca_site, Heap::Private);

        // A minimal profile so the free retargets: it frees the malloc
        // object.
        let mut profile = Profile::default();
        let name = ObjectName::Site {
            site: malloc_site,
            path: vec![],
        };
        let free_site = (
            main,
            m.func(main)
                .inst_ids_in_order()
                .find(|&(_, i)| matches!(m.func(main).inst(i).kind, InstKind::Free(_)))
                .map(|(_, i)| i)
                .unwrap(),
        );
        profile
            .access_objects
            .insert(free_site, std::iter::once(name).collect());

        replace_allocation(&mut m, &placement, &profile).unwrap();
        verify_module(&m).unwrap_or_else(|e| panic!("{e}"));
        let text = privateer_ir::printer::print_function(&m, m.func(main));
        assert!(text.contains("h_alloc.short"), "{text}");
        assert!(text.contains("h_alloc.priv"), "{text}");
        assert!(text.contains("h_dealloc.short"), "{text}");
        // The alloca's balancing free at the return.
        assert!(text.contains("h_dealloc.priv"), "{text}");
        assert!(!text.contains(" malloc "), "{text}");
    }
}
