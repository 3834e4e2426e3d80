//! Checkpoint objects and the phase-2 (cross-worker) privacy validation
//! (§5.2).
//!
//! Workers contribute their speculative state — private-heap pages, shadow
//! metadata, reduction images, deferred output — to a checkpoint object.
//! Merging replays each worker's per-byte access summary against the
//! committed metadata using the same Table 2 rules as the fast phase,
//! which is exactly the paper's two-phase design: conflicts that phase 1
//! cannot see (they span workers) surface here.
//!
//! Two properties keep this path linear rather than quadratic:
//!
//! * **Delta contributions** ([`DeltaTracker`]): a worker ships only the
//!   pages whose `Arc` changed since its previous contribution. This is
//!   sound because [`crate::worker::WorkerRuntime::normalize_shadow`]
//!   leaves an untouched page's shadow with no timestamps or read-live-in
//!   bytes, so the merge ([`CheckpointMerge::add`]) would dismiss every
//!   one of its words anyway.
//! * **Page-granular merge state** ([`CheckpointMerge`]): the latest
//!   write per byte and the read-live-in set live in dense per-page
//!   buffers instead of per-address hash containers, and commit walks
//!   page runs instead of reassembling byte runs.
//!
//! Phase 2 is one ordered merge per checkpoint (§5.2): the engine feeds
//! a period's contributions, sorted by worker, through
//! [`CheckpointMerge::add`] and applies the result with
//! [`CheckpointMerge::commit`]. Within a contribution bytes are scanned
//! in ascending address order, so the first trap is deterministic. The
//! engine reaches the merge through the [`PeriodMerge`] trait; the
//! per-address reference merge the proptest suite and the `privfuzz`
//! oracle pit against [`CheckpointMerge`] lives in `privateer-fuzz`.

use crate::shadow;
use privateer_ir::inst::SHADOW_BIT;
use privateer_ir::Heap;
use privateer_telemetry::{Phase, WorkerTelemetry};
use privateer_vm::{AddressSpace, MisspecKind, Page, Trap, PAGE_SIZE};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One worker's speculative state for one checkpoint period.
#[derive(Debug, Clone)]
pub struct Contribution {
    /// Contributing worker.
    pub worker: usize,
    /// Checkpoint period index.
    pub period: u64,
    /// The worker's shadow-heap pages (its phase-1 metadata), in
    /// ascending base order.
    pub shadow_pages: Vec<(u64, Arc<Page>)>,
    /// The worker's private-heap pages (speculative data values), in
    /// ascending base order.
    pub priv_pages: Vec<(u64, Arc<Page>)>,
    /// The worker's cumulative image of each registered reduction object.
    pub redux_images: Vec<Vec<u8>>,
    /// Deferred output, `(iteration, bytes)`.
    pub io: Vec<(i64, Vec<u8>)>,
}

impl Contribution {
    /// Total pages shipped (shadow + private).
    pub fn page_count(&self) -> usize {
        self.shadow_pages.len() + self.priv_pages.len()
    }
}

fn redux_images(mem: &AddressSpace, redux: &[(privateer_ir::ReduxOp, u64, u64)]) -> Vec<Vec<u8>> {
    redux
        .iter()
        .map(|&(_, addr, size)| {
            let mut buf = vec![0u8; size as usize];
            mem.read_bytes(addr, &mut buf);
            buf
        })
        .collect()
}

/// Collect a worker's *cumulative* contribution from its address space:
/// every materialized private and shadow page, regardless of when it was
/// last dirtied.
///
/// This is the reference collector; the engine uses [`DeltaTracker`],
/// which ships only pages dirtied since the previous contribution.
pub fn collect_contribution(
    worker: usize,
    period: u64,
    mem: &AddressSpace,
    redux: &[(privateer_ir::ReduxOp, u64, u64)],
    io: Vec<(i64, Vec<u8>)>,
) -> Contribution {
    let priv_lo = Heap::Private.base();
    let priv_hi = priv_lo + crate::heaps::HEAP_SPAN;
    let shadow_lo = priv_lo | SHADOW_BIT;
    let shadow_hi = priv_hi | SHADOW_BIT;
    Contribution {
        worker,
        period,
        shadow_pages: mem.pages_in_range(shadow_lo, shadow_hi),
        priv_pages: mem.pages_in_range(priv_lo, priv_hi),
        redux_images: redux_images(mem, redux),
        io,
    }
}

/// Per-worker delta state: remembers the page map as of the previous
/// contribution so the next one ships only pages that changed since.
///
/// Detection is `Arc::ptr_eq` against a snapshot of cheap `Arc` clones
/// taken *after* shadow normalization, so it costs O(#pages) per period
/// and never touches page contents. Soundness: a shadow page untouched
/// since normalization holds only live-in/old-write bytes, which the
/// phase-2 merge skips wholesale, and the merge reads a private page's
/// bytes only at addresses whose shadow byte carries a current-period
/// timestamp — which only shipped (changed) shadow pages can contain.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    shadow_snap: HashMap<u64, Arc<Page>>,
}

impl DeltaTracker {
    /// Fresh tracker whose first contribution ships every materialized
    /// page (there is no previous contribution to delta against).
    pub fn new() -> DeltaTracker {
        DeltaTracker::default()
    }

    /// Tracker seeded from a worker's address space at fork time.
    ///
    /// Committed shadow pages carry only live-in/old-write marks (commit
    /// and normalization never leave anything else behind), so a page
    /// still sharing its fork-time `Arc` is skippable by the same
    /// argument as an unchanged post-normalize page — the first
    /// contribution of a span then ships only pages dirtied *in* the
    /// span, not the whole committed footprint inherited from earlier
    /// spans.
    pub fn seeded(mem: &AddressSpace) -> DeltaTracker {
        let shadow_lo = Heap::Private.base() | SHADOW_BIT;
        let shadow_hi = shadow_lo + crate::heaps::HEAP_SPAN;
        DeltaTracker {
            shadow_snap: mem
                .pages_in_range(shadow_lo, shadow_hi)
                .into_iter()
                .collect(),
        }
    }

    /// Collect this period's delta contribution from `mem`, then
    /// normalize the worker's shadow metadata
    /// ([`crate::worker::WorkerRuntime::normalize_shadow`]) and snapshot
    /// the normalized page map for the next period's delta.
    pub fn collect(
        &mut self,
        worker: usize,
        period: u64,
        mem: &mut AddressSpace,
        redux: &[(privateer_ir::ReduxOp, u64, u64)],
        io: Vec<(i64, Vec<u8>)>,
    ) -> Contribution {
        self.collect_traced(
            worker,
            period,
            mem,
            redux,
            io,
            &mut WorkerTelemetry::disabled(),
        )
    }

    /// [`Self::collect`] with span recording: the packaging work becomes a
    /// [`Phase::Package`] span (args: period, pages shipped) and the
    /// normalize-and-resnapshot step a [`Phase::Normalize`] span on the
    /// worker's track.
    pub fn collect_traced(
        &mut self,
        worker: usize,
        period: u64,
        mem: &mut AddressSpace,
        redux: &[(privateer_ir::ReduxOp, u64, u64)],
        io: Vec<(i64, Vec<u8>)>,
        tel: &mut WorkerTelemetry,
    ) -> Contribution {
        let t0 = tel.start();
        let priv_lo = Heap::Private.base();
        let shadow_lo = priv_lo | SHADOW_BIT;
        let shadow_hi = shadow_lo + crate::heaps::HEAP_SPAN;

        // Shadow pages whose Arc changed since the post-normalize snapshot
        // of the previous period. Everything else is guaranteed free of
        // timestamps and read-live-in bytes.
        let shadow_pages: Vec<(u64, Arc<Page>)> = mem
            .pages_in_range(shadow_lo, shadow_hi)
            .into_iter()
            .filter(|(base, page)| {
                !self
                    .shadow_snap
                    .get(base)
                    .is_some_and(|old| Arc::ptr_eq(old, page))
            })
            .collect();
        // The merge reads private values only for bytes timestamped in a
        // shipped shadow page, so exactly the paired private pages (when
        // materialized) need to travel.
        let priv_pages: Vec<(u64, Arc<Page>)> = shadow_pages
            .iter()
            .filter_map(|&(sbase, _)| {
                let pbase = sbase & !SHADOW_BIT;
                mem.page_arc(pbase).map(|p| (pbase, p))
            })
            .collect();
        let contrib = Contribution {
            worker,
            period,
            shadow_pages,
            priv_pages,
            redux_images: redux_images(mem, redux),
            io,
        };
        tel.span_since(
            Phase::Package,
            t0,
            period as i64,
            (contrib.shadow_pages.len() + contrib.priv_pages.len()) as i64,
        );
        let tn = tel.start();
        crate::worker::WorkerRuntime::normalize_shadow(mem);
        self.shadow_snap = mem
            .pages_in_range(shadow_lo, shadow_hi)
            .into_iter()
            .collect();
        tel.span_since(Phase::Normalize, tn, period as i64, 0);
        contrib
    }
}

const PG: usize = PAGE_SIZE as usize;

/// Dense merge state for one private page: per-byte metadata (`0` =
/// untouched this period, [`shadow::READ_LIVE_IN`], or a timestamp) and
/// the value of the latest write.
#[derive(Debug)]
struct PageState {
    meta: [u8; PG],
    val: [u8; PG],
}

impl PageState {
    fn new_boxed() -> Box<PageState> {
        Box::new(PageState {
            meta: [0u8; PG],
            val: [0u8; PG],
        })
    }
}

/// Incremental checkpoint merge state for one period, page-granular: the
/// latest-write and read-live-in metadata live in dense per-page buffers
/// keyed by page base, so validation is array indexing rather than
/// per-address hashing and commit writes page runs.
///
/// # Example
///
/// One worker speculatively writes a private byte; phase 2 merges its
/// contribution and commits the winning value:
///
/// ```
/// use privateer_ir::Heap;
/// use privateer_runtime::checkpoint::{collect_contribution, CheckpointMerge};
/// use privateer_runtime::worker::WorkerRuntime;
/// use privateer_vm::{AddressSpace, RuntimeIface};
///
/// let addr = Heap::Private.base() + 64;
/// let mut rt = WorkerRuntime::new(0, 0.0, 0);
/// let mut mem = AddressSpace::new();
/// rt.begin_iteration(0, 0).unwrap();
/// rt.private_write(addr, 1, &mut mem).unwrap();
/// mem.write_u8(addr, 42);
/// rt.end_iteration().unwrap();
///
/// let mut committed = AddressSpace::new();
/// let mut merge = CheckpointMerge::new(0);
/// let contrib = collect_contribution(0, 0, &mem, &[], vec![]);
/// merge.add(contrib, &committed).unwrap();
/// assert_eq!(merge.written_bytes(), 1);
/// merge.commit(&mut committed);
/// assert_eq!(committed.read_u8(addr), 42);
/// ```
#[derive(Debug, Default)]
pub struct CheckpointMerge {
    /// Page base → dense per-byte merge state.
    pages: BTreeMap<u64, Box<PageState>>,
    /// Number of distinct bytes written this period.
    written: usize,
    /// Deferred output gathered from all workers.
    io: Vec<(i64, Vec<u8>)>,
    /// Reduction images per object per worker (worker-cumulative).
    pub redux_images: Vec<Vec<Vec<u8>>>,
}

impl CheckpointMerge {
    /// Empty merge state expecting `redux_objects` registered reductions.
    pub fn new(redux_objects: usize) -> CheckpointMerge {
        CheckpointMerge {
            redux_images: vec![Vec::new(); redux_objects],
            ..CheckpointMerge::default()
        }
    }

    /// Merge one worker's contribution, validating privacy against the
    /// committed metadata in `committed` (phase 2).
    ///
    /// # Errors
    ///
    /// Traps with a privacy misspeculation on a cross-worker
    /// read-of-earlier-write or the conservative read/write conflict.
    pub fn add(&mut self, contrib: Contribution, committed: &AddressSpace) -> Result<(), Trap> {
        for (sbase, spage) in &contrib.shadow_pages {
            let pbase = *sbase & !SHADOW_BIT;
            // Word-granular skip: untouched runs carry only
            // live-in/old-write metadata, so whole 8-byte words are
            // dismissed with a single compare (shadow::word); only words
            // containing read-live-in or timestamp bytes are merged.
            let mut words = spage
                .chunks_exact(8)
                .map(|group| u64::from_le_bytes(group.try_into().unwrap()))
                .enumerate()
                .filter(|&(_, w)| !shadow::word::all_le_old_write(w))
                .peekable();
            // The dense page state materializes lazily, on the first word
            // that actually carries touched bytes; pages whose shadow is
            // entirely live-in/old-write never allocate merge state.
            if words.peek().is_none() {
                continue;
            }
            let state = self.pages.entry(pbase).or_insert_with(PageState::new_boxed);
            // The paired private page (both lists ascend by base), looked
            // up once per shadow page.
            let ppage = contrib
                .priv_pages
                .binary_search_by_key(&pbase, |&(base, _)| base)
                .ok()
                .map(|i| &*contrib.priv_pages[i].1);
            for (wi, w) in words {
                merge_word(state, &mut self.written, wi, w, pbase, ppage, committed)?;
            }
        }
        for (i, img) in contrib.redux_images.into_iter().enumerate() {
            self.redux_images[i].push(img);
        }
        self.io.extend(contrib.io);
        Ok(())
    }

    /// Number of private bytes written this period.
    pub fn written_bytes(&self) -> usize {
        self.written
    }

    /// Number of pages carrying merge state this period.
    pub fn dirty_pages(&self) -> usize {
        self.pages.len()
    }

    /// Commit the merged state: apply the latest write per byte onto
    /// `mem`, mark those bytes old-write in the committed shadow, and
    /// return the deferred output in iteration order.
    pub fn commit(self, mem: &mut AddressSpace) -> Vec<(i64, Vec<u8>)> {
        // Pages are already in address order; within each, write runs of
        // consecutively written bytes straight out of the dense buffers.
        for (pbase, state) in self.pages {
            let mut i = 0usize;
            while i < PG {
                if state.meta[i] < shadow::TS_BASE {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < PG && state.meta[i] >= shadow::TS_BASE {
                    i += 1;
                }
                let addr = pbase + start as u64;
                mem.write_bytes(addr, &state.val[start..i]);
                mem.fill(addr | SHADOW_BIT, (i - start) as u64, shadow::OLD_WRITE);
            }
        }
        let mut io = self.io;
        io.sort_by_key(|a| a.0);
        io
    }
}

/// Merge one 8-byte shadow word `w` known to contain at least one
/// touched byte. `ppage` is the contribution's private page for `pbase`,
/// if it shipped one (an absent page reads as zeros).
fn merge_word(
    state: &mut PageState,
    written: &mut usize,
    wi: usize,
    w: u64,
    pbase: u64,
    ppage: Option<&Page>,
    committed: &AddressSpace,
) -> Result<(), Trap> {
    let word = wi * 8..wi * 8 + 8;
    // Word path: eight timestamped writes onto bytes no earlier
    // contribution touched this period. Per byte this is the write arm
    // below with no conflict and no earlier write, so it only copies.
    if shadow::word::all_timestamps(w) && state.meta[word.clone()] == [0u8; 8] {
        state.meta[word.clone()].copy_from_slice(&w.to_le_bytes());
        match ppage {
            Some(p) => state.val[word.clone()].copy_from_slice(&p[word]),
            None => state.val[word].fill(0),
        }
        *written += 8;
        return Ok(());
    }
    for (bi, meta) in w.to_le_bytes().into_iter().enumerate() {
        if meta <= shadow::OLD_WRITE {
            continue;
        }
        let off = wi * 8 + bi;
        let baddr = pbase + off as u64;
        if meta == shadow::READ_LIVE_IN {
            // Stale read: an earlier *period* wrote this byte; the
            // worker read its pre-invocation fork instead.
            if committed.read_u8(baddr | SHADOW_BIT) == shadow::OLD_WRITE {
                return Err(privacy(
                    baddr,
                    "read of a value committed by an earlier iteration (stale live-in)",
                ));
            }
            if state.meta[off] >= shadow::TS_BASE {
                return Err(privacy(
                    baddr,
                    "cross-worker read/write conflict on a live-in byte (conservative)",
                ));
            }
            state.meta[off] = shadow::READ_LIVE_IN;
        } else {
            // A timestamped write.
            if state.meta[off] == shadow::READ_LIVE_IN {
                return Err(privacy(
                    baddr,
                    "cross-worker read/write conflict on a live-in byte (conservative)",
                ));
            }
            let prev = state.meta[off];
            if prev >= shadow::TS_BASE && prev >= meta {
                continue;
            }
            if prev < shadow::TS_BASE {
                *written += 1;
            }
            state.meta[off] = meta;
            state.val[off] = ppage.map_or(0, |p| p[off]);
        }
    }
    Ok(())
}

/// One period's phase-2 merge as the engine drives it: the period's
/// contributions go through [`add`](Self::add) in worker order, then one
/// [`commit`](Self::commit) applies the result. [`CheckpointMerge`] is
/// the engine's merge; tests plug in others (a reference oracle, fault
/// injection) through the engine's per-period merge factory.
pub trait PeriodMerge {
    /// Merge one worker's contribution, validating it against the
    /// committed metadata in `committed`.
    ///
    /// # Errors
    ///
    /// A misspeculation sends the whole period through recovery; any
    /// other trap aborts the span.
    fn add(&mut self, contrib: Contribution, committed: &AddressSpace) -> Result<(), Trap>;
    /// Number of private bytes written this period.
    fn written_bytes(&self) -> usize;
    /// Reduction images per object, one per contribution in merge order.
    fn redux_images(&self) -> &[Vec<Vec<u8>>];
    /// Apply the merged state onto `mem` and return the period's deferred
    /// output in iteration order.
    fn commit(self: Box<Self>, mem: &mut AddressSpace) -> Vec<(i64, Vec<u8>)>;
}

impl PeriodMerge for CheckpointMerge {
    fn add(&mut self, contrib: Contribution, committed: &AddressSpace) -> Result<(), Trap> {
        CheckpointMerge::add(self, contrib, committed)
    }

    fn written_bytes(&self) -> usize {
        self.written
    }

    fn redux_images(&self) -> &[Vec<Vec<u8>>] {
        &self.redux_images
    }

    fn commit(self: Box<Self>, mem: &mut AddressSpace) -> Vec<(i64, Vec<u8>)> {
        CheckpointMerge::commit(*self, mem)
    }
}

fn privacy(addr: u64, why: &str) -> Trap {
    Trap::misspec(MisspecKind::Privacy, format!("{why} (byte {addr:#x})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerRuntime;
    use privateer_vm::RuntimeIface;

    fn worker_mem() -> (WorkerRuntime, AddressSpace) {
        (WorkerRuntime::new(0, 0.0, 0), AddressSpace::new())
    }

    fn contrib_of(
        worker: usize,
        period: u64,
        mem: &AddressSpace,
        rt: &mut WorkerRuntime,
    ) -> Contribution {
        collect_contribution(worker, period, mem, &[], rt.take_io())
    }

    #[test]
    fn clean_merge_commits_latest_write() {
        let a = Heap::Private.base() + 0x100;
        // Worker 0 writes iteration 0; worker 1 writes iteration 1.
        let (mut r0, mut m0) = worker_mem();
        r0.begin_iteration(0, 0).unwrap();
        r0.private_write(a, 1, &mut m0).unwrap();
        m0.write_u8(a, 10);
        r0.end_iteration().unwrap();

        let mut r1 = WorkerRuntime::new(1, 0.0, 0);
        let mut m1 = AddressSpace::new();
        r1.begin_iteration(1, 1).unwrap();
        r1.private_write(a, 1, &mut m1).unwrap();
        m1.write_u8(a, 20);
        r1.end_iteration().unwrap();

        let mut committed = AddressSpace::new();
        let mut merge = CheckpointMerge::new(0);
        merge
            .add(contrib_of(0, 0, &m0, &mut r0), &committed)
            .unwrap();
        merge
            .add(contrib_of(1, 0, &m1, &mut r1), &committed)
            .unwrap();
        assert_eq!(merge.written_bytes(), 1);
        assert_eq!(merge.dirty_pages(), 1);
        merge.commit(&mut committed);
        // Iteration 1 is sequentially later: its value wins.
        assert_eq!(committed.read_u8(a), 20);
        assert_eq!(committed.read_u8(a | SHADOW_BIT), shadow::OLD_WRITE);
    }

    #[test]
    fn merge_order_does_not_change_winner() {
        let a = Heap::Private.base() + 0x200;
        let mk = |iter: u64, val: u8| {
            let mut rt = WorkerRuntime::new(iter as usize, 0.0, 0);
            let mut mem = AddressSpace::new();
            rt.begin_iteration(iter as i64, iter).unwrap();
            rt.private_write(a, 1, &mut mem).unwrap();
            mem.write_u8(a, val);
            rt.end_iteration().unwrap();
            (rt, mem)
        };
        for order in [[0usize, 1], [1, 0]] {
            let contribs: Vec<_> = order
                .iter()
                .map(|&w| {
                    let (mut rt, mem) = mk(w as u64, (w as u8 + 1) * 10);
                    contrib_of(w, 0, &mem, &mut rt)
                })
                .collect();
            let mut committed = AddressSpace::new();
            let mut merge = CheckpointMerge::new(0);
            for c in contribs {
                merge.add(c, &committed).unwrap();
            }
            merge.commit(&mut committed);
            assert_eq!(committed.read_u8(a), 20, "iteration 1's value must win");
        }
    }

    #[test]
    fn cross_worker_read_write_conflict_detected() {
        let a = Heap::Private.base() + 0x300;
        // Worker 0 reads live-in at iteration 1; worker 1 wrote at iteration 0.
        let (mut r0, mut m0) = worker_mem();
        r0.begin_iteration(1, 1).unwrap();
        r0.private_read(a, 1, &mut m0).unwrap();
        r0.end_iteration().unwrap();

        let mut r1 = WorkerRuntime::new(1, 0.0, 0);
        let mut m1 = AddressSpace::new();
        r1.begin_iteration(0, 0).unwrap();
        r1.private_write(a, 1, &mut m1).unwrap();
        r1.end_iteration().unwrap();

        for order in [true, false] {
            let committed = AddressSpace::new();
            let mut merge = CheckpointMerge::new(0);
            let c0 = contrib_of(0, 0, &m0, &mut WorkerRuntime::new(0, 0.0, 0));
            let c0 = Contribution { io: vec![], ..c0 };
            let c1 = contrib_of(1, 0, &m1, &mut WorkerRuntime::new(1, 0.0, 0));
            let c1 = Contribution { io: vec![], ..c1 };
            let (first, second) = if order {
                (c0.clone(), c1.clone())
            } else {
                (c1, c0)
            };
            let r = merge
                .add(first, &committed)
                .and_then(|()| merge.add(second, &committed));
            assert!(r.is_err(), "conflict must be caught in either order");
        }
    }

    #[test]
    fn stale_read_against_committed_meta_detected() {
        let a = Heap::Private.base() + 0x400;
        // Committed state: byte was written in an earlier period.
        let mut committed = AddressSpace::new();
        committed.write_u8(a | SHADOW_BIT, shadow::OLD_WRITE);

        // Worker reads it as live-in (its fork predates the write).
        let (mut rt, mut mem) = worker_mem();
        rt.begin_iteration(9, 0).unwrap();
        rt.private_read(a, 1, &mut mem).unwrap();
        let mut merge = CheckpointMerge::new(0);
        let e = merge
            .add(contrib_of(0, 1, &mem, &mut rt), &committed)
            .unwrap_err();
        assert!(matches!(e, Trap::Misspec(m) if m.kind == MisspecKind::Privacy));
    }

    #[test]
    fn disjoint_writes_all_commit() {
        let base = Heap::Private.base() + 0x1000;
        let mut committed = AddressSpace::new();
        let mut merge = CheckpointMerge::new(0);
        for w in 0..4usize {
            let mut rt = WorkerRuntime::new(w, 0.0, 0);
            let mut mem = AddressSpace::new();
            rt.begin_iteration(w as i64, w as u64).unwrap();
            let a = base + (w as u64) * 8;
            rt.private_write(a, 8, &mut mem).unwrap();
            mem.write_u64(a, w as u64 + 100);
            rt.end_iteration().unwrap();
            merge
                .add(contrib_of(w, 0, &mem, &mut rt), &committed)
                .unwrap();
        }
        assert_eq!(merge.written_bytes(), 32);
        merge.commit(&mut committed);
        for w in 0..4u64 {
            assert_eq!(committed.read_u64(base + w * 8), w + 100);
        }
    }

    #[test]
    fn io_commits_in_iteration_order() {
        let mut merge = CheckpointMerge::new(0);
        let committed = AddressSpace::new();
        let mk = |w: usize, io: Vec<(i64, Vec<u8>)>| Contribution {
            worker: w,
            period: 0,
            shadow_pages: vec![],
            priv_pages: vec![],
            redux_images: vec![],
            io,
        };
        merge
            .add(
                mk(0, vec![(2, b"c".to_vec()), (0, b"a".to_vec())]),
                &committed,
            )
            .unwrap();
        merge
            .add(mk(1, vec![(1, b"b".to_vec())]), &committed)
            .unwrap();
        let mut out = Vec::new();
        for (_, bytes) in merge.commit(&mut AddressSpace::new()) {
            out.extend(bytes);
        }
        assert_eq!(out, b"abc");
    }

    #[test]
    fn delta_tracker_ships_only_dirty_pages() {
        let a = Heap::Private.base() + 0x2000;
        let b = a + 16 * PAGE_SIZE;
        let (mut rt, mut mem) = worker_mem();
        let mut delta = DeltaTracker::new();

        // Period 0: dirty the pages of both `a` and `b`.
        rt.begin_iteration(0, 0).unwrap();
        rt.private_write(a, 8, &mut mem).unwrap();
        mem.write_u64(a, 1);
        rt.private_write(b, 8, &mut mem).unwrap();
        mem.write_u64(b, 2);
        rt.end_iteration().unwrap();
        let c0 = delta.collect(0, 0, &mut mem, &[], vec![]);
        assert_eq!(c0.shadow_pages.len(), 2);
        assert_eq!(c0.priv_pages.len(), 2);

        // Period 1: touch only `a`'s page again.
        rt.begin_iteration(1, 0).unwrap();
        rt.private_write(a, 8, &mut mem).unwrap();
        mem.write_u64(a, 3);
        rt.end_iteration().unwrap();
        let c1 = delta.collect(0, 1, &mut mem, &[], vec![]);
        assert_eq!(c1.shadow_pages.len(), 1, "page of `b` must not re-ship");
        assert_eq!(c1.shadow_pages[0].0 & !SHADOW_BIT, a & !(PAGE_SIZE - 1));
        assert_eq!(c1.priv_pages.len(), 1);

        // Period 2: touch nothing — the delta is empty.
        let c2 = delta.collect(0, 2, &mut mem, &[], vec![]);
        assert!(c2.shadow_pages.is_empty());
        assert!(c2.priv_pages.is_empty());
    }

    #[test]
    fn delta_contribution_merges_like_cumulative() {
        // Two periods over the same worker: the delta contribution of
        // period 1 must merge to the identical committed state as the
        // cumulative one (stale pages contribute nothing).
        let a = Heap::Private.base() + 0x5000;
        let far = a + 3 * PAGE_SIZE;
        let run = |use_delta: bool| -> (AddressSpace, usize) {
            let (mut rt, mut mem) = worker_mem();
            let mut delta = DeltaTracker::new();
            let mut committed = AddressSpace::new();
            // Period 0.
            rt.begin_iteration(0, 0).unwrap();
            rt.private_write(far, 8, &mut mem).unwrap();
            mem.write_u64(far, 7);
            rt.end_iteration().unwrap();
            let c0 = if use_delta {
                delta.collect(0, 0, &mut mem, &[], vec![])
            } else {
                let c = collect_contribution(0, 0, &mem, &[], vec![]);
                WorkerRuntime::normalize_shadow(&mut mem);
                c
            };
            let mut m0 = CheckpointMerge::new(0);
            m0.add(c0, &committed).unwrap();
            m0.commit(&mut committed);
            // Period 1 touches a different page.
            rt.begin_iteration(1, 0).unwrap();
            rt.private_write(a, 8, &mut mem).unwrap();
            mem.write_u64(a, 9);
            rt.end_iteration().unwrap();
            let c1 = if use_delta {
                delta.collect(0, 1, &mut mem, &[], vec![])
            } else {
                let c = collect_contribution(0, 1, &mem, &[], vec![]);
                WorkerRuntime::normalize_shadow(&mut mem);
                c
            };
            let shipped = c1.shadow_pages.len() + c1.priv_pages.len();
            let mut m1 = CheckpointMerge::new(0);
            m1.add(c1, &committed).unwrap();
            m1.commit(&mut committed);
            (committed, shipped)
        };
        let (with_delta, delta_pages) = run(true);
        let (cumulative, full_pages) = run(false);
        let lo = Heap::Private.base();
        assert!(with_delta.range_eq(&cumulative, lo, lo + crate::heaps::HEAP_SPAN));
        let slo = lo | SHADOW_BIT;
        assert!(with_delta.range_eq(&cumulative, slo, slo + crate::heaps::HEAP_SPAN));
        assert!(
            delta_pages < full_pages,
            "delta ({delta_pages} pages) must ship less than cumulative ({full_pages})"
        );
    }
}
