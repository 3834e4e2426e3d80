//! The speculative DOALL engine (§5): worker processes, checkpoints,
//! misspeculation detection and recovery.
//!
//! The paper's runtime forks worker *processes* whose virtual memory maps
//! replicate the logical heaps copy-on-write; here each worker is a thread
//! holding a COW [`AddressSpace`] fork, which provides the identical
//! isolation semantics (see DESIGN.md). Execution follows Figure 5:
//! workers run iterations round-robin, contribute speculative state to
//! checkpoint objects every `k` iterations without barriers, and a
//! misspeculation squashes uncommitted periods, triggers sequential
//! recovery from the last valid checkpoint, and resumes parallel
//! execution.

use crate::checkpoint::{CheckpointMerge, Contribution, DeltaTracker, ReferenceCheckpointMerge};
use crate::heaps::SharedHeaps;
use crate::model::{self, SimCost};
use crate::schedule::{SchedPoint, VirtualScheduler};
use crate::shadow::MAX_PERIOD;
use crate::worker::{WorkerRuntime, WorkerStats};
use privateer_ir::inst::SHADOW_BIT;
use privateer_ir::{FuncId, Heap, Module, PlanEntry, ReduxOp};
use privateer_telemetry::{
    clock, Counter, Histogram, MetricsRegistry, Phase, SpanEvent, Stamped, Telemetry, TraceData,
    WorkerTelemetry, ENGINE_TRACK,
};
use privateer_vm::interp::{Interp, ProgramImage};
use privateer_vm::{AddressSpace, MisspecKind, NopHooks, RuntimeIface, Trap, Val};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Checkpoint period in iterations (clamped to the 253-iteration
    /// metadata bound).
    pub checkpoint_period: u64,
    /// Injected misspeculation rate per iteration (the §6.3 experiment).
    pub inject_rate: f64,
    /// Seed for deterministic injection.
    pub inject_seed: u64,
    /// Differential-testing mode: merge every period with the simple
    /// per-address [`ReferenceCheckpointMerge`] instead of the dense
    /// fast path [`CheckpointMerge`]. Commits, traps and I/O must be
    /// byte-identical to the fast path — the `privfuzz` oracle pits the
    /// two against each other inside the full engine.
    pub reference_merge: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            checkpoint_period: 64,
            inject_rate: 0.0,
            inject_seed: 0x5eed,
            reference_merge: false,
        }
    }
}

/// Observable engine events (Figure 5's timeline; asserted by tests).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A parallel region was invoked over `lo..hi`.
    Invoke {
        /// First iteration.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// Checkpoint `period` (iterations `base..end`) was validated and
    /// committed.
    CheckpointCommitted {
        /// Checkpoint period index.
        period: u64,
        /// First iteration of the period.
        base: i64,
        /// Exclusive end of the period.
        end: i64,
    },
    /// Misspeculation detected at `iter`.
    MisspecDetected {
        /// The earliest misspeculated iteration.
        iter: i64,
        /// Which check failed.
        kind: MisspecKind,
    },
    /// Sequential recovery re-executed iterations `from..=through`.
    Recovery {
        /// First re-executed iteration.
        from: i64,
        /// Last re-executed iteration (inclusive).
        through: i64,
    },
    /// Parallel execution resumed at `at`.
    ParallelResumed {
        /// First iteration of the resumed region.
        at: i64,
    },
    /// The invocation finished.
    InvokeDone,
}

/// Aggregate statistics across all invocations (feeds Table 3 and
/// Figure 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Parallel-region invocations.
    pub invocations: u64,
    /// Checkpoints constructed (committed or squashed).
    pub checkpoints: u64,
    /// Bytes validated by `private_read` across all workers.
    pub priv_read_bytes: u64,
    /// Bytes validated by `private_write` across all workers.
    pub priv_write_bytes: u64,
    /// Misspeculations detected.
    pub misspecs: u64,
    /// Iterations re-executed sequentially during recovery.
    pub recovered_iters: u64,
    /// Iterations executed speculatively (including squashed work).
    pub iters_speculative: u64,
    /// Wall-clock time of parallel invocations (ns).
    pub wall_ns: u64,
    /// `workers × wall` of parallel spans *plus* `workers ×` recovery
    /// wall — total computational capacity, counting the capacity the
    /// machine holds idle while serial recovery stalls the pipeline.
    pub capacity_ns: u64,
    /// Σ worker time executing the loop body, checks included (ns).
    pub body_ns: u64,
    /// Σ worker time in `private_read` validation (ns).
    pub priv_read_ns: u64,
    /// Σ worker time in `private_write` validation (ns).
    pub priv_write_ns: u64,
    /// Σ worker checkpoint-packaging time + engine merge time (ns),
    /// including merge attempts that failed (a phase-2 violation or an
    /// internal merge fault) — the drain path is checkpoint work too.
    pub checkpoint_ns: u64,
    /// Wall-clock time of sequential misspeculation recovery (ns). The
    /// whole machine is held while recovery runs, so this window also
    /// contributes `workers ×` its duration to [`Self::capacity_ns`].
    pub recovery_ns: u64,
    /// Σ 8-byte shadow words handled by the word-granular (SWAR) privacy
    /// fast path across all workers.
    pub priv_fast_words: u64,
    /// Σ shadow bytes that took the per-byte slow path (sub-word tails and
    /// trap-candidate words) across all workers.
    pub priv_slow_bytes: u64,
    /// Σ pages (shadow + private) shipped in checkpoint contributions
    /// across all workers. With delta contributions this counts only the
    /// pages dirtied since each worker's previous contribution, so over a
    /// multi-period span it tracks total dirty traffic, not footprint ×
    /// periods.
    pub contrib_pages: u64,
    /// Σ contribution pages (shadow + private) dropped *eagerly* because
    /// their period was at or after a detected misspeculation — freed the
    /// moment the squash is known instead of being pinned in the pending
    /// map until the span's workers join.
    pub squashed_pages_dropped: u64,
    /// Host-independent simulated-cycle accounting (see
    /// [`crate::model`]).
    pub sim: SimCost,
}

impl EngineStats {
    /// The wall-clock utilization breakdown as fractions of total
    /// capacity: `(useful, private read, private write, checkpoint,
    /// recovery, spawn/join)`.
    ///
    /// `checkpoint` includes failed merge attempts (the merge-fault drain
    /// path), and `recovery` is the serial re-execution's share of the
    /// held capacity; the `(workers - 1)` idle shares during a recovery
    /// window surface in the `spawn/join` residual along with fork and
    /// scheduling slack. Earlier versions dropped both of these into the
    /// residual, overstating spawn/join whenever misspeculation occurred.
    pub fn breakdown(&self) -> (f64, f64, f64, f64, f64, f64) {
        let cap = self.capacity_ns.max(1) as f64;
        let useful = self
            .body_ns
            .saturating_sub(self.priv_read_ns + self.priv_write_ns) as f64
            / cap;
        let pr = self.priv_read_ns as f64 / cap;
        let pw = self.priv_write_ns as f64 / cap;
        let ck = self.checkpoint_ns as f64 / cap;
        let rec = self.recovery_ns as f64 / cap;
        let spawn_join = (1.0 - useful - pr - pw - ck - rec).max(0.0);
        (useful, pr, pw, ck, rec, spawn_join)
    }
}

enum Msg {
    Contribution(Box<Contribution>),
    Misspec {
        iter: i64,
        kind: MisspecKind,
    },
    Done {
        stats: WorkerStats,
        tel: WorkerTelemetry,
    },
}

enum SpanOutcome {
    Complete,
    Misspec { iter: i64, resume_base: i64 },
}

/// The engine's handles into the metrics registry. These counters are
/// the source of truth for the cross-worker totals; the corresponding
/// [`EngineStats`] fields are snapshot views refreshed at worker drain so
/// existing consumers (Table 3, Figure 8) keep working unchanged.
#[derive(Debug)]
struct EngineMetrics {
    invocations: Counter,
    checkpoints: Counter,
    misspecs: Counter,
    priv_fast_words: Counter,
    priv_slow_bytes: Counter,
    contrib_pages: Counter,
    squashed_pages: Counter,
    recovered_iters: Counter,
    merge_ns: Histogram,
}

impl EngineMetrics {
    fn new(reg: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            invocations: reg.counter("engine.invocations"),
            checkpoints: reg.counter("engine.checkpoints"),
            misspecs: reg.counter("engine.misspecs"),
            priv_fast_words: reg.counter("priv.fast_words"),
            priv_slow_bytes: reg.counter("priv.slow_bytes"),
            contrib_pages: reg.counter("checkpoint.contrib_pages"),
            squashed_pages: reg.counter("checkpoint.squashed_pages"),
            recovered_iters: reg.counter("recovery.iters"),
            merge_ns: reg.histogram("checkpoint.merge_ns"),
        }
    }
}

/// Stamp `event` into the Figure 5 log, mirroring the instants that have
/// no explicit span (detection, resume) into the trace sink.
fn push_event(tel: &Telemetry, events: &mut Vec<Stamped<EngineEvent>>, event: EngineEvent) {
    if tel.is_tracing() {
        let instant = match &event {
            EngineEvent::MisspecDetected { iter, .. } => Some((Phase::Misspec, *iter)),
            EngineEvent::ParallelResumed { at } => Some((Phase::Resume, *at)),
            _ => None,
        };
        if let Some((phase, a)) = instant {
            tel.record(SpanEvent {
                ts_ns: clock::now_ns(),
                dur_ns: 0,
                phase,
                track: ENGINE_TRACK,
                a,
                b: 0,
            });
        }
    }
    events.push(tel.stamp(event));
}

/// The phase-2 merge state of one period: the dense fast path, or the
/// per-address reference merge in differential mode
/// ([`EngineConfig::reference_merge`]). Both take the same add → commit
/// sequence.
enum PeriodMerge {
    Fast(CheckpointMerge),
    Reference(ReferenceCheckpointMerge),
}

impl PeriodMerge {
    fn add(&mut self, contrib: Contribution, committed: &AddressSpace) -> Result<(), Trap> {
        match self {
            PeriodMerge::Fast(m) => m.add(contrib, committed),
            PeriodMerge::Reference(m) => m.add(contrib, committed),
        }
    }

    fn written_bytes(&self) -> usize {
        match self {
            PeriodMerge::Fast(m) => m.written_bytes(),
            PeriodMerge::Reference(m) => m.written_bytes(),
        }
    }

    /// Reduction images per object, one per contribution in merge order.
    fn redux_images(&self) -> &[Vec<Vec<u8>>] {
        match self {
            PeriodMerge::Fast(m) => &m.redux_images,
            PeriodMerge::Reference(m) => &m.redux_images,
        }
    }

    fn commit(self, mem: &mut AddressSpace) -> Vec<(i64, Vec<u8>)> {
        match self {
            PeriodMerge::Fast(m) => m.commit(mem),
            PeriodMerge::Reference(m) => m.commit(mem),
        }
    }
}

/// Drop every pending contribution for periods `>= first_bad` (they can
/// never commit once that period misspeculated) and return the number of
/// pages released. Freeing eagerly matters: the squashed contributions
/// pin page `Arc`s — and with them whole COW page chains — that would
/// otherwise survive until the span's workers join.
fn prune_squashed(pending: &mut BTreeMap<u64, Vec<Contribution>>, first_bad: u64) -> u64 {
    let squashed = pending.split_off(&first_bad);
    squashed
        .values()
        .flat_map(|v| v.iter())
        .map(|c| c.page_count() as u64)
        .sum()
}

/// Whether a contribution arriving for `period` is already known dead —
/// the merge bailed on an internal fault, or a misspeculation at
/// iteration `misspec_iter` squashed that period and everything after it.
/// Such a contribution is dropped on arrival instead of being pinned in
/// the pending map until the span's workers join (the arrival-side twin
/// of [`prune_squashed`]).
fn arrival_squashed(bailed: bool, misspec_iter: Option<i64>, period: u64, lo: i64, k: i64) -> bool {
    bailed || misspec_iter.is_some_and(|m| period as i64 >= (m - lo) / k)
}

/// The main-process runtime: shared-heap allocation plus the speculative
/// DOALL engine behind [`RuntimeIface::parallel_invoke`]. Code outside a
/// parallel region runs non-speculatively, so its checks keep the trait's
/// inert defaults.
#[derive(Debug)]
pub struct MainRuntime {
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Shared logical-heap allocators.
    pub heaps: SharedHeaps,
    /// Aggregate statistics.
    pub stats: EngineStats,
    /// Event log (Figure 5 timeline), stamped for happens-before
    /// assertions.
    pub events: Vec<Stamped<EngineEvent>>,
    /// Telemetry handle: metrics registry (always live) plus the trace
    /// sink when tracing is enabled.
    pub tel: Telemetry,
    metrics: EngineMetrics,
    redux: Vec<(ReduxOp, u64, u64)>,
    out: Vec<u8>,
    merge_fault: Option<(u64, Trap)>,
    sched: Option<Arc<VirtualScheduler>>,
}

impl MainRuntime {
    /// Build from a loaded image and a configuration, with telemetry
    /// disabled.
    pub fn new(image: &ProgramImage, cfg: EngineConfig) -> MainRuntime {
        MainRuntime::with_telemetry(image, cfg, Telemetry::disabled())
    }

    /// Build with an explicit telemetry handle (e.g.
    /// [`Telemetry::enabled`] to capture a trace).
    pub fn with_telemetry(image: &ProgramImage, cfg: EngineConfig, tel: Telemetry) -> MainRuntime {
        let metrics = EngineMetrics::new(tel.registry());
        MainRuntime {
            cfg,
            heaps: SharedHeaps::new(image),
            stats: EngineStats::default(),
            events: Vec::new(),
            tel,
            metrics,
            redux: Vec::new(),
            out: Vec::new(),
            merge_fault: None,
            sched: None,
        }
    }

    /// Snapshot the trace collected so far (events + metrics).
    pub fn trace(&self) -> TraceData {
        self.tel.trace()
    }

    /// Fault-injection hook for tests: fail the phase-2 merge of `period`
    /// with `trap`. A misspeculation sends the whole period through
    /// recovery; any other trap bails out of the span. One-shot — clears
    /// itself when it fires, so a resumed span (whose periods renumber
    /// from zero) is unaffected.
    #[doc(hidden)]
    pub fn fail_merge_at(&mut self, period: u64, trap: Trap) {
        self.merge_fault = Some((period, trap));
    }

    /// Attach a [`VirtualScheduler`]: worker iterations, contribution
    /// sends and misspeculation publications then rendezvous on the scheduler's script, making a chosen interleaving
    /// deterministic and replayable (see [`crate::schedule`]). The
    /// scheduler applies to every subsequent invocation until replaced.
    pub fn set_schedule(&mut self, sched: Arc<VirtualScheduler>) {
        self.sched = Some(sched);
    }

    /// Bytes printed so far (committed output only).
    pub fn output_bytes(&self) -> &[u8] {
        &self.out
    }

    /// Take the committed output.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Run one parallel span `lo..hi`; on misspeculation the committed
    /// prefix is installed in `mem` and the outcome names the earliest
    /// misspeculated iteration.
    #[allow(clippy::too_many_arguments)]
    fn span(
        &mut self,
        module: &Module,
        global_addrs: &[u64],
        body: FuncId,
        lo: i64,
        hi: i64,
        mem: &mut AddressSpace,
    ) -> Result<SpanOutcome, Trap> {
        let w_count = self.cfg.workers.max(1);
        let k = self.cfg.checkpoint_period.clamp(1, MAX_PERIOD) as i64;
        let span_t0 = Instant::now();

        // Fresh live-in metadata for this span.
        let shadow_lo = Heap::Private.base() | SHADOW_BIT;
        mem.clear_range(shadow_lo, shadow_lo + crate::heaps::HEAP_SPAN);

        // Pre-span reduction values; workers start from the identity.
        let redux = self.redux.clone();
        let pre_redux: Vec<Vec<u8>> = redux
            .iter()
            .map(|&(_, addr, size)| {
                let mut buf = vec![0u8; size as usize];
                mem.read_bytes(addr, &mut buf);
                buf
            })
            .collect();
        let mut base = mem.fork();
        for &(op, addr, size) in &redux {
            let ident = op.identity_bytes();
            let mut image = vec![0u8; size as usize];
            for chunk in image.chunks_mut(8) {
                chunk.copy_from_slice(&ident[..chunk.len()]);
            }
            base.write_bytes(addr, &image);
        }

        // Earliest misspeculated iteration, shared with workers.
        let flag = AtomicI64::new(i64::MAX);
        let (tx, rx) = mpsc::channel::<Msg>();
        let cfg = self.cfg;
        let tel = self.tel.clone();
        let sched = self.sched.clone();

        let mut outcome: Result<SpanOutcome, Trap> = Ok(SpanOutcome::Complete);
        let mut committed_through = lo; // first uncommitted iteration
        let mut max_busy = 0u64;
        let mut merge_sim = 0u64;

        std::thread::scope(|scope| {
            for w in 0..w_count {
                let worker_mem = base.fork();
                let tx = tx.clone();
                let flag = &flag;
                let redux = redux.clone();
                let wtel = tel.worker(w as u32 + 1);
                let wsched = sched.clone();
                scope.spawn(move || {
                    worker_main(
                        w,
                        w_count,
                        module,
                        global_addrs,
                        body,
                        lo,
                        hi,
                        k,
                        cfg,
                        worker_mem,
                        &redux,
                        tx,
                        flag,
                        wtel,
                        wsched,
                    );
                });
            }
            drop(tx);

            // Collection loop: merge checkpoints strictly in period order so
            // phase-2 validation sees the committed metadata of every
            // earlier period.
            let n_periods = ((hi - lo) + k - 1) / k;
            let mut pending: BTreeMap<u64, Vec<Contribution>> = BTreeMap::new();
            let mut next_commit: u64 = 0;
            let mut earliest: Option<(i64, MisspecKind)> = None;
            let mut done = 0usize;
            let mut bailed = false;
            let mut merge_ns = 0u64;

            // Record a misspeculation the moment it is first observed (the
            // Figure 5 timeline shows detection at detection time, not at
            // worker drain), improving the earliest-iteration bound and
            // re-emitting only when the bound actually tightens.
            let note_misspec = |earliest: &mut Option<(i64, MisspecKind)>,
                                events: &mut Vec<Stamped<EngineEvent>>,
                                iter: i64,
                                kind| {
                flag.fetch_min(iter, Ordering::SeqCst);
                match earliest {
                    Some((e, _)) if *e <= iter => {}
                    _ => {
                        *earliest = Some((iter, kind));
                        push_event(&tel, events, EngineEvent::MisspecDetected { iter, kind });
                    }
                }
            };

            while done < w_count {
                let msg = rx.recv().expect("workers hold the sender");
                match msg {
                    Msg::Contribution(c) => {
                        // A contribution for a period at or after a known
                        // misspeculation can never commit: drop it on
                        // arrival instead of pinning its pages in
                        // `pending` until the workers join.
                        let squashed =
                            arrival_squashed(bailed, earliest.map(|(m, _)| m), c.period, lo, k);
                        if squashed {
                            let pages = c.page_count() as u64;
                            self.stats.squashed_pages_dropped += pages;
                            self.metrics.squashed_pages.add(pages);
                        } else {
                            pending.entry(c.period).or_default().push(*c);
                        }
                    }
                    Msg::Misspec { iter, kind } => {
                        self.stats.misspecs += 1;
                        self.metrics.misspecs.add(1);
                        note_misspec(&mut earliest, &mut self.events, iter, kind);
                        // Periods at or after the misspeculated one are
                        // squashed: release their buffered pages now.
                        if let Some((m, _)) = earliest {
                            let dropped =
                                prune_squashed(&mut pending, ((m - lo) / k).max(0) as u64);
                            if dropped > 0 {
                                self.stats.squashed_pages_dropped += dropped;
                                self.metrics.squashed_pages.add(dropped);
                            }
                        }
                    }
                    Msg::Done { stats, tel: wtel } => {
                        done += 1;
                        self.stats.body_ns += stats.body_ns;
                        self.stats.priv_read_ns += stats.priv_read_ns;
                        self.stats.priv_write_ns += stats.priv_write_ns;
                        self.stats.priv_read_bytes += stats.priv_read_bytes;
                        self.stats.priv_write_bytes += stats.priv_write_bytes;
                        self.stats.checkpoint_ns += stats.checkpoint_ns;
                        // The registry counters are the source of truth
                        // for these totals; the stats fields are snapshot
                        // views refreshed at each drain.
                        self.metrics.priv_fast_words.add(stats.priv_fast_words);
                        self.metrics.priv_slow_bytes.add(stats.priv_slow_bytes);
                        self.metrics.contrib_pages.add(stats.contrib_pages);
                        self.stats.priv_fast_words = self.metrics.priv_fast_words.get();
                        self.stats.priv_slow_bytes = self.metrics.priv_slow_bytes.get();
                        self.stats.contrib_pages = self.metrics.contrib_pages.get();
                        self.tel.absorb(wtel);
                        self.stats.iters_speculative += stats.iters;
                        // Simulated-time model: the slowest worker bounds
                        // the span.
                        let priv_cost =
                            (stats.priv_read_bytes + stats.priv_write_bytes) * model::PRIV_BYTE;
                        let package_cost = stats.contrib_pages * model::PACKAGE_PAGE;
                        let busy = stats.insts + priv_cost + package_cost;
                        max_busy = max_busy.max(busy);
                        let checks =
                            stats.priv_read_calls + stats.priv_write_calls + stats.check_calls;
                        self.stats.sim.useful += stats.insts.saturating_sub(checks);
                        self.stats.sim.priv_read +=
                            stats.priv_read_bytes * model::PRIV_BYTE + stats.priv_read_calls;
                        self.stats.sim.priv_write +=
                            stats.priv_write_bytes * model::PRIV_BYTE + stats.priv_write_calls;
                        self.stats.sim.checkpoint += package_cost;
                    }
                }
                // Commit fully contributed periods in order, stopping at
                // (and never committing) a misspeculated period.
                while !bailed && next_commit < n_periods as u64 {
                    let bad_period = earliest.map(|(m, _)| (m - lo) / k);
                    if bad_period.is_some_and(|bp| next_commit as i64 >= bp) {
                        break;
                    }
                    let ready = pending
                        .get(&next_commit)
                        .is_some_and(|v| v.len() == w_count);
                    if !ready {
                        break;
                    }
                    let mut contribs = pending.remove(&next_commit).expect("checked above");
                    // Canonical merge order: sorting by worker id makes
                    // trap selection and reduction folds deterministic
                    // (the old arrival order varied run to run).
                    contribs.sort_by_key(|c| c.worker);
                    let t0 = Instant::now();
                    let n_contribs = contribs.len() as i64;
                    let contrib_pages_in_merge: u64 =
                        contribs.iter().map(|c| c.page_count() as u64).sum();
                    let mut failed = self
                        .merge_fault
                        .take_if(|(period, _)| *period == next_commit)
                        .map(|(_, trap)| trap);
                    let mut merge = if cfg.reference_merge {
                        PeriodMerge::Reference(ReferenceCheckpointMerge::new(redux.len()))
                    } else {
                        PeriodMerge::Fast(CheckpointMerge::new(redux.len()))
                    };
                    if failed.is_none() {
                        failed = contribs
                            .into_iter()
                            .try_for_each(|c| merge.add(c, mem))
                            .err();
                    }
                    if tel.is_tracing() {
                        tel.record(SpanEvent {
                            ts_ns: clock::instant_ns(t0),
                            dur_ns: t0.elapsed().as_nanos() as u64,
                            phase: Phase::Merge,
                            track: ENGINE_TRACK,
                            a: next_commit as i64,
                            b: n_contribs,
                        });
                    }
                    self.stats.checkpoints += 1;
                    self.metrics.checkpoints.add(1);
                    let pbase = lo + next_commit as i64 * k;
                    let pend = (pbase + k).min(hi);
                    match failed {
                        Some(Trap::Misspec(m)) => {
                            // Phase-2 violation: the whole period re-executes.
                            self.stats.misspecs += 1;
                            self.metrics.misspecs.add(1);
                            note_misspec(&mut earliest, &mut self.events, pend - 1, m.kind);
                            // This period and everything after it are
                            // squashed: drop their buffered pages now.
                            let dropped = prune_squashed(&mut pending, next_commit);
                            if dropped > 0 {
                                self.stats.squashed_pages_dropped += dropped;
                                self.metrics.squashed_pages.add(dropped);
                            }
                        }
                        Some(other) => {
                            // Bail out of merging, but keep draining the
                            // channel: every worker still owes its `Done`
                            // stats, and dropping them silently
                            // under-counts `iters_speculative`, `body_ns`
                            // and the sim model.
                            outcome = Err(other);
                            bailed = true;
                            flag.fetch_min(lo, Ordering::SeqCst);
                            let dropped = prune_squashed(&mut pending, 0);
                            if dropped > 0 {
                                self.stats.squashed_pages_dropped += dropped;
                                self.metrics.squashed_pages.add(dropped);
                            }
                        }
                        None => {
                            merge_sim += merge.written_bytes() as u64 * model::MERGE_BYTE
                                + contrib_pages_in_merge * model::MERGE_PAGE;
                            let tc = Instant::now();
                            // Commit reductions: pre ⊕ fold(worker images),
                            // folded in worker order.
                            for (i, &(op, addr, _size)) in redux.iter().enumerate() {
                                let mut acc = pre_redux[i].clone();
                                for img in &merge.redux_images()[i] {
                                    combine_images(op, &mut acc, img);
                                }
                                mem.write_bytes(addr, &acc);
                            }
                            // Commit the merged bytes; the period's I/O
                            // retires in iteration order.
                            for (_, bytes) in merge.commit(mem) {
                                self.out.extend(bytes);
                            }
                            if tel.is_tracing() {
                                tel.record(SpanEvent {
                                    ts_ns: clock::instant_ns(tc),
                                    dur_ns: tc.elapsed().as_nanos() as u64,
                                    phase: Phase::Commit,
                                    track: ENGINE_TRACK,
                                    a: next_commit as i64,
                                    b: 0,
                                });
                            }
                            committed_through = pend;
                            push_event(
                                &tel,
                                &mut self.events,
                                EngineEvent::CheckpointCommitted {
                                    period: next_commit,
                                    base: pbase,
                                    end: pend,
                                },
                            );
                            next_commit += 1;
                        }
                    }
                    // Merge wall time counts whether or not the merge
                    // succeeded — a failed attempt (phase-2 violation or
                    // injected fault) is checkpoint work too, and used to
                    // leak into the spawn/join residual.
                    let el = t0.elapsed().as_nanos() as u64;
                    merge_ns += el;
                    self.metrics.merge_ns.record(el);
                }
            }
            self.stats.checkpoint_ns += merge_ns;

            if outcome.is_ok() {
                if let Some((iter, _)) = earliest {
                    // The detection event was already emitted when the
                    // misspeculation was first recorded.
                    outcome = Ok(SpanOutcome::Misspec {
                        iter,
                        resume_base: committed_through,
                    });
                }
            }
        });

        let wall = span_t0.elapsed().as_nanos() as u64;
        self.stats.wall_ns += wall;
        self.stats.capacity_ns += wall * w_count as u64;
        if self.tel.is_tracing() {
            self.tel.record(SpanEvent {
                ts_ns: clock::instant_ns(span_t0),
                dur_ns: wall,
                phase: Phase::ParallelSpan,
                track: ENGINE_TRACK,
                a: lo,
                b: hi,
            });
        }
        let span_sim =
            model::SPAWN_BASE + model::SPAWN_PER_WORKER * w_count as u64 + max_busy + merge_sim;
        self.stats.sim.total += span_sim;
        self.stats.sim.capacity += span_sim * w_count as u64;
        self.stats.sim.checkpoint += merge_sim;
        outcome
    }

    /// Sequential, non-speculative re-execution of `from..=through` using
    /// the recovery body (§5.3).
    fn recover(
        &mut self,
        module: &Module,
        global_addrs: &[u64],
        recovery: FuncId,
        from: i64,
        through: i64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        let t0 = Instant::now();
        push_event(
            &self.tel,
            &mut self.events,
            EngineEvent::Recovery { from, through },
        );
        let (result, out, rec_insts) = run_recovery(
            module,
            global_addrs,
            &self.heaps,
            recovery,
            from..through + 1,
            mem,
        );
        self.out.extend(out);
        self.stats.sim.total += rec_insts;
        self.stats.sim.recovery += rec_insts;
        self.stats.recovered_iters += (through - from + 1).max(0) as u64;
        self.metrics
            .recovered_iters
            .add((through - from + 1).max(0) as u64);
        // The whole machine is held while serial recovery runs: the wall
        // time accrues to `recovery_ns` and the held capacity to
        // `capacity_ns` (workers × wall), so the Figure 8 breakdown can
        // attribute it instead of leaking it into spawn/join.
        let wall = t0.elapsed().as_nanos() as u64;
        self.stats.recovery_ns += wall;
        self.stats.capacity_ns += wall * self.cfg.workers.max(1) as u64;
        if self.tel.is_tracing() {
            self.tel.record(SpanEvent {
                ts_ns: clock::instant_ns(t0),
                dur_ns: wall,
                phase: Phase::Recovery,
                track: ENGINE_TRACK,
                a: from,
                b: through,
            });
        }
        result
    }
}

/// Run `f` at `point` under the span's virtual scheduler, or directly
/// when no scheduler is attached (the production path: one `match` on a
/// `None`).
fn gated<T>(sched: &Option<Arc<VirtualScheduler>>, point: SchedPoint, f: impl FnOnce() -> T) -> T {
    match sched {
        Some(s) => s.run(point, f),
        None => f(),
    }
}

fn combine_images(op: ReduxOp, acc: &mut [u8], img: &[u8]) {
    for (a, b) in acc.chunks_mut(8).zip(img.chunks(8)) {
        if a.len() == 8 && b.len() == 8 {
            let mut ab = [0u8; 8];
            ab.copy_from_slice(a);
            let mut bb = [0u8; 8];
            bb.copy_from_slice(b);
            a.copy_from_slice(&op.combine(ab, bb));
        }
    }
}

/// One worker thread: execute the cyclic share of each checkpoint period,
/// contribute state, continue until done or until a misspeculation at or
/// before the current period (the paper's §5.3 termination policy).
#[allow(clippy::too_many_arguments)]
fn worker_main(
    w: usize,
    w_count: usize,
    module: &Module,
    global_addrs: &[u64],
    body: FuncId,
    lo: i64,
    hi: i64,
    k: i64,
    cfg: EngineConfig,
    mem: AddressSpace,
    redux: &[(ReduxOp, u64, u64)],
    tx: mpsc::Sender<Msg>,
    flag: &AtomicI64,
    wtel: WorkerTelemetry,
    sched: Option<Arc<VirtualScheduler>>,
) {
    let mut rt = WorkerRuntime::new(w, cfg.inject_rate, cfg.inject_seed);
    rt.tel = wtel;
    let mut interp = Interp::with_mem(module, mem, global_addrs.to_vec(), NopHooks, rt);
    let mut delta = DeltaTracker::seeded(&interp.mem);
    let mut period: u64 = 0;
    'periods: loop {
        let pbase = lo + period as i64 * k;
        if pbase >= hi {
            break;
        }
        let pend = (pbase + k).min(hi);
        // Terminate if a misspeculation happened at or before this period.
        let f = flag.load(Ordering::SeqCst);
        if f != i64::MAX && (f - lo) / k <= period as i64 {
            break;
        }
        // This worker's iterations within the period (cyclic assignment).
        let mut iter =
            pbase + ((w as i64 - (pbase - lo) % w_count as i64).rem_euclid(w_count as i64));
        while iter < pend {
            let f = flag.load(Ordering::SeqCst);
            if f != i64::MAX && (f - lo) / k <= period as i64 {
                break 'periods;
            }
            let t0 = Instant::now();
            // The whole step holds the scheduler turn (when scripted),
            // so everything the iteration publishes is ordered before
            // the next script entry releases.
            let step = gated(&sched, SchedPoint::Iter { worker: w, iter }, || {
                (|| -> Result<(), Trap> {
                    interp.rt.begin_iteration(iter, (iter - pbase) as u64)?;
                    interp.call_function(body, &[Val::Int(iter)])?;
                    interp.rt.end_iteration()
                })()
            });
            interp.rt.stats.body_ns += t0.elapsed().as_nanos() as u64;
            interp.rt.tel.span_since(Phase::Iteration, t0, iter, 0);
            if let Err(trap) = step {
                let kind = match trap {
                    Trap::Misspec(m) => m.kind,
                    // Faults under speculation are treated as
                    // misspeculation: sequential re-execution repairs
                    // them, or reproduces a genuine program error.
                    _ => MisspecKind::Fault,
                };
                // Flag store and detection message publish atomically
                // under the scheduler turn: a script can order the
                // squash before or after any other point.
                gated(&sched, SchedPoint::Misspec { worker: w }, || {
                    flag.fetch_min(iter, Ordering::SeqCst);
                    let _ = tx.send(Msg::Misspec { iter, kind });
                });
                break 'periods;
            }
            iter += w_count as i64;
        }
        // Contribute this period's *delta* — only pages dirtied since the
        // previous contribution — to the checkpoint object; `collect`
        // normalizes the shadow metadata and re-snapshots the page map.
        let t0 = Instant::now();
        let io = interp.rt.take_io();
        let contrib =
            delta.collect_traced(w, period, &mut interp.mem, redux, io, &mut interp.rt.tel);
        interp.rt.stats.checkpoint_ns += t0.elapsed().as_nanos() as u64;
        interp.rt.stats.contrib_pages +=
            (contrib.shadow_pages.len() + contrib.priv_pages.len()) as u64;
        gated(&sched, SchedPoint::Contribute { worker: w, period }, || {
            let _ = tx.send(Msg::Contribution(Box::new(contrib)));
        });
        period += 1;
    }
    // Whatever script entries this worker never reached (it stopped
    // contributing when a squash ended its span) must not block the rest
    // of the script.
    if let Some(s) = &sched {
        s.retire_worker(w);
    }
    let mut stats = interp.rt.stats;
    stats.insts = interp.stats.insts;
    let tel = std::mem::replace(&mut interp.rt.tel, WorkerTelemetry::disabled());
    let _ = tx.send(Msg::Done { stats, tel });
}

impl RuntimeIface for MainRuntime {
    fn h_alloc(&mut self, heap: Heap, size: u64) -> Result<u64, Trap> {
        self.heaps.alloc(heap, size)
    }

    fn h_free(&mut self, heap: Heap, addr: u64) -> Result<(), Trap> {
        self.heaps.free(heap, addr)
    }

    fn output(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn redux_register(&mut self, op: ReduxOp, addr: u64, size: u64) -> Result<(), Trap> {
        if !size.is_multiple_of(8) {
            return Err(Trap::Internal(format!(
                "reduction object size {size} is not a multiple of 8"
            )));
        }
        if !self.redux.contains(&(op, addr, size)) {
            self.redux.retain(|&(_, a, _)| a != addr);
            self.redux.push((op, addr, size));
        }
        Ok(())
    }

    fn parallel_invoke(
        &mut self,
        module: &Module,
        global_addrs: &[u64],
        plan: PlanEntry,
        lo: i64,
        hi: i64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        if hi <= lo {
            return Ok(());
        }
        self.stats.invocations += 1;
        self.metrics.invocations.add(1);
        let t0 = Instant::now();
        push_event(&self.tel, &mut self.events, EngineEvent::Invoke { lo, hi });
        let mut next = lo;
        while next < hi {
            match self.span(module, global_addrs, plan.body, next, hi, mem)? {
                SpanOutcome::Complete => next = hi,
                SpanOutcome::Misspec { iter, resume_base } => {
                    self.recover(module, global_addrs, plan.recovery, resume_base, iter, mem)?;
                    next = iter + 1;
                    if next < hi {
                        push_event(
                            &self.tel,
                            &mut self.events,
                            EngineEvent::ParallelResumed { at: next },
                        );
                    }
                }
            }
        }
        if self.tel.is_tracing() {
            self.tel.record(SpanEvent {
                ts_ns: clock::instant_ns(t0),
                dur_ns: t0.elapsed().as_nanos() as u64,
                phase: Phase::Invoke,
                track: ENGINE_TRACK,
                a: lo,
                b: hi,
            });
        }
        push_event(&self.tel, &mut self.events, EngineEvent::InvokeDone);
        Ok(())
    }
}

/// Run the recovery body for each iteration of `iters` in order over
/// `mem`, stopping at the first trap: non-speculative execution on a
/// [`SequentialPlanRuntime`] that allocates from `heaps`. Returns the
/// result, the output printed, and the instructions executed.
fn run_recovery(
    module: &Module,
    global_addrs: &[u64],
    heaps: &SharedHeaps,
    recovery: FuncId,
    mut iters: std::ops::Range<i64>,
    mem: &mut AddressSpace,
) -> (Result<(), Trap>, Vec<u8>, u64) {
    let rt = SequentialPlanRuntime {
        heaps: heaps.clone(),
        out: Vec::new(),
    };
    let taken = std::mem::take(mem);
    let mut interp = Interp::with_mem(module, taken, global_addrs.to_vec(), NopHooks, rt);
    let result =
        iters.try_for_each(|iter| interp.call_function(recovery, &[Val::Int(iter)]).map(drop));
    *mem = interp.mem;
    (result, interp.rt.out, interp.stats.insts)
}

/// The non-speculative runtime: executes `parallel_invoke` regions one
/// iteration at a time with the *recovery* body (original semantics), and
/// every check keeps the trait's inert default. It runs transformed
/// programs without the engine — e.g. to validate the transformation or
/// measure single-threaded behavior — and is what the engine's
/// sequential recovery runs on.
#[derive(Debug)]
pub struct SequentialPlanRuntime {
    /// Shared logical-heap allocators.
    pub heaps: SharedHeaps,
    out: Vec<u8>,
}

impl SequentialPlanRuntime {
    /// Build from a loaded image.
    pub fn new(image: &ProgramImage) -> SequentialPlanRuntime {
        SequentialPlanRuntime {
            heaps: SharedHeaps::new(image),
            out: Vec::new(),
        }
    }

    /// Take the output bytes.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }
}

impl RuntimeIface for SequentialPlanRuntime {
    fn h_alloc(&mut self, heap: Heap, size: u64) -> Result<u64, Trap> {
        self.heaps.alloc(heap, size)
    }

    fn h_free(&mut self, heap: Heap, addr: u64) -> Result<(), Trap> {
        self.heaps.free(heap, addr)
    }

    fn output(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn parallel_invoke(
        &mut self,
        module: &Module,
        global_addrs: &[u64],
        plan: PlanEntry,
        lo: i64,
        hi: i64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        let (result, out, _) = run_recovery(
            module,
            global_addrs,
            &self.heaps,
            plan.recovery,
            lo..hi,
            mem,
        );
        self.out.extend(out);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the eager-drop bugfix: once a period is known
    /// squashed, pruning must release the contribution pages (their
    /// `Arc`s) immediately — before worker join — not merely unlink the
    /// map entries.
    #[test]
    fn prune_squashed_releases_page_arcs_eagerly() {
        use privateer_vm::{Page, PAGE_SIZE};
        let page: Arc<Page> = Arc::new([0u8; PAGE_SIZE as usize]);
        let mk = |period: u64| Contribution {
            worker: 0,
            period,
            shadow_pages: vec![(0x1000, Arc::clone(&page))],
            priv_pages: vec![(0x1000, Arc::clone(&page))],
            redux_images: vec![],
            io: vec![],
        };
        let mut pending: BTreeMap<u64, Vec<Contribution>> = BTreeMap::new();
        for p in 0..4u64 {
            pending.entry(p).or_default().push(mk(p));
        }
        assert_eq!(Arc::strong_count(&page), 1 + 8);
        let dropped = prune_squashed(&mut pending, 2);
        assert_eq!(dropped, 4, "two contributions × two pages each");
        assert_eq!(
            Arc::strong_count(&page),
            1 + 4,
            "squashed periods' pages must be freed at prune time"
        );
        assert_eq!(pending.len(), 2, "committed-side periods stay buffered");
    }

    /// Regression test for the arrival-side twin of the eager drop: a
    /// contribution for a period at or after a detected misspeculation
    /// (or arriving after an internal-fault bail) is dead on arrival and
    /// must not be buffered. Exercised deterministically here because in
    /// a live span whether any late contribution actually arrives is a
    /// scheduling race (the contributing worker usually sees the squash
    /// flag first).
    #[test]
    fn arrival_drop_covers_squashed_periods_exactly() {
        let (lo, k) = (0i64, 16i64);
        // Misspeculation at iteration 70 squashes period 4 onward.
        let misspec = Some(70i64);
        for period in 0..4u64 {
            assert!(!arrival_squashed(false, misspec, period, lo, k));
        }
        for period in 4..8u64 {
            assert!(arrival_squashed(false, misspec, period, lo, k));
        }
        // Misspeculation exactly on a period boundary squashes the period
        // it opens, not the one it closes.
        assert!(!arrival_squashed(false, Some(64), 3, lo, k));
        assert!(arrival_squashed(false, Some(64), 4, lo, k));
        // A non-zero span base shifts the period arithmetic: iteration
        // 134 of a span starting at 64 is period 4, not period 8.
        assert!(!arrival_squashed(false, Some(134), 3, 64, k));
        assert!(arrival_squashed(false, Some(134), 4, 64, k));
        // An internal-fault bail squashes everything, no misspec needed.
        assert!(arrival_squashed(true, None, 0, lo, k));
        // No squash known: everything buffers.
        assert!(!arrival_squashed(false, None, 7, lo, k));
    }

    /// Regression test for the breakdown accounting: recovery and failed
    /// merge time must show up in their own buckets, not inflate the
    /// spawn/join residual. (Before the `recovery_ns` bucket existed, a
    /// synthetic run like this attributed the whole recovery window to
    /// spawn/join.)
    #[test]
    fn breakdown_accounts_recovery_separately() {
        let stats = EngineStats {
            wall_ns: 1_000,
            capacity_ns: 4 * 1_000 + 4 * 500, // 4 workers, 500 ns recovery
            body_ns: 2_400,
            priv_read_ns: 200,
            priv_write_ns: 200,
            checkpoint_ns: 600,
            recovery_ns: 500,
            ..EngineStats::default()
        };
        let (useful, pr, pw, ck, rec, spawn_join) = stats.breakdown();
        let cap = 6_000.0;
        assert!((useful - 2_000.0 / cap).abs() < 1e-9);
        assert!((pr - 200.0 / cap).abs() < 1e-9);
        assert!((pw - 200.0 / cap).abs() < 1e-9);
        assert!((ck - 600.0 / cap).abs() < 1e-9);
        assert!((rec - 500.0 / cap).abs() < 1e-9);
        // The residual is what's left: fork/join slack plus the idle
        // (workers - 1) shares of the recovery window.
        let sum = useful + pr + pw + ck + rec + spawn_join;
        assert!((sum - 1.0).abs() < 1e-9);
        // Recovery must not be part of the residual.
        assert!((spawn_join - (cap - 2_000.0 - 400.0 - 600.0 - 500.0) / cap).abs() < 1e-9);
    }
}
