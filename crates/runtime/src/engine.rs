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
//! execution. The commit policy itself is the thread-free
//! `PeriodCommitter` state machine; [`MainRuntime`] forks, spawns and
//! feeds it the workers' messages.

use crate::checkpoint::{CheckpointMerge, Contribution, DeltaTracker, PeriodMerge};
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
use privateer_vm::interp::{Interp, InterpStats, ProgramImage};
use privateer_vm::{AddressSpace, Code, MisspecKind, NopHooks, RuntimeIface, Trap, Val};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;
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
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            checkpoint_period: 64,
            inject_rate: 0.0,
            inject_seed: 0x5eed,
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
    /// Checkpoint merges attempted: committed, or failed in phase 2. A
    /// period squashed before its merge is not counted.
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

#[derive(Debug, PartialEq)]
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
    priv_read_calls: Counter,
    priv_write_calls: Counter,
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
            priv_read_calls: reg.counter("priv.read_calls"),
            priv_write_calls: reg.counter("priv.write_calls"),
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

/// The engine's default phase-2 merge: a [`CheckpointMerge`] per period.
fn checkpoint_merge(_period: u64, redux_objects: usize) -> Box<dyn PeriodMerge> {
    Box::new(CheckpointMerge::new(redux_objects))
}

/// Builds each period's phase-2 merge from the period index and the
/// number of registered reductions (see [`MainRuntime::set_merge`]).
struct MergeFactory(Box<dyn FnMut(u64, usize) -> Box<dyn PeriodMerge> + Send + Sync>);

impl std::fmt::Debug for MergeFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MergeFactory")
    }
}

/// The counts one span adds to [`EngineStats`] and the registry.
#[derive(Debug, Default)]
struct SpanTally {
    checkpoints: u64,
    misspecs: u64,
    squashed_pages: u64,
}

/// The commit policy of one parallel span (§5, Figure 5), as a state
/// machine with no threads: contributions buffer until their period is
/// complete; periods merge and commit strictly in order, so phase-2
/// validation sees the committed metadata of every earlier period;
/// everything at or after the earliest misspeculation is squashed, its
/// pages released at once; an internal merge fault bails out of
/// committing while the engine still drains every worker's `Done`.
struct PeriodCommitter {
    lo: i64,
    hi: i64,
    k: i64,
    workers: usize,
    done: usize,
    pending: BTreeMap<u64, Vec<Contribution>>,
    next_commit: u64,
    earliest: Option<(i64, MisspecKind)>,
    bailed: Option<Trap>,
    /// First uncommitted iteration.
    committed_through: i64,
    redux: Vec<(ReduxOp, u64, u64)>,
    /// Reduction values before the span; workers start from the identity.
    pre_redux: Vec<Vec<u8>>,
    /// Simulated merge cycles of the committed periods.
    merge_sim: u64,
    tally: SpanTally,
    /// Committed output and Figure 5 events, handed to the engine when
    /// the span ends.
    out: Vec<u8>,
    events: Vec<Stamped<EngineEvent>>,
    tel: Telemetry,
    merge_ns: Histogram,
}

impl PeriodCommitter {
    /// A committer for the span `lo..hi` of `workers` workers and
    /// `k`-iteration periods, over the committed space `committed`;
    /// each merge attempt's time goes to `merge_ns`.
    fn new(
        span: Range<i64>,
        k: i64,
        workers: usize,
        redux: Vec<(ReduxOp, u64, u64)>,
        committed: &AddressSpace,
        tel: Telemetry,
        merge_ns: Histogram,
    ) -> PeriodCommitter {
        let Range { start: lo, end: hi } = span;
        let pre_redux = redux
            .iter()
            .map(|&(_, addr, size)| {
                let mut buf = vec![0u8; size as usize];
                committed.read_bytes(addr, &mut buf);
                buf
            })
            .collect();
        PeriodCommitter {
            lo,
            hi,
            k,
            workers,
            done: 0,
            pending: BTreeMap::new(),
            next_commit: 0,
            earliest: None,
            bailed: None,
            committed_through: lo,
            redux,
            pre_redux,
            merge_sim: 0,
            tally: SpanTally::default(),
            out: Vec::new(),
            events: Vec::new(),
            tel,
            merge_ns,
        }
    }

    /// The first period the earliest misspeculation squashes.
    fn bad_period(&self) -> Option<u64> {
        self.earliest
            .map(|(m, _)| ((m - self.lo) / self.k).max(0) as u64)
    }

    /// The iteration at which workers must stop: `lo` after a bail, else
    /// the earliest misspeculation (`i64::MAX` for none).
    fn stop_iter(&self) -> i64 {
        match (&self.bailed, self.earliest) {
            (Some(_), _) => self.lo,
            (None, Some((m, _))) => m,
            (None, None) => i64::MAX,
        }
    }

    /// Whether every worker has sent its `Done`.
    fn finished(&self) -> bool {
        self.done == self.workers
    }

    /// Buffer a contribution, or drop it on arrival when its period is
    /// already squashed (or the span bailed) instead of pinning its pages
    /// until the workers join.
    fn contribution(&mut self, c: Contribution) {
        if self.bailed.is_some() || self.bad_period().is_some_and(|bp| c.period >= bp) {
            self.tally.squashed_pages += c.page_count() as u64;
        } else {
            self.pending.entry(c.period).or_default().push(c);
        }
    }

    /// A misspeculation at `iter`, from a worker or from phase 2. The
    /// detection event is emitted the moment the earliest bound tightens
    /// (Figure 5 shows detection at detection time, not at worker drain),
    /// and the periods it squashes release their buffered pages now.
    fn misspec(&mut self, iter: i64, kind: MisspecKind) {
        self.tally.misspecs += 1;
        if self.earliest.is_none_or(|(e, _)| iter < e) {
            self.earliest = Some((iter, kind));
            push_event(
                &self.tel,
                &mut self.events,
                EngineEvent::MisspecDetected { iter, kind },
            );
        }
        if let Some(first_bad) = self.bad_period() {
            self.squash_from(first_bad);
        }
    }

    /// A worker finished and sent its stats.
    fn worker_done(&mut self) {
        self.done += 1;
    }

    /// Drop every buffered contribution for periods `>= first_bad`: they
    /// can never commit, and their page `Arc`s — with them whole COW
    /// page chains — would otherwise survive until the workers join.
    fn squash_from(&mut self, first_bad: u64) {
        let squashed = self.pending.split_off(&first_bad);
        self.tally.squashed_pages += squashed
            .values()
            .flatten()
            .map(|c| c.page_count() as u64)
            .sum::<u64>();
    }

    /// Merge and commit every fully contributed period in order into
    /// `mem`, stopping at (and never committing) a misspeculated period.
    /// `new_merge` builds each period's merge.
    fn commit_ready(
        &mut self,
        mem: &mut AddressSpace,
        new_merge: &mut dyn FnMut(u64, usize) -> Box<dyn PeriodMerge>,
    ) {
        while self.bailed.is_none() && self.bad_period().is_none_or(|bp| self.next_commit < bp) {
            let period = self.next_commit;
            let mut contribs = match self.pending.entry(period) {
                Entry::Occupied(e) if e.get().len() == self.workers => e.remove(),
                _ => break,
            };
            // Canonical merge order: sorting by worker id makes trap
            // selection and reduction folds deterministic.
            contribs.sort_by_key(|c| c.worker);
            let t0 = Instant::now();
            let n_contribs = contribs.len() as i64;
            let pages: u64 = contribs.iter().map(|c| c.page_count() as u64).sum();
            let mut merge = new_merge(period, self.redux.len());
            let failed = contribs
                .into_iter()
                .try_for_each(|c| merge.add(c, mem))
                .err();
            self.tel
                .span_since(Phase::Merge, Some(t0), period as i64, n_contribs);
            self.tally.checkpoints += 1;
            let base = self.lo + period as i64 * self.k;
            let end = (base + self.k).min(self.hi);
            match failed {
                // Phase-2 violation: the whole period re-executes.
                Some(Trap::Misspec(m)) => self.misspec(end - 1, m.kind),
                // Stop committing; the engine keeps draining the channel,
                // since every worker still owes its `Done` stats.
                Some(other) => {
                    self.bailed = Some(other);
                    self.squash_from(0);
                }
                None => {
                    self.merge_sim += merge.written_bytes() as u64 * model::MERGE_BYTE
                        + pages * model::MERGE_PAGE;
                    let tc = self.tel.start();
                    // Commit reductions: pre ⊕ fold(worker images), folded
                    // in worker order.
                    for (i, &(op, addr, _)) in self.redux.iter().enumerate() {
                        let mut acc = self.pre_redux[i].clone();
                        for img in &merge.redux_images()[i] {
                            combine_images(op, &mut acc, img);
                        }
                        mem.write_bytes(addr, &acc);
                    }
                    // Commit the merged bytes; the period's I/O retires in
                    // iteration order.
                    for (_, bytes) in merge.commit(mem) {
                        self.out.extend(bytes);
                    }
                    self.tel.span_since(Phase::Commit, tc, period as i64, 0);
                    self.committed_through = end;
                    push_event(
                        &self.tel,
                        &mut self.events,
                        EngineEvent::CheckpointCommitted { period, base, end },
                    );
                    self.next_commit += 1;
                }
            }
            // Failed attempts count too: they are checkpoint work.
            self.merge_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// The span's result: the bail trap, the earliest misspeculation
    /// with the first uncommitted iteration to recover from, or
    /// completion.
    fn outcome(self) -> Result<SpanOutcome, Trap> {
        if let Some(trap) = self.bailed {
            return Err(trap);
        }
        Ok(match self.earliest {
            Some((iter, _)) => SpanOutcome::Misspec {
                iter,
                resume_base: self.committed_through,
            },
            None => SpanOutcome::Complete,
        })
    }
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
    merge: MergeFactory,
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
            merge: MergeFactory(Box::new(checkpoint_merge)),
            sched: None,
        }
    }

    /// Snapshot the trace collected so far (events + metrics).
    pub fn trace(&self) -> TraceData {
        self.tel.trace()
    }

    /// Test seam: build each period's phase-2 merge with `factory`, which
    /// receives the period index (renumbered from zero in every span) and
    /// the number of registered reductions. The default builds a
    /// `CheckpointMerge`; `privateer-fuzz` supplies the reference merge
    /// and a fault-injecting one.
    #[doc(hidden)]
    pub fn set_merge(
        &mut self,
        factory: impl FnMut(u64, usize) -> Box<dyn PeriodMerge> + Send + Sync + 'static,
    ) {
        self.merge = MergeFactory(Box::new(factory));
    }

    /// Attach a [`VirtualScheduler`]: worker iterations, contribution
    /// sends and misspeculation publications then rendezvous on the
    /// scheduler's script, making a chosen interleaving deterministic and
    /// replayable (see [`crate::schedule`]). The scheduler applies to
    /// every subsequent invocation until replaced.
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
        code: &Arc<Code>,
        body: FuncId,
        lo: i64,
        hi: i64,
        mem: &mut AddressSpace,
    ) -> Result<SpanOutcome, Trap> {
        let w_count = self.cfg.workers.max(1);
        let k = self.cfg.checkpoint_period.clamp(1, MAX_PERIOD) as i64;
        let span_t0 = self.tel.start();

        // Fresh live-in metadata for this span.
        let shadow_lo = Heap::Private.base() | SHADOW_BIT;
        mem.clear_range(shadow_lo, shadow_lo + crate::heaps::HEAP_SPAN);

        // The committer keeps the pre-span reduction values; workers start
        // from the identity.
        let redux = self.redux.clone();
        let mut committer = PeriodCommitter::new(
            lo..hi,
            k,
            w_count,
            redux.clone(),
            mem,
            self.tel.clone(),
            self.metrics.merge_ns.clone(),
        );
        let mut base = mem.fork();
        for &(op, addr, size) in &redux {
            let ident = op.identity_bytes();
            let mut image = vec![0u8; size as usize];
            for chunk in image.chunks_mut(8) {
                chunk.copy_from_slice(&ident[..chunk.len()]);
            }
            base.write_bytes(addr, &image);
        }

        // Earliest iteration workers must stop at, shared with them.
        let flag = AtomicI64::new(i64::MAX);
        // A bounded queue: a worker that runs ahead of the merge blocks
        // instead of piling up contributions, each of which pins its pages.
        // This thread only ever receives, so a blocked sender always wakes.
        let (tx, rx) = mpsc::sync_channel::<Msg>(w_count);
        let cfg = self.cfg;
        let mut max_busy = 0u64;

        std::thread::scope(|scope| {
            for w in 0..w_count {
                let worker_mem = base.fork();
                let tx = tx.clone();
                let (flag, redux) = (&flag, &redux);
                let wtel = self.tel.worker(w as u32 + 1);
                let wsched = self.sched.clone();
                scope.spawn(move || {
                    worker_main(
                        w, w_count, module, code, body, lo, hi, k, cfg, worker_mem, redux, tx,
                        flag, wtel, wsched,
                    );
                });
            }
            drop(tx);

            while !committer.finished() {
                match rx.recv().expect("workers hold the sender") {
                    Msg::Contribution(c) => committer.contribution(*c),
                    Msg::Misspec { iter, kind } => committer.misspec(iter, kind),
                    Msg::Done { stats, tel } => {
                        committer.worker_done();
                        max_busy = max_busy.max(self.absorb_worker(stats, tel));
                    }
                }
                committer.commit_ready(mem, &mut self.merge.0);
                flag.fetch_min(committer.stop_iter(), Ordering::SeqCst);
            }
        });

        self.out.append(&mut committer.out);
        self.events.append(&mut committer.events);
        self.count(&committer.tally);
        self.tel.span_since(Phase::ParallelSpan, span_t0, lo, hi);
        let merge_sim = committer.merge_sim;
        let span_sim =
            model::SPAWN_BASE + model::SPAWN_PER_WORKER * w_count as u64 + max_busy + merge_sim;
        self.stats.sim.total += span_sim;
        self.stats.sim.capacity += span_sim * w_count as u64;
        self.stats.sim.checkpoint += merge_sim;
        committer.outcome()
    }

    /// Fold a finished worker's stats and trace ring into the engine
    /// totals; returns its simulated busy time (the slowest worker bounds
    /// the span).
    fn absorb_worker(&mut self, stats: WorkerStats, wtel: WorkerTelemetry) -> u64 {
        self.stats.priv_read_bytes += stats.priv_read_bytes;
        self.stats.priv_write_bytes += stats.priv_write_bytes;
        self.stats.iters_speculative += stats.iters;
        // The registry counters are the source of truth for these totals;
        // the stats fields are snapshot views refreshed at each drain.
        self.metrics.priv_read_calls.add(stats.priv_read_calls);
        self.metrics.priv_write_calls.add(stats.priv_write_calls);
        self.metrics.priv_fast_words.add(stats.priv_fast_words);
        self.metrics.priv_slow_bytes.add(stats.priv_slow_bytes);
        self.metrics.contrib_pages.add(stats.contrib_pages);
        self.stats.priv_fast_words = self.metrics.priv_fast_words.get();
        self.stats.priv_slow_bytes = self.metrics.priv_slow_bytes.get();
        self.stats.contrib_pages = self.metrics.contrib_pages.get();
        self.tel.absorb(wtel);
        let priv_cost = (stats.priv_read_bytes + stats.priv_write_bytes) * model::PRIV_BYTE;
        let package_cost = stats.contrib_pages * model::PACKAGE_PAGE;
        let checks = stats.priv_read_calls + stats.priv_write_calls + stats.check_calls;
        self.stats.sim.useful += stats.insts.saturating_sub(checks);
        self.stats.sim.priv_read +=
            stats.priv_read_bytes * model::PRIV_BYTE + stats.priv_read_calls;
        self.stats.sim.priv_write +=
            stats.priv_write_bytes * model::PRIV_BYTE + stats.priv_write_calls;
        self.stats.sim.checkpoint += package_cost;
        stats.insts + priv_cost + package_cost
    }

    /// Add one span's checkpoint, misspeculation and squash counts to the
    /// stats and their registry counters.
    fn count(&mut self, t: &SpanTally) {
        self.stats.checkpoints += t.checkpoints;
        self.stats.misspecs += t.misspecs;
        self.stats.squashed_pages_dropped += t.squashed_pages;
        self.metrics.checkpoints.add(t.checkpoints);
        self.metrics.misspecs.add(t.misspecs);
        self.metrics.squashed_pages.add(t.squashed_pages);
    }

    /// Sequential, non-speculative re-execution of `from..=through` using
    /// the recovery body (§5.3).
    fn recover(
        &mut self,
        module: &Module,
        code: &Arc<Code>,
        recovery: FuncId,
        from: i64,
        through: i64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        let t0 = self.tel.start();
        push_event(
            &self.tel,
            &mut self.events,
            EngineEvent::Recovery { from, through },
        );
        let (result, out, rec) =
            run_recovery(module, code, &self.heaps, recovery, from..through + 1, mem);
        let rec_insts = rec.insts;
        self.out.extend(out);
        self.stats.sim.total += rec_insts;
        self.stats.sim.recovery += rec_insts;
        let iters = (through - from + 1).max(0) as u64;
        self.stats.recovered_iters += iters;
        self.metrics.recovered_iters.add(iters);
        self.tel.span_since(Phase::Recovery, t0, from, through);
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
    code: &Arc<Code>,
    body: FuncId,
    lo: i64,
    hi: i64,
    k: i64,
    cfg: EngineConfig,
    mem: AddressSpace,
    redux: &[(ReduxOp, u64, u64)],
    tx: mpsc::SyncSender<Msg>,
    flag: &AtomicI64,
    wtel: WorkerTelemetry,
    sched: Option<Arc<VirtualScheduler>>,
) {
    let mut rt = WorkerRuntime::new(w, cfg.inject_rate, cfg.inject_seed);
    rt.tel = wtel;
    let mut interp = Interp::with_code(module, Arc::clone(code), mem, NopHooks, rt);
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
            let t0 = interp.rt.tel.start();
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
        let io = interp.rt.take_io();
        let contrib =
            delta.collect_traced(w, period, &mut interp.mem, redux, io, &mut interp.rt.tel);
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
        code: &Arc<Code>,
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
        let t0 = self.tel.start();
        push_event(&self.tel, &mut self.events, EngineEvent::Invoke { lo, hi });
        let mut next = lo;
        while next < hi {
            match self.span(module, code, plan.body, next, hi, mem)? {
                SpanOutcome::Complete => next = hi,
                SpanOutcome::Misspec { iter, resume_base } => {
                    self.recover(module, code, plan.recovery, resume_base, iter, mem)?;
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
        self.tel.span_since(Phase::Invoke, t0, lo, hi);
        push_event(&self.tel, &mut self.events, EngineEvent::InvokeDone);
        Ok(())
    }
}

/// Run the recovery body for each iteration of `iters` in order over
/// `mem`, stopping at the first trap: non-speculative execution on a
/// [`SequentialPlanRuntime`] that allocates from `heaps`. Returns the
/// result, the output printed, and the interpreter's counts.
fn run_recovery(
    module: &Module,
    code: &Arc<Code>,
    heaps: &SharedHeaps,
    recovery: FuncId,
    mut iters: Range<i64>,
    mem: &mut AddressSpace,
) -> (Result<(), Trap>, Vec<u8>, InterpStats) {
    let rt = SequentialPlanRuntime {
        heaps: heaps.clone(),
        out: Vec::new(),
        regions: InterpStats::default(),
    };
    let taken = std::mem::take(mem);
    let mut interp = Interp::with_code(module, Arc::clone(code), taken, NopHooks, rt);
    let result =
        iters.try_for_each(|iter| interp.call_function(recovery, &[Val::Int(iter)]).map(drop));
    *mem = interp.mem;
    let mut stats = interp.stats;
    stats += interp.rt.regions;
    (result, interp.rt.out, stats)
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
    /// What the parallel regions executed. Each region runs in an
    /// interpreter of its own, so the calling interpreter's counts leave
    /// it out; its counts plus these are the whole program's.
    pub regions: InterpStats,
}

impl SequentialPlanRuntime {
    /// Build from a loaded image.
    pub fn new(image: &ProgramImage) -> SequentialPlanRuntime {
        SequentialPlanRuntime {
            heaps: SharedHeaps::new(image),
            out: Vec::new(),
            regions: InterpStats::default(),
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
        code: &Arc<Code>,
        plan: PlanEntry,
        lo: i64,
        hi: i64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        let (result, out, stats) =
            run_recovery(module, code, &self.heaps, plan.recovery, lo..hi, mem);
        self.out.extend(out);
        self.regions += stats;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_vm::{Page, PAGE_SIZE};

    /// A contribution of `worker` to `period` carrying `pages` (as both
    /// shadow and private pages) and deferred output.
    fn contrib(
        worker: usize,
        period: u64,
        pages: &[Arc<Page>],
        io: Vec<(i64, Vec<u8>)>,
    ) -> Contribution {
        let at = |p: &Arc<Page>| (0x1000, Arc::clone(p));
        Contribution {
            worker,
            period,
            shadow_pages: pages.iter().map(at).collect(),
            priv_pages: pages.iter().map(at).collect(),
            redux_images: vec![],
            io,
        }
    }

    fn committer(lo: i64, hi: i64, k: i64, workers: usize) -> PeriodCommitter {
        PeriodCommitter::new(
            lo..hi,
            k,
            workers,
            vec![],
            &AddressSpace::new(),
            Telemetry::disabled(),
            Histogram::default(),
        )
    }

    fn buffered(c: &PeriodCommitter) -> Vec<u64> {
        c.pending.keys().copied().collect()
    }

    fn committed(c: &PeriodCommitter) -> Vec<u64> {
        c.events
            .iter()
            .filter_map(|e| match e.event {
                EngineEvent::CheckpointCommitted { period, .. } => Some(period),
                _ => None,
            })
            .collect()
    }

    /// A merge whose every `add` fails with its trap.
    struct Failing(Trap);

    impl PeriodMerge for Failing {
        fn add(&mut self, _: Contribution, _: &AddressSpace) -> Result<(), Trap> {
            Err(self.0.clone())
        }
        fn written_bytes(&self) -> usize {
            0
        }
        fn redux_images(&self) -> &[Vec<Vec<u8>>] {
            &[]
        }
        fn commit(self: Box<Self>, _: &mut AddressSpace) -> Vec<(i64, Vec<u8>)> {
            Vec::new()
        }
    }

    /// A merge factory failing period `at` with `trap`.
    fn failing_at(at: u64, trap: Trap) -> impl FnMut(u64, usize) -> Box<dyn PeriodMerge> {
        move |p, n| -> Box<dyn PeriodMerge> {
            if p == at {
                Box::new(Failing(trap.clone()))
            } else {
                Box::new(CheckpointMerge::new(n))
            }
        }
    }

    /// Contributions arriving in any order commit strictly in period
    /// order, and only once every worker has contributed the period.
    #[test]
    fn out_of_order_arrivals_commit_in_period_order() {
        let mut c = committer(0, 8, 2, 2);
        let mut mem = AddressSpace::new();
        // Worker `w` runs iteration `2p + w` of period `p` and prints it.
        let arrival = [
            (1, 3),
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 0),
            (1, 1),
            (0, 3),
            (0, 0),
        ];
        for (i, &(w, p)) in arrival.iter().enumerate() {
            let iter = 2 * p as i64 + w as i64;
            c.contribution(contrib(w, p, &[], vec![(iter, vec![b'a' + iter as u8])]));
            c.commit_ready(&mut mem, &mut checkpoint_merge);
            if i < arrival.len() - 1 {
                assert!(committed(&c).is_empty(), "period 0 is incomplete");
            }
        }
        assert_eq!(committed(&c), vec![0, 1, 2, 3]);
        assert_eq!(c.out, b"abcdefgh");
        assert!(c.pending.is_empty());
        assert_eq!(c.tally.checkpoints, 4);
        c.worker_done();
        assert!(!c.finished());
        c.worker_done();
        assert!(c.finished());
        assert_eq!(c.outcome(), Ok(SpanOutcome::Complete));
    }

    /// Regression test for the eager-drop bugfix: once a period is known
    /// squashed, the committer must release the contribution pages (their
    /// `Arc`s) immediately — before worker join — not merely unlink the
    /// map entries.
    #[test]
    fn prune_squashed_releases_page_arcs_eagerly() {
        let page: Arc<Page> = Arc::new([0u8; PAGE_SIZE as usize]);
        // Two workers; only worker 0 has contributed, so nothing commits.
        let mut c = committer(0, 64, 16, 2);
        for p in 0..4u64 {
            c.contribution(contrib(0, p, &[Arc::clone(&page)], vec![]));
        }
        assert_eq!(Arc::strong_count(&page), 1 + 8);
        // Iteration 40 lies in period 2: periods 2 and 3 are squashed.
        c.misspec(40, MisspecKind::Privacy);
        assert_eq!(c.tally.squashed_pages, 4, "two contributions × two pages");
        assert_eq!(
            Arc::strong_count(&page),
            1 + 4,
            "squashed periods' pages must be freed at squash time"
        );
        assert_eq!(buffered(&c), vec![0, 1], "earlier periods stay buffered");
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
        let arrive_all = |c: &mut PeriodCommitter| {
            for p in 0..8u64 {
                c.contribution(contrib(0, p, &[], vec![]));
            }
            buffered(c)
        };
        // Misspeculation at iteration 70 squashes period 4 onward.
        let mut c = committer(0, 128, 16, 2);
        c.misspec(70, MisspecKind::Privacy);
        assert_eq!(arrive_all(&mut c), vec![0, 1, 2, 3]);
        // Misspeculation exactly on a period boundary squashes the period
        // it opens, not the one it closes.
        let mut c = committer(0, 128, 16, 2);
        c.misspec(64, MisspecKind::Privacy);
        assert_eq!(arrive_all(&mut c), vec![0, 1, 2, 3]);
        // A non-zero span base shifts the period arithmetic: iteration
        // 134 of a span starting at 64 is period 4, not period 8.
        let mut c = committer(64, 192, 16, 2);
        c.misspec(134, MisspecKind::Privacy);
        assert_eq!(arrive_all(&mut c), vec![0, 1, 2, 3]);
        // An internal-fault bail squashes everything, no misspec needed.
        let mut c = committer(0, 128, 16, 1);
        c.contribution(contrib(0, 0, &[], vec![]));
        c.commit_ready(
            &mut AddressSpace::new(),
            &mut failing_at(0, Trap::Internal("bail".into())),
        );
        assert_eq!(arrive_all(&mut c), Vec::<u64>::new());
        // No squash known: everything buffers.
        let mut c = committer(0, 128, 16, 2);
        assert_eq!(arrive_all(&mut c), (0..8).collect::<Vec<_>>());
    }

    /// A phase-2 misspeculation out of the merge squashes its whole
    /// period: the span resumes recovery at the period's base, not at the
    /// misspeculated iteration's own period-local position.
    #[test]
    fn phase2_misspec_recovers_whole_period() {
        // Periods of 4 over 10..20: 10..14, 14..18, 18..20.
        let mut c = committer(10, 20, 4, 2);
        let mut mem = AddressSpace::new();
        let trap = Trap::misspec(MisspecKind::Privacy, "phase-2 conflict");
        let mut merge = failing_at(1, trap);
        // Period 2 arrives early and is buffered; then periods 0 and 1.
        for p in [2u64, 0, 1] {
            for w in 0..2 {
                c.contribution(contrib(w, p, &[], vec![]));
            }
            c.commit_ready(&mut mem, &mut merge);
        }
        assert_eq!(committed(&c), vec![0]);
        assert!(c.pending.is_empty(), "period 2 squashed with period 1");
        assert_eq!(c.tally.checkpoints, 2, "the failed merge was attempted");
        assert_eq!(c.tally.misspecs, 1);
        assert_eq!(
            c.stop_iter(),
            17,
            "the period's last iteration misspeculated"
        );
        assert!(matches!(
            c.events.last().map(|e| &e.event),
            Some(EngineEvent::MisspecDetected {
                iter: 17,
                kind: MisspecKind::Privacy
            })
        ));
        assert_eq!(
            c.outcome(),
            Ok(SpanOutcome::Misspec {
                iter: 17,
                resume_base: 14
            })
        );
    }

    /// An internal merge trap bails the span: buffered and later
    /// contributions are dropped, but the committer still waits for every
    /// worker's `Done` so their stats are drained.
    #[test]
    fn internal_merge_trap_bails_and_still_drains_every_worker() {
        let page: Arc<Page> = Arc::new([0u8; PAGE_SIZE as usize]);
        let mut c = committer(0, 12, 4, 2);
        let mut mem = AddressSpace::new();
        let mut merge = failing_at(0, Trap::Internal("merge fault".into()));
        c.contribution(contrib(0, 1, &[Arc::clone(&page)], vec![]));
        for w in 0..2 {
            c.contribution(contrib(w, 0, &[], vec![]));
        }
        c.commit_ready(&mut mem, &mut merge);
        assert_eq!(c.stop_iter(), 0, "workers stop at once");
        assert!(c.pending.is_empty());
        assert_eq!(Arc::strong_count(&page), 1, "buffered pages released");
        c.contribution(contrib(1, 1, &[Arc::clone(&page)], vec![]));
        assert!(c.pending.is_empty(), "late arrivals dropped");
        assert_eq!(c.tally.squashed_pages, 4);
        c.worker_done();
        c.commit_ready(&mut mem, &mut merge);
        assert!(!c.finished(), "worker 1 still owes its Done");
        c.worker_done();
        assert!(c.finished());
        assert!(committed(&c).is_empty());
        assert_eq!(c.outcome(), Err(Trap::Internal("merge fault".into())));
    }
}
