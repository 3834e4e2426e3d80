//! Property-based equivalence between the checkpoint fast path — delta
//! contributions ([`DeltaTracker`]) merged by the page-granular dense
//! [`CheckpointMerge`] — and the retained reference path — cumulative
//! contributions ([`collect_contribution`]) merged by the per-address
//! [`ReferenceCheckpointMerge`] from `privateer-fuzz`.
//!
//! For random multi-worker, multi-period access traces with footprints
//! crossing page boundaries, and for random contribution orders, the two
//! pipelines must be observationally identical: byte-identical committed
//! memory and shadow marks, identically ordered deferred I/O, equal
//! written-byte counts, and the identical `Trap` (kind *and* message)
//! when phase 2 rejects.
//!
//! The trace machinery (op strategy, per-worker replay state, the
//! deterministic order shuffle) lives in [`privateer_fuzz::trace`],
//! shared with the `privfuzz` harness.

use privateer_fuzz::merge::ReferenceCheckpointMerge;
use privateer_fuzz::trace::{
    op_strategy, priv_range, shuffled_order, touched_shadow_pages, TraceParams, TraceWorker,
};
use privateer_ir::inst::SHADOW_BIT;
use privateer_ir::Heap;
use privateer_runtime::checkpoint::{collect_contribution, CheckpointMerge, DeltaTracker};
use privateer_runtime::shadow;
use privateer_runtime::worker::WorkerRuntime;
use privateer_vm::{AddressSpace, RuntimeIface, PAGE_SIZE};
use proptest::prelude::*;

/// Footprint anchors: a cluster straddling the first page boundary of the
/// region (so single accesses cross pages), plus spots on distinct pages
/// (so contributions carry several pages and the delta filter has
/// something to skip once a page goes quiet).
const PARAMS: TraceParams = TraceParams {
    workers: 4,
    periods: 3,
    k: 16, // iterations per checkpoint period
    slots: &[
        0xff0, 0xff5, 0xffb, 0xffe, 0x1002, 0x1009, 0x10, 0x1100, 0x2040, 0x3ffc,
    ],
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn delta_dense_pipeline_equals_cumulative_reference(
        mut ops in prop::collection::vec(op_strategy(PARAMS), 1..80),
        shuffle_seed in any::<u64>(),
    ) {
        let base = Heap::Private.base() + 0x4000;
        ops.sort_by_key(|o| (o.worker, o.period, o.pos));

        let mut workers: Vec<TraceWorker> = (0..PARAMS.workers)
            .map(TraceWorker::fresh)
            .collect();

        let mut committed_dense = AddressSpace::new();
        let mut committed_ref = AddressSpace::new();

        for period in 0..PARAMS.periods {
            // Replay each worker's slice of the trace for this period.
            for op in ops.iter().filter(|o| o.period == period) {
                workers[op.worker].apply(op, PARAMS, base);
            }

            // Collect both flavors from the identical worker state: the
            // cumulative contribution reads the pre-normalize state, then
            // `DeltaTracker::collect` normalizes and snapshots it (both
            // pipelines share the normalized state going forward).
            let mut fulls = Vec::new();
            let mut deltas = Vec::new();
            for (w, worker) in workers.iter_mut().enumerate() {
                let io = vec![(worker.cur_iter, vec![w as u8, period as u8, b'\n'])];
                let full = collect_contribution(w, period, &worker.mem, &[], io.clone());
                let delta = worker.tracker.collect(w, period, &mut worker.mem, &[], io);

                // Delta ships a subset of the cumulative page set, and
                // never drops a page that carries phase-2 content.
                let delta_bases: Vec<u64> =
                    delta.shadow_pages.iter().map(|&(b, _)| b).collect();
                let full_bases: Vec<u64> =
                    full.shadow_pages.iter().map(|&(b, _)| b).collect();
                for b in &delta_bases {
                    prop_assert!(full_bases.contains(b), "delta shipped unknown page {b:#x}");
                }
                for b in touched_shadow_pages(&full) {
                    prop_assert!(
                        delta_bases.contains(&b),
                        "delta dropped touched page {b:#x} in period {period}"
                    );
                }
                fulls.push(full);
                deltas.push(delta);
            }

            // Merge both pipelines with the same shuffled contribution
            // order (trap choice is order-dependent, so the order must
            // match across pipelines — but any order must agree).
            let order = shuffled_order(PARAMS.workers, shuffle_seed ^ period);

            let mut dense = CheckpointMerge::new(0);
            let mut reference = ReferenceCheckpointMerge::new(0);
            let mut r_dense = Ok(());
            let mut r_ref = Ok(());
            for &w in &order {
                if r_dense.is_ok() {
                    r_dense = dense.add(deltas[w].clone(), &committed_dense);
                }
                if r_ref.is_ok() {
                    r_ref = reference.add(fulls[w].clone(), &committed_ref);
                }
            }
            prop_assert_eq!(&r_dense, &r_ref, "merge verdicts diverged in period {}", period);
            if r_dense.is_err() {
                // Both pipelines squash this period; the span is over.
                return Ok(());
            }

            prop_assert_eq!(dense.written_bytes(), reference.written_bytes());
            let io_dense = dense.commit(&mut committed_dense);
            let io_ref = reference.commit(&mut committed_ref);
            prop_assert_eq!(io_dense, io_ref, "deferred I/O diverged in period {}", period);

            let (lo, hi) = priv_range();
            prop_assert!(
                committed_dense.range_eq(&committed_ref, lo, hi),
                "committed private bytes diverged in period {period}"
            );
            prop_assert!(
                committed_dense.range_eq(
                    &committed_ref,
                    lo | SHADOW_BIT,
                    hi | SHADOW_BIT
                ),
                "committed shadow marks diverged in period {period}"
            );
        }
    }

    /// The dense merge commits runs page by page; make sure run splicing
    /// at page boundaries agrees with the reference byte-run committer
    /// when a single write straddles two pages.
    #[test]
    fn page_straddling_write_commits_identically(
        off in 0u64..16,
        size in 1u64..=16,
        val in any::<u8>(),
    ) {
        let addr = Heap::Private.base() + 0x5000 - 8 + off; // straddles 0x5000
        let mut rt = WorkerRuntime::new(0, 0.0, 0);
        let mut mem = AddressSpace::new();
        rt.begin_iteration(0, 0).unwrap();
        rt.private_write(addr, size, &mut mem).unwrap();
        mem.fill(addr, size, val);

        let full = collect_contribution(0, 0, &mem, &[], vec![]);
        let delta = DeltaTracker::new().collect(0, 0, &mut mem, &[], vec![]);

        let mut committed_dense = AddressSpace::new();
        let mut committed_ref = AddressSpace::new();
        let mut dense = CheckpointMerge::new(0);
        let mut reference = ReferenceCheckpointMerge::new(0);
        dense.add(delta, &committed_dense).unwrap();
        reference.add(full, &committed_ref).unwrap();
        prop_assert_eq!(dense.written_bytes(), size as usize);
        prop_assert_eq!(dense.written_bytes(), reference.written_bytes());
        if size > PAGE_SIZE - ((addr) & (PAGE_SIZE - 1)) {
            prop_assert_eq!(dense.dirty_pages(), 2);
        }
        dense.commit(&mut committed_dense);
        reference.commit(&mut committed_ref);
        let (lo, hi) = priv_range();
        prop_assert!(committed_dense.range_eq(&committed_ref, lo, hi));
        prop_assert!(committed_dense.range_eq(&committed_ref, lo | SHADOW_BIT, hi | SHADOW_BIT));
        for i in 0..size {
            prop_assert_eq!(committed_dense.read_u8(addr + i), val);
            prop_assert_eq!(
                committed_dense.read_u8((addr + i) | SHADOW_BIT),
                shadow::OLD_WRITE
            );
        }
    }
}
