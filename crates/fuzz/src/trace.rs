//! Shared trace/packaging strategies for checkpoint differential tests.
//!
//! The runtime's `proptest_checkpoint` suite replays random multi-worker
//! access traces through the fast and the reference merge pipelines;
//! this module is the home of that machinery — the [`Op`] trace
//! strategy, the per-worker replay state ([`TraceWorker`]) and the
//! deterministic order shuffle — parameterized by [`TraceParams`] so a
//! suite keeps its own trace shape and the fuzz harness can reuse them
//! against generated footprints.

use privateer_ir::Heap;
use privateer_runtime::checkpoint::{Contribution, DeltaTracker};
use privateer_runtime::shadow;
use privateer_runtime::worker::WorkerRuntime;
use privateer_vm::{AddressSpace, RuntimeIface};
use proptest::prelude::*;

/// The shape of a generated trace: worker count, checkpoint periods,
/// iterations per period, and the footprint anchor offsets accesses pick
/// from (relative to the trace's base address).
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Workers replaying the trace.
    pub workers: usize,
    /// Checkpoint periods simulated.
    pub periods: u64,
    /// Iterations per checkpoint period.
    pub k: u64,
    /// Footprint anchors (byte offsets from the trace base).
    pub slots: &'static [u64],
}

/// One private-heap access of a generated trace.
#[derive(Debug, Clone)]
pub struct Op {
    /// Worker performing the access.
    pub worker: usize,
    /// Checkpoint period it falls in.
    pub period: u64,
    /// Position within the period; the op runs at iteration
    /// `period·k + pos·workers + worker`.
    pub pos: u64,
    /// Index into [`TraceParams::slots`].
    pub slot: usize,
    /// Access size in bytes (1..=8).
    pub size: u64,
    /// Write (`true`) or read (`false`).
    pub is_write: bool,
    /// Fill byte for writes.
    pub val: u8,
}

/// Strategy for one [`Op`] of a `params`-shaped trace.
pub fn op_strategy(params: TraceParams) -> impl Strategy<Value = Op> {
    (
        0..params.workers,
        0..params.periods,
        0..params.k / params.workers as u64,
        0..params.slots.len(),
        1u64..=8,
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(|(worker, period, pos, slot, size, is_write, val)| Op {
            worker,
            period,
            pos,
            slot,
            size,
            is_write,
            val,
        })
}

/// One worker's state across a simulated span: its runtime, private
/// address space, delta tracker, and current iteration.
pub struct TraceWorker {
    /// The worker's speculative runtime (phase-1 checks).
    pub rt: WorkerRuntime,
    /// The worker's forked address space.
    pub mem: AddressSpace,
    /// Delta-contribution tracker.
    pub tracker: DeltaTracker,
    /// Iteration currently being replayed (`-1` before the first op).
    pub cur_iter: i64,
}

impl TraceWorker {
    /// Fresh state for worker `w`.
    pub fn fresh(w: usize) -> TraceWorker {
        TraceWorker {
            rt: WorkerRuntime::new(w, 0.0, 0),
            mem: AddressSpace::new(),
            tracker: DeltaTracker::new(),
            cur_iter: -1,
        }
    }

    /// Replay one op at `base`: advance to the op's iteration if needed,
    /// then perform the checked access. A phase-1 trap squashes the
    /// access; partial shadow marks it already made are legitimate merge
    /// input.
    pub fn apply(&mut self, op: &Op, params: TraceParams, base: u64) {
        let iter =
            (op.period * params.k + op.pos * params.workers as u64) as i64 + op.worker as i64;
        if iter != self.cur_iter {
            self.cur_iter = iter;
            self.rt
                .begin_iteration(iter, (iter as u64) % params.k)
                .unwrap();
        }
        let addr = base + params.slots[op.slot];
        if op.is_write {
            if self.rt.private_write(addr, op.size, &mut self.mem).is_ok() {
                self.mem.fill(addr, op.size, op.val);
            }
        } else {
            let _ = self.rt.private_read(addr, op.size, &mut self.mem);
        }
    }
}

/// A deterministic seeded shuffle of `0..n` (trap choice is
/// order-dependent, so differential pipelines must share one order — but
/// any order must agree).
pub fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order
}

/// The private heap's address range, for committed-state comparisons.
pub fn priv_range() -> (u64, u64) {
    let lo = Heap::Private.base();
    (lo, lo + privateer_runtime::heaps::HEAP_SPAN)
}

/// Pages of a contribution that actually carry phase-2 content (any
/// shadow byte above old-write).
pub fn touched_shadow_pages(c: &Contribution) -> Vec<u64> {
    c.shadow_pages
        .iter()
        .filter(|(_, p)| p.iter().any(|&b| b > shadow::OLD_WRITE))
        .map(|&(base, _)| base)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    const P: TraceParams = TraceParams {
        workers: 4,
        periods: 3,
        k: 16,
        slots: &[0xff0, 0x1002, 0x10, 0x2040],
    };

    #[test]
    fn op_strategy_respects_params() {
        let strat = op_strategy(P);
        let mut rng = TestRng::new(99);
        for _ in 0..200 {
            let op = strat.generate(&mut rng);
            assert!(op.worker < P.workers);
            assert!(op.period < P.periods);
            assert!(op.pos < P.k / P.workers as u64);
            assert!(op.slot < P.slots.len());
            assert!((1..=8).contains(&op.size));
        }
    }

    #[test]
    fn shuffled_order_is_a_seeded_permutation() {
        for seed in 0..8u64 {
            let a = shuffled_order(7, seed);
            assert_eq!(a, shuffled_order(7, seed));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        }
        assert_ne!(shuffled_order(7, 1), shuffled_order(7, 2));
    }
}
