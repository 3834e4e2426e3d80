//! The per-worker speculative runtime: fast-phase validation (§5.1).

use crate::heaps::worker_shortlived_arena;
use crate::shadow::{self, Access};
use privateer_ir::inst::SHADOW_BIT;
use privateer_ir::{Heap, Module, PlanEntry, ReduxOp};
use privateer_telemetry::{Phase, WorkerTelemetry};
use privateer_vm::{AddressSpace, MisspecKind, RegionAllocator, RuntimeIface, Trap, PAGE_SIZE};

/// Deterministic per-iteration hash for misspeculation injection (§6.3).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Whether the Figure 9 experiment injects a misspeculation at `iter`.
pub fn injected_at(rate: f64, seed: u64, iter: i64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let h = splitmix64(seed ^ (iter as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    (h as f64 / u64::MAX as f64) < rate
}

/// Volume counters for one worker (feeds Figure 8 / Table 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Bytes validated by `private_read`.
    pub priv_read_bytes: u64,
    /// Bytes validated by `private_write`.
    pub priv_write_bytes: u64,
    /// Iterations executed (including any that misspeculated).
    pub iters: u64,
    /// Interpreter instructions executed (simulated-time model).
    pub insts: u64,
    /// `private_read` check executions.
    pub priv_read_calls: u64,
    /// `private_write` check executions.
    pub priv_write_calls: u64,
    /// `check_heap` executions.
    pub check_calls: u64,
    /// Pages assembled into checkpoint contributions.
    pub contrib_pages: u64,
    /// 8-byte shadow words handled by the word-granular (SWAR) fast path.
    pub priv_fast_words: u64,
    /// Shadow bytes that took the per-byte `shadow::transition` slow path
    /// (sub-word tails and trap-candidate words).
    pub priv_slow_bytes: u64,
}

/// The [`RuntimeIface`] implementation workers run under: Table 2 privacy
/// metadata in the worker's own shadow pages, separation checks, per-worker
/// short-lived arena with lifetime validation, deferred output, value
/// prediction, and injected misspeculation.
#[derive(Debug)]
pub struct WorkerRuntime {
    /// Worker index.
    pub worker: usize,
    /// Current global iteration.
    pub cur_iter: i64,
    cur_ts: u8,
    shortlived: RegionAllocator,
    sl_live: i64,
    io: Vec<(i64, Vec<u8>)>,
    cur_io: Vec<u8>,
    inject_rate: f64,
    inject_seed: u64,
    /// Accumulated statistics.
    pub stats: WorkerStats,
    /// Per-worker trace recording handle (disabled by default; the engine
    /// installs a live one when tracing). Recording is lock-free — the
    /// handle owns its ring.
    pub tel: WorkerTelemetry,
}

impl WorkerRuntime {
    /// A runtime for worker `w` (telemetry disabled).
    pub fn new(w: usize, inject_rate: f64, inject_seed: u64) -> WorkerRuntime {
        WorkerRuntime {
            worker: w,
            cur_iter: 0,
            cur_ts: shadow::TS_BASE,
            shortlived: worker_shortlived_arena(w),
            sl_live: 0,
            io: Vec::new(),
            cur_io: Vec::new(),
            inject_rate,
            inject_seed,
            stats: WorkerStats::default(),
            tel: WorkerTelemetry::disabled(),
        }
    }

    /// Begin global iteration `iter`, whose position within the current
    /// checkpoint period is `n` (so its timestamp is `3 + n`).
    ///
    /// # Errors
    ///
    /// Traps immediately when the injection experiment selects this
    /// iteration.
    pub fn begin_iteration(&mut self, iter: i64, n_in_period: u64) -> Result<(), Trap> {
        self.cur_iter = iter;
        self.cur_ts = shadow::ts_code(n_in_period);
        self.cur_io.clear();
        self.stats.iters += 1;
        if injected_at(self.inject_rate, self.inject_seed, iter) {
            return Err(Trap::misspec(
                MisspecKind::Injected,
                format!("injected at iteration {iter}"),
            ));
        }
        Ok(())
    }

    /// Finish the current iteration: validate short-lived lifetimes and
    /// bank deferred output.
    ///
    /// # Errors
    ///
    /// Traps with a lifetime misspeculation if short-lived objects survive
    /// the iteration (§5.1, "Validating Short-Lived Objects").
    pub fn end_iteration(&mut self) -> Result<(), Trap> {
        if self.sl_live != 0 {
            return Err(Trap::misspec(
                MisspecKind::Lifetime,
                format!(
                    "{} short-lived object(s) outlived iteration {}",
                    self.sl_live, self.cur_iter
                ),
            ));
        }
        self.shortlived.reset();
        if !self.cur_io.is_empty() {
            self.io
                .push((self.cur_iter, std::mem::take(&mut self.cur_io)));
        }
        Ok(())
    }

    /// Take the deferred output accumulated since the last call.
    pub fn take_io(&mut self) -> Vec<(i64, Vec<u8>)> {
        std::mem::take(&mut self.io)
    }

    /// Normalize this worker's shadow metadata after contributing to a
    /// checkpoint: timestamps → old-write, read-live-in → live-in.
    ///
    /// Scans word-at-a-time: words already all live-in/old-write (the
    /// common steady state) are skipped with a single compare, and only
    /// pages where some word actually changes are copied and reinstalled.
    pub fn normalize_shadow(mem: &mut AddressSpace) {
        let lo = Heap::Private.base() | SHADOW_BIT;
        let hi = lo + crate::heaps::HEAP_SPAN;
        let pages = mem.pages_in_range(lo, hi);
        for (base, page) in pages {
            let mut fresh: Option<privateer_vm::Page> = None;
            for i in (0..PAGE_SIZE as usize).step_by(8) {
                let w = u64::from_le_bytes(page[i..i + 8].try_into().unwrap());
                if shadow::word::all_le_old_write(w) {
                    continue;
                }
                let new = shadow::word::normalize_word(w);
                if new != w {
                    let f = fresh.get_or_insert_with(|| *page);
                    f[i..i + 8].copy_from_slice(&new.to_le_bytes());
                }
            }
            if let Some(f) = fresh {
                mem.install_page(base, std::sync::Arc::new(f));
            }
        }
    }
}

impl RuntimeIface for WorkerRuntime {
    fn h_alloc(&mut self, heap: Heap, size: u64) -> Result<u64, Trap> {
        match heap {
            Heap::ShortLived => {
                self.sl_live += 1;
                self.shortlived
                    .alloc(size)
                    .map_err(|_| Trap::OutOfMemory(heap))
            }
            other => Err(Trap::Internal(format!(
                "worker allocation from heap `{other}` inside a parallel region"
            ))),
        }
    }

    fn h_free(&mut self, heap: Heap, addr: u64) -> Result<(), Trap> {
        match heap {
            Heap::ShortLived => {
                // Validate the free before touching the lifetime counter:
                // a bad free must not corrupt `sl_live`, or it could mask
                // (or fake) a genuine §5.1 lifetime misspeculation in the
                // same iteration.
                self.shortlived
                    .free(addr)
                    .map_err(|e| Trap::AllocError(e.to_string()))?;
                self.sl_live -= 1;
                Ok(())
            }
            other => Err(Trap::Internal(format!(
                "worker free into heap `{other}` inside a parallel region"
            ))),
        }
    }

    fn check_heap(&mut self, heap: Heap, addr: u64) -> Result<(), Trap> {
        self.stats.check_calls += 1;
        if addr == 0 || heap.contains(addr) {
            Ok(())
        } else {
            Err(Trap::misspec(
                MisspecKind::Separation,
                format!(
                    "pointer {addr:#x} is not in heap `{heap}` (iteration {})",
                    self.cur_iter
                ),
            ))
        }
    }

    #[inline]
    fn private_read(&mut self, addr: u64, size: u64, mem: &mut AddressSpace) -> Result<(), Trap> {
        self.stats.priv_read_bytes += size;
        self.stats.priv_read_calls += 1;
        if self.tel.enabled() {
            return self.private_access_traced(Access::Read, addr, size, mem);
        }
        self.private_access(Access::Read, addr, size, mem)
    }

    #[inline]
    fn private_write(&mut self, addr: u64, size: u64, mem: &mut AddressSpace) -> Result<(), Trap> {
        self.stats.priv_write_bytes += size;
        self.stats.priv_write_calls += 1;
        if self.tel.enabled() {
            return self.private_access_traced(Access::Write, addr, size, mem);
        }
        self.private_access(Access::Write, addr, size, mem)
    }

    fn predict(&mut self, ok: bool) -> Result<(), Trap> {
        if ok {
            Ok(())
        } else {
            Err(Trap::misspec(
                MisspecKind::Prediction,
                format!("prediction failed at iteration {}", self.cur_iter),
            ))
        }
    }

    fn misspec(&mut self) -> Result<(), Trap> {
        Err(Trap::misspec(
            MisspecKind::Explicit,
            format!("misspec() at iteration {}", self.cur_iter),
        ))
    }

    fn output(&mut self, bytes: &[u8]) {
        self.cur_io.extend_from_slice(bytes);
    }

    fn redux_register(&mut self, _op: ReduxOp, _addr: u64, _size: u64) -> Result<(), Trap> {
        // Registration happens before the invocation, in the main process;
        // a registration inside the loop is a transformation bug.
        Err(Trap::Internal(
            "redux_register inside a parallel region".into(),
        ))
    }

    fn parallel_invoke(
        &mut self,
        _module: &Module,
        _global_addrs: &[u64],
        _plan: PlanEntry,
        _lo: i64,
        _hi: i64,
        _mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        // Nested parallelism is excluded by loop selection (§4.3).
        Err(Trap::Internal("nested parallel invocation".into()))
    }
}

impl WorkerRuntime {
    /// The reference per-byte privacy check (the pre-SWAR hot loop).
    ///
    /// Kept public so the proptest equivalence suite and the
    /// `privateer-bench` baseline can compare the word-granular
    /// [`private_read`](RuntimeIface::private_read)/
    /// [`private_write`](RuntimeIface::private_write) path against it;
    /// both must produce byte-identical shadow state and identical traps.
    ///
    /// # Errors
    ///
    /// Traps exactly per Table 2 ([`shadow::transition`]), plus a
    /// separation misspeculation for non-private addresses.
    pub fn private_access_bytewise(
        &mut self,
        access: Access,
        addr: u64,
        size: u64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        if !Heap::Private.contains(addr) {
            return Err(Trap::misspec(
                MisspecKind::Separation,
                format!("private access to non-private address {addr:#x}"),
            ));
        }
        for b in addr..addr + size {
            let sh = b | SHADOW_BIT;
            let before = mem.read_u8(sh);
            let after = shadow::transition(access, before, self.cur_ts)?;
            if after != before {
                mem.write_u8(sh, after);
            }
        }
        Ok(())
    }

    /// Word-granular privacy check: equivalent to
    /// [`Self::private_access_bytewise`] but processes eight shadow bytes
    /// per step on the no-trap path (see [`shadow::word`]).
    ///
    /// Public so the `privateer-bench` overhead suite can measure the raw
    /// check with the [`RuntimeIface`] wrapper's telemetry call compiled
    /// out.
    pub fn private_access(
        &mut self,
        access: Access,
        addr: u64,
        size: u64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        if !Heap::Private.contains(addr) {
            return Err(Trap::misspec(
                MisspecKind::Separation,
                format!("private access to non-private address {addr:#x}"),
            ));
        }
        let mut b = addr;
        let end = addr + size;
        while b < end {
            let sh = b | SHADOW_BIT;
            let room = PAGE_SIZE - (sh & (PAGE_SIZE - 1));
            let chunk = room.min(end - b);
            self.chunk_access(access, sh, chunk, mem)?;
            b += chunk;
        }
        Ok(())
    }

    /// [`Self::private_access`] recorded as a `PrivRead`/`PrivWrite` span:
    /// the traced path of the [`RuntimeIface`] wrappers, kept out of line
    /// so that with telemetry off they read no clock and pay one branch.
    #[cold]
    #[inline(never)]
    fn private_access_traced(
        &mut self,
        access: Access,
        addr: u64,
        size: u64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        let t0 = self.tel.start();
        let r = self.private_access(access, addr, size, mem);
        let phase = match access {
            Access::Read => Phase::PrivRead,
            Access::Write => Phase::PrivWrite,
        };
        self.tel.span_since(phase, t0, addr as i64, size as i64);
        r
    }

    /// One within-page chunk (`len <= PAGE_SIZE`) of the word-granular
    /// privacy check, starting at shadow address `sh`.
    fn chunk_access(
        &mut self,
        access: Access,
        sh: u64,
        len: u64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        let cur = self.cur_ts;
        let n = len as usize;
        let off = (sh & (PAGE_SIZE - 1)) as usize;

        let Some(page) = mem.page(sh) else {
            // Unmapped shadow page: every byte is LIVE_IN, so no byte can
            // trap — reads mark the span read-live-in, writes broadcast
            // the current timestamp.
            let fill = match access {
                Access::Read => shadow::READ_LIVE_IN,
                Access::Write => cur,
            };
            mem.fill(sh, len, fill);
            self.stats.priv_fast_words += len.div_ceil(shadow::word::BYTES);
            return Ok(());
        };

        // Phase 1 (read-only): word-scan for the first trap candidate and
        // whether any metadata changes at all. A pure pass (intra-iteration
        // reuse, where the span is already uniformly `cur`) therefore never
        // copies or materializes a page.
        let bytes = &page[off..off + n];
        let mut i = 0usize;
        let mut any_change = false;
        let mut fallback_at: Option<usize> = None;
        while i + 8 <= n {
            let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
            match shadow::word::transition_word(access, w, cur) {
                shadow::word::Outcome::Pass(new) => {
                    any_change |= new != w;
                    self.stats.priv_fast_words += 1;
                    i += 8;
                }
                shadow::word::Outcome::Fallback => {
                    fallback_at = Some(i);
                    break;
                }
            }
        }
        if fallback_at.is_none() {
            // Sub-word tail: per-byte scan, still read-only. A trapping
            // tail byte joins the fallback path below so the bytes before
            // it still mutate, exactly as in the bytewise reference.
            while i < n {
                match shadow::transition(access, bytes[i], cur) {
                    Ok(after) => {
                        any_change |= after != bytes[i];
                        self.stats.priv_slow_bytes += 1;
                        i += 1;
                    }
                    Err(_) => {
                        fallback_at = Some(i);
                        break;
                    }
                }
            }
        }

        if !any_change && fallback_at.is_none() {
            return Ok(());
        }

        // Phase 2 (mutating): apply the all-pass prefix in bulk, then let
        // the per-byte reference transition walk the remainder so the
        // trapping byte, its trap message, and the partial-mutation order
        // are identical to `private_access_bytewise`.
        let pass_len = fallback_at.unwrap_or(n);
        let slice = &mut mem.page_make_mut(sh)[off..off + n];
        match access {
            // Every passing write lane becomes the current timestamp.
            Access::Write => slice[..pass_len].fill(cur),
            // Passing read lanes keep `cur`; live-in and read-live-in
            // become read-live-in.
            Access::Read => {
                for m in &mut slice[..pass_len] {
                    if *m != cur {
                        *m = shadow::READ_LIVE_IN;
                    }
                }
            }
        }
        for m in &mut slice[pass_len..] {
            self.stats.priv_slow_bytes += 1;
            let after = shadow::transition(access, *m, cur)?;
            if after != *m {
                *m = after;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (WorkerRuntime, AddressSpace, u64) {
        let rt = WorkerRuntime::new(0, 0.0, 0);
        let mem = AddressSpace::new();
        let addr = Heap::Private.base() + 0x2000;
        (rt, mem, addr)
    }

    #[test]
    fn write_then_read_same_iteration_ok() {
        let (mut rt, mut mem, a) = setup();
        rt.begin_iteration(0, 0).unwrap();
        rt.private_write(a, 8, &mut mem).unwrap();
        rt.private_read(a, 8, &mut mem).unwrap();
        rt.end_iteration().unwrap();
    }

    #[test]
    fn cross_iteration_flow_misspeculates() {
        let (mut rt, mut mem, a) = setup();
        rt.begin_iteration(0, 0).unwrap();
        rt.private_write(a, 8, &mut mem).unwrap();
        rt.end_iteration().unwrap();
        rt.begin_iteration(1, 1).unwrap();
        let e = rt.private_read(a, 8, &mut mem).unwrap_err();
        assert!(matches!(e, Trap::Misspec(m) if m.kind == MisspecKind::Privacy));
    }

    #[test]
    fn live_in_read_then_overwrite_conservative() {
        let (mut rt, mut mem, a) = setup();
        rt.begin_iteration(0, 0).unwrap();
        rt.private_read(a, 4, &mut mem).unwrap(); // live-in read, fine
        let e = rt.private_write(a, 4, &mut mem).unwrap_err();
        assert!(matches!(e, Trap::Misspec(m) if m.kind == MisspecKind::Privacy));
    }

    #[test]
    fn kill_then_use_across_iterations_ok() {
        // The privatization pattern: every iteration writes before reading.
        let (mut rt, mut mem, a) = setup();
        for i in 0..5 {
            rt.begin_iteration(i, i as u64).unwrap();
            rt.private_write(a, 8, &mut mem).unwrap();
            rt.private_read(a, 8, &mut mem).unwrap();
            rt.end_iteration().unwrap();
        }
    }

    #[test]
    fn shortlived_lifetime_validated() {
        let (mut rt, _, _) = setup();
        rt.begin_iteration(0, 0).unwrap();
        let p = rt.h_alloc(Heap::ShortLived, 32).unwrap();
        rt.h_free(Heap::ShortLived, p).unwrap();
        rt.end_iteration().unwrap();

        rt.begin_iteration(1, 1).unwrap();
        let _leak = rt.h_alloc(Heap::ShortLived, 32).unwrap();
        let e = rt.end_iteration().unwrap_err();
        assert!(matches!(e, Trap::Misspec(m) if m.kind == MisspecKind::Lifetime));
    }

    #[test]
    fn double_free_does_not_corrupt_lifetime_counter() {
        let (mut rt, _, _) = setup();
        rt.begin_iteration(0, 0).unwrap();
        let p = rt.h_alloc(Heap::ShortLived, 32).unwrap();
        rt.h_free(Heap::ShortLived, p).unwrap();
        // The second free is invalid and must fail *without* decrementing
        // the live counter below zero.
        assert!(matches!(
            rt.h_free(Heap::ShortLived, p),
            Err(Trap::AllocError(_))
        ));
        // Allocations and successful frees balance, so the iteration ends
        // cleanly; with the old decrement-first bug `sl_live` was -1 here
        // and this tripped a bogus lifetime misspeculation.
        rt.end_iteration().unwrap();
    }

    #[test]
    fn worker_private_alloc_rejected() {
        let (mut rt, _, _) = setup();
        assert!(rt.h_alloc(Heap::Private, 8).is_err());
    }

    #[test]
    fn io_is_deferred_and_tagged() {
        let (mut rt, mut mem, _) = setup();
        let _ = &mut mem;
        rt.begin_iteration(3, 0).unwrap();
        rt.output(b"x");
        rt.end_iteration().unwrap();
        rt.begin_iteration(7, 1).unwrap();
        rt.output(b"yz");
        rt.end_iteration().unwrap();
        let io = rt.take_io();
        assert_eq!(io, vec![(3, b"x".to_vec()), (7, b"yz".to_vec())]);
        assert!(rt.take_io().is_empty());
    }

    #[test]
    fn normalize_shadow_resets_codes() {
        let (mut rt, mut mem, a) = setup();
        rt.begin_iteration(0, 0).unwrap();
        rt.private_write(a, 1, &mut mem).unwrap();
        rt.private_read(a + 1, 1, &mut mem).unwrap();
        WorkerRuntime::normalize_shadow(&mut mem);
        assert_eq!(mem.read_u8(a | SHADOW_BIT), shadow::OLD_WRITE);
        assert_eq!(mem.read_u8((a + 1) | SHADOW_BIT), shadow::LIVE_IN);
    }

    #[test]
    fn injection_is_deterministic() {
        let hits: Vec<i64> = (0..1000).filter(|&i| injected_at(0.01, 42, i)).collect();
        let hits2: Vec<i64> = (0..1000).filter(|&i| injected_at(0.01, 42, i)).collect();
        assert_eq!(hits, hits2);
        // Roughly 1% of 1000.
        assert!(!hits.is_empty() && hits.len() < 50, "{}", hits.len());
        assert!(!injected_at(0.0, 42, 1));
    }

    #[test]
    fn prediction_and_separation() {
        let (mut rt, _, _) = setup();
        assert!(rt.predict(true).is_ok());
        assert!(rt.predict(false).is_err());
        assert!(rt
            .check_heap(Heap::Private, Heap::Private.base() + 8)
            .is_ok());
        assert!(rt
            .check_heap(Heap::Private, Heap::ReadOnly.base() + 8)
            .is_err());
        assert!(rt.check_heap(Heap::Private, 0).is_ok());
    }
}
