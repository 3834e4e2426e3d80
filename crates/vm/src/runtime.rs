//! The runtime interface the interpreter calls for intrinsics with runtime
//! support, plus a basic sequential implementation.
//!
//! The speculative implementation (workers, shadow metadata, checkpoints)
//! lives in the `privateer-runtime` crate; this trait is the seam between
//! the interpreter and that machinery.

use crate::code::Code;
use crate::mem::{AddressSpace, RegionAllocator};
use crate::trap::{MisspecKind, Trap};
use privateer_ir::{Heap, Module, PlanEntry, ReduxOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Services the interpreter requests from the runtime system.
///
/// The default methods *are* the non-speculative semantics (§5.3): outside
/// a speculative worker a failed check has nothing to roll back, so every
/// check passes and `redux_register` needs no expansion. A runtime for
/// code that runs outside speculation — the main process around parallel
/// regions, sequential recovery, the DOALL-only baseline — implements only
/// allocation and output. The speculative worker runtime in
/// `privateer-runtime` overrides the checks; [`BasicRuntime`] overrides
/// the separation, prediction and `misspec()` checks to trap, because the
/// untransformed programs it runs contain no check intrinsics.
pub trait RuntimeIface {
    /// `h_alloc(size)` from a logical heap (§4.4).
    ///
    /// # Errors
    ///
    /// Traps with [`Trap::OutOfMemory`] when the heap range is exhausted.
    fn h_alloc(&mut self, heap: Heap, size: u64) -> Result<u64, Trap>;

    /// `h_dealloc(ptr)` into a logical heap (§4.4).
    ///
    /// # Errors
    ///
    /// Traps on frees of unallocated addresses.
    fn h_free(&mut self, heap: Heap, addr: u64) -> Result<(), Trap>;

    /// Separation check (§4.5): validate that `addr` lies in `heap`. The
    /// default passes.
    ///
    /// # Errors
    ///
    /// Speculative implementations trap with a separation misspeculation
    /// on tag mismatch.
    fn check_heap(&mut self, heap: Heap, addr: u64) -> Result<(), Trap> {
        let _ = (heap, addr);
        Ok(())
    }

    /// Privacy check before a load of `size` bytes (§4.6). The default
    /// passes.
    ///
    /// # Errors
    ///
    /// Speculative implementations trap with a privacy misspeculation
    /// when the fast phase detects a cross-iteration flow dependence.
    fn private_read(&mut self, addr: u64, size: u64, mem: &mut AddressSpace) -> Result<(), Trap> {
        let _ = (addr, size, mem);
        Ok(())
    }

    /// Privacy check before a store of `size` bytes (§4.6). The default
    /// passes.
    ///
    /// # Errors
    ///
    /// Speculative implementations trap with a privacy misspeculation in
    /// the conservative write-after-read-live-in case (Table 2).
    fn private_write(&mut self, addr: u64, size: u64, mem: &mut AddressSpace) -> Result<(), Trap> {
        let _ = (addr, size, mem);
        Ok(())
    }

    /// Value-prediction check: `ok` is the predicted condition's outcome.
    /// The default passes.
    ///
    /// # Errors
    ///
    /// Speculative implementations trap with a prediction misspeculation
    /// when `ok` is false.
    fn predict(&mut self, ok: bool) -> Result<(), Trap> {
        let _ = ok;
        Ok(())
    }

    /// Unconditional misspeculation report. The default passes.
    ///
    /// # Errors
    ///
    /// Speculative implementations always trap.
    fn misspec(&mut self) -> Result<(), Trap> {
        Ok(())
    }

    /// Program output (possibly deferred until commit in speculative
    /// modes).
    fn output(&mut self, bytes: &[u8]);

    /// `redux_register(ptr, size)`: declare a reduction object (§3.2). The
    /// default accepts and ignores the registration (sequential execution
    /// needs no expansion).
    ///
    /// # Errors
    ///
    /// Implementations may trap on malformed registrations.
    fn redux_register(&mut self, op: ReduxOp, addr: u64, size: u64) -> Result<(), Trap> {
        let _ = (op, addr, size);
        Ok(())
    }

    /// `parallel_invoke(lo, hi)`: run the outlined loop body over
    /// iterations `lo..hi` (§5). `code` is the calling interpreter's
    /// decoded `module`, for the interpreters the runtime starts. The
    /// speculative DOALL engine implements this; runtimes without an
    /// engine trap.
    ///
    /// # Errors
    ///
    /// The default always traps with [`Trap::Internal`].
    fn parallel_invoke(
        &mut self,
        module: &Module,
        code: &Arc<Code>,
        plan: PlanEntry,
        lo: i64,
        hi: i64,
        mem: &mut AddressSpace,
    ) -> Result<(), Trap> {
        let _ = (module, code, plan, lo, hi, mem);
        Err(Trap::Internal(
            "this runtime does not support parallel invocation".into(),
        ))
    }
}

/// A sequential runtime for untransformed programs: real logical-heap
/// allocation, direct output, no shadow metadata. Such a program contains
/// no check intrinsics, so a failed separation, prediction or `misspec()`
/// check traps here — it can only be a transformation bug.
#[derive(Debug)]
pub struct BasicRuntime {
    allocators: HashMap<Heap, RegionAllocator>,
    out: Vec<u8>,
}

impl BasicRuntime {
    /// A runtime that traps on failed checks.
    pub fn strict() -> BasicRuntime {
        BasicRuntime {
            allocators: HashMap::new(),
            out: Vec::new(),
        }
    }

    /// Bytes printed so far.
    pub fn output_bytes(&self) -> &[u8] {
        &self.out
    }

    /// Take the output buffer, leaving it empty.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    fn allocator(&mut self, heap: Heap) -> &mut RegionAllocator {
        self.allocators.entry(heap).or_insert_with(|| {
            // Skip the first page of each heap so "heap base" is never a
            // valid object address.
            RegionAllocator::new(heap.base() + crate::mem::PAGE_SIZE, heap.base() + (1 << 40))
        })
    }
}

impl RuntimeIface for BasicRuntime {
    fn h_alloc(&mut self, heap: Heap, size: u64) -> Result<u64, Trap> {
        self.allocator(heap)
            .alloc(size)
            .map_err(|_| Trap::OutOfMemory(heap))
    }

    fn h_free(&mut self, heap: Heap, addr: u64) -> Result<(), Trap> {
        self.allocator(heap)
            .free(addr)
            .map_err(|e| Trap::AllocError(e.to_string()))
    }

    fn check_heap(&mut self, heap: Heap, addr: u64) -> Result<(), Trap> {
        // Null names no object; separation is vacuous (the paper's checks
        // likewise pass NULL through — e.g. the dequeue path guarded by
        // value prediction).
        if addr == 0 || heap.contains(addr) {
            Ok(())
        } else {
            Err(Trap::misspec(
                MisspecKind::Separation,
                format!("pointer {addr:#x} is not in heap `{heap}`"),
            ))
        }
    }

    fn predict(&mut self, ok: bool) -> Result<(), Trap> {
        if ok {
            Ok(())
        } else {
            Err(Trap::misspec(
                MisspecKind::Prediction,
                "predicted condition was false",
            ))
        }
    }

    fn misspec(&mut self) -> Result<(), Trap> {
        Err(Trap::misspec(MisspecKind::Explicit, "explicit misspec()"))
    }

    fn output(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A runtime that overrides nothing but the required methods: the
    /// trait's non-speculative defaults.
    struct Inert;

    impl RuntimeIface for Inert {
        fn h_alloc(&mut self, heap: Heap, _size: u64) -> Result<u64, Trap> {
            Err(Trap::OutOfMemory(heap))
        }

        fn h_free(&mut self, _heap: Heap, _addr: u64) -> Result<(), Trap> {
            Ok(())
        }

        fn output(&mut self, _bytes: &[u8]) {}
    }

    #[test]
    fn alloc_lands_in_heap_range() {
        let mut rt = BasicRuntime::strict();
        let p = rt.h_alloc(Heap::Private, 64).unwrap();
        assert!(Heap::Private.contains(p));
        rt.check_heap(Heap::Private, p).unwrap();
        assert!(rt.check_heap(Heap::ReadOnly, p).is_err());
        rt.h_free(Heap::Private, p).unwrap();
    }

    #[test]
    fn null_passes_separation() {
        let mut rt = BasicRuntime::strict();
        rt.check_heap(Heap::ShortLived, 0).unwrap();
    }

    #[test]
    fn strict_checks_trap_where_defaults_pass() {
        let mut strict = BasicRuntime::strict();
        assert!(strict.predict(false).is_err());
        assert!(strict.predict(true).is_ok());
        assert!(strict.misspec().is_err());
        let mut inert = Inert;
        let mut mem = AddressSpace::new();
        assert!(inert
            .check_heap(Heap::Private, Heap::ReadOnly.base())
            .is_ok());
        assert!(inert.private_read(0x1000, 8, &mut mem).is_ok());
        assert!(inert.private_write(0x1000, 8, &mut mem).is_ok());
        assert!(inert.predict(false).is_ok());
        assert!(inert.misspec().is_ok());
        assert!(inert.redux_register(ReduxOp::SumI64, 0x1000, 8).is_ok());
    }

    #[test]
    fn output_accumulates() {
        let mut rt = BasicRuntime::strict();
        rt.output(b"a");
        rt.output(b"bc");
        assert_eq!(rt.output_bytes(), b"abc");
        assert_eq!(rt.take_output(), b"abc");
        assert!(rt.output_bytes().is_empty());
    }

    #[test]
    fn distinct_heaps_use_distinct_ranges() {
        let mut rt = BasicRuntime::strict();
        let p = rt.h_alloc(Heap::Private, 8).unwrap();
        let q = rt.h_alloc(Heap::ShortLived, 8).unwrap();
        assert_ne!(p >> 44, q >> 44);
    }
}
