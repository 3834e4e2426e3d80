#![warn(missing_docs)]
//! # privateer-vm
//!
//! An instrumentable interpreter for the `privateer-ir` IR, built on a
//! simulated, paged, copy-on-write 64-bit address space.
//!
//! This crate substitutes for native execution in the Privateer
//! reproduction (PLDI 2012): the paper manipulates *real* virtual memory
//! (shm/mmap/fork) to replicate logical heaps per worker; here the same
//! semantics — fixed heap address ranges with tag bits 44–46, COW
//! replication, shadow metadata at `addr | SHADOW_BIT` — are provided by
//! [`mem::AddressSpace`].
//!
//! Key pieces:
//!
//! * [`mem`] — the paged COW address space and a region allocator;
//! * [`val`] — runtime values;
//! * [`code`] — the pre-decoded form the interpreter executes;
//! * [`interp`] — the interpreter, generic over [`hooks::Hooks`]
//!   (profiling) and [`runtime::RuntimeIface`] (speculation runtime);
//! * [`trap`] — misspeculation and error traps.
//!
//! See the crate-level example on [`interp::Interp`].

pub mod code;
pub mod hooks;
pub mod interp;
pub mod mem;
pub mod runtime;
pub mod trap;
pub mod val;

pub use code::Code;
pub use hooks::{AllocKind, ExecCtx, Hooks, LoopFrame, NopHooks};
pub use interp::{load_module, Interp, InterpStats, ProgramImage};
pub use mem::{AddressSpace, Page, RegionAllocator, PAGE_SIZE};
pub use runtime::{BasicRuntime, RuntimeIface};
pub use trap::{Misspec, MisspecKind, Trap};
pub use val::Val;
