//! The non-speculative "DOALL-only" execution engine (the paper's
//! Figure 7 baseline).
//!
//! Loops proven independent by *static analysis alone* run here: no
//! shadow metadata, no privacy checks, no checkpoints — workers execute
//! their cyclic share on copy-on-write forks and the engine installs the
//! result with a three-way page merge (legal because static analysis
//! proved writes disjoint across iterations).

use crate::model::{self, SimCost};
use privateer_ir::{Heap, Module, PlanEntry};
use privateer_vm::interp::{Interp, ProgramImage};
use privateer_vm::mem::{GLOBAL_BASE, MALLOC_BASE, PAGE_SIZE, STACK_BASE};
use privateer_vm::{AddressSpace, Code, NopHooks, RuntimeIface, Trap, Val};
use std::sync::Arc;

/// Statistics of the unchecked engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleStats {
    /// Parallel invocations.
    pub invocations: u64,
    /// Iterations executed.
    pub iters: u64,
    /// Simulated-cycle accounting (see [`crate::model`]).
    pub sim: SimCost,
}

/// Per-worker runtime: output buffered per iteration; the checks keep the
/// trait's inert defaults (static analysis proved the loop independent).
#[derive(Debug, Default)]
struct PlainWorkerRt {
    io: Vec<(i64, Vec<u8>)>,
    cur_iter: i64,
}

impl RuntimeIface for PlainWorkerRt {
    fn h_alloc(&mut self, heap: Heap, _size: u64) -> Result<u64, Trap> {
        Err(Trap::Internal(format!(
            "heap `{heap}` allocation in an unchecked DOALL region"
        )))
    }

    fn h_free(&mut self, heap: Heap, _addr: u64) -> Result<(), Trap> {
        Err(Trap::Internal(format!(
            "heap `{heap}` free in an unchecked DOALL region"
        )))
    }

    fn output(&mut self, bytes: &[u8]) {
        match self.io.last_mut() {
            Some((i, buf)) if *i == self.cur_iter => buf.extend_from_slice(bytes),
            _ => self.io.push((self.cur_iter, bytes.to_vec())),
        }
    }
}

/// The main runtime for DOALL-only execution: `parallel_invoke` runs the
/// plan's body unchecked across workers.
#[derive(Debug)]
pub struct UncheckedDoallRuntime {
    /// Worker count.
    pub workers: usize,
    /// Statistics.
    pub stats: SimpleStats,
    out: Vec<u8>,
}

impl UncheckedDoallRuntime {
    /// Build for `workers` workers.
    pub fn new(_image: &ProgramImage, workers: usize) -> UncheckedDoallRuntime {
        UncheckedDoallRuntime {
            workers: workers.max(1),
            stats: SimpleStats::default(),
            out: Vec::new(),
        }
    }

    /// Take the output bytes.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }
}

/// The address ranges the merge considers (globals and the general
/// `malloc` region — unchecked DOALL loops may not allocate, so nothing
/// else can change).
fn merge_ranges() -> [(u64, u64); 2] {
    [
        (GLOBAL_BASE, STACK_BASE),
        (MALLOC_BASE, MALLOC_BASE + (1 << 40)),
    ]
}

impl RuntimeIface for UncheckedDoallRuntime {
    fn h_alloc(&mut self, heap: Heap, _size: u64) -> Result<u64, Trap> {
        Err(Trap::Internal(format!(
            "logical heap `{heap}` unused by the DOALL-only baseline"
        )))
    }

    fn h_free(&mut self, heap: Heap, _addr: u64) -> Result<(), Trap> {
        Err(Trap::Internal(format!(
            "logical heap `{heap}` unused by the DOALL-only baseline"
        )))
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
        if hi <= lo {
            return Ok(());
        }
        self.stats.invocations += 1;
        self.stats.iters += (hi - lo) as u64;
        let w_count = self.workers;
        let base = mem.fork();

        type WorkerResult = Result<(AddressSpace, Vec<(i64, Vec<u8>)>, u64), Trap>;
        let results: Vec<WorkerResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..w_count)
                .map(|w| {
                    let worker_mem = base.fork();
                    scope.spawn(move || {
                        let rt = PlainWorkerRt::default();
                        let mut interp =
                            Interp::with_code(module, Arc::clone(code), worker_mem, NopHooks, rt);
                        let mut iter = lo + w as i64;
                        while iter < hi {
                            interp.rt.cur_iter = iter;
                            interp.call_function(plan.body, &[Val::Int(iter)])?;
                            iter += w_count as i64;
                        }
                        let io = std::mem::take(&mut interp.rt.io);
                        Ok((interp.mem, io, interp.stats.insts))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let mut worker_mems = Vec::with_capacity(w_count);
        let mut io: Vec<(i64, Vec<u8>)> = Vec::new();
        let mut max_busy = 0u64;
        for r in results {
            let (wmem, wio, insts) = r?;
            self.stats.sim.useful += insts;
            max_busy = max_busy.max(insts);
            worker_mems.push(wmem);
            io.extend(wio);
        }
        io.sort_by_key(|&(i, _)| i);
        for (_, bytes) in io {
            self.out.extend(bytes);
        }

        // Three-way page merge: a byte changed by some worker wins; static
        // legality guarantees at most one worker changed it.
        let mut merged_pages = 0u64;
        for (lo_a, hi_a) in merge_ranges() {
            let base_pages: std::collections::HashMap<u64, Arc<privateer_vm::Page>> =
                base.pages_in_range(lo_a, hi_a).into_iter().collect();
            let zero = [0u8; PAGE_SIZE as usize];
            // Collect dirty page addresses across workers.
            let mut dirty: std::collections::BTreeMap<u64, Vec<&Arc<privateer_vm::Page>>> =
                std::collections::BTreeMap::new();
            let worker_pages: Vec<Vec<(u64, Arc<privateer_vm::Page>)>> = worker_mems
                .iter()
                .map(|m| m.pages_in_range(lo_a, hi_a))
                .collect();
            for pages in &worker_pages {
                for (addr, page) in pages {
                    let unchanged = base_pages.get(addr).is_some_and(|bp| Arc::ptr_eq(bp, page));
                    if !unchanged {
                        dirty.entry(*addr).or_default().push(page);
                    }
                }
            }
            for (addr, versions) in dirty {
                merged_pages += versions.len() as u64;
                let base_bytes: &privateer_vm::Page =
                    base_pages.get(&addr).map(|p| &**p).unwrap_or(&zero);
                let mut merged = *base_bytes;
                for v in versions {
                    for (i, (&b, &w)) in base_bytes.iter().zip(v.iter()).enumerate() {
                        if w != b {
                            merged[i] = w;
                        }
                    }
                }
                mem.install_page(addr, Arc::new(merged));
            }
        }
        let span_sim = model::SPAWN_BASE
            + model::SPAWN_PER_WORKER * w_count as u64
            + max_busy
            + merged_pages * model::MERGE_PAGE;
        self.stats.sim.total += span_sim;
        self.stats.sim.capacity += span_sim * w_count as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privateer_ir::builder::FunctionBuilder;
    use privateer_ir::{Intrinsic, Type, Value};
    use privateer_vm::load_module;

    /// body(i): table[i] = i*i  — provably disjoint writes.
    fn build() -> Module {
        let mut m = Module::new("doall");
        let table = m.add_global("table", 8 * 64);
        let mut b = FunctionBuilder::new("body", vec![Type::I64], None);
        let i = b.param(0);
        let sq = b.mul(Type::I64, i, i);
        let slot = b.gep(Value::Global(table), i, 8, 0);
        b.store(Type::I64, sq, slot);
        b.ret(None);
        let body = m.add_function(b.finish());
        m.plans.push(PlanEntry {
            body,
            recovery: body,
        });
        let mut b = FunctionBuilder::new("main", vec![], None);
        b.intrinsic(
            Intrinsic::ParallelInvoke(0),
            vec![Value::const_i64(0), Value::const_i64(64)],
        );
        let s = b.gep(Value::Global(table), Value::const_i64(63), 8, 0);
        let v = b.load(Type::I64, s);
        b.print_i64(v);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn disjoint_writes_merge_correctly() {
        let m = build();
        let image = load_module(&m);
        for workers in [1, 2, 5] {
            let mut interp = Interp::new(
                &m,
                &image,
                NopHooks,
                UncheckedDoallRuntime::new(&image, workers),
            );
            interp.run_main().unwrap();
            assert_eq!(interp.rt.take_output(), b"3969\n", "workers = {workers}");
            // Spot-check the whole table.
            let table = image.global_addrs[0];
            for i in 0..64u64 {
                assert_eq!(interp.mem.read_i64(table + i * 8), (i * i) as i64);
            }
        }
    }

    #[test]
    fn deferred_output_in_iteration_order() {
        let mut m = Module::new("io");
        let mut b = FunctionBuilder::new("body", vec![Type::I64], None);
        let i = b.param(0);
        b.print_i64(i);
        b.ret(None);
        let body = m.add_function(b.finish());
        m.plans.push(PlanEntry {
            body,
            recovery: body,
        });
        let mut b = FunctionBuilder::new("main", vec![], None);
        b.intrinsic(
            Intrinsic::ParallelInvoke(0),
            vec![Value::const_i64(0), Value::const_i64(10)],
        );
        b.ret(None);
        m.add_function(b.finish());
        let image = load_module(&m);
        let mut interp = Interp::new(&m, &image, NopHooks, UncheckedDoallRuntime::new(&image, 3));
        interp.run_main().unwrap();
        let expect: Vec<u8> = (0..10)
            .flat_map(|i| format!("{i}\n").into_bytes())
            .collect();
        assert_eq!(interp.rt.take_output(), expect);
    }
}
