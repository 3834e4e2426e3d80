//! Property-based soundness and precision tests for the privacy
//! validation machinery: the Table 2 metadata transitions, checkpoint
//! merging, the allocators and the injection hash.

use privateer_ir::Heap;
use privateer_runtime::checkpoint::{collect_contribution, CheckpointMerge};
use privateer_runtime::shadow::{self, Access};
use privateer_runtime::worker::{injected_at, WorkerRuntime};
use privateer_vm::{AddressSpace, RegionAllocator, RuntimeIface, Trap};
use proptest::prelude::*;

/// Shadow metadata bytes weighted toward the interesting Table 2 codes
/// (plus fully arbitrary bytes for good measure).
fn meta_strategy() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(shadow::LIVE_IN),
        Just(shadow::LIVE_IN),
        Just(shadow::OLD_WRITE),
        Just(shadow::READ_LIVE_IN),
        (0u64..shadow::MAX_PERIOD).prop_map(shadow::ts_code),
        any::<u8>(),
    ]
}

/// A random trace of private accesses to a handful of bytes across
/// iterations.
#[derive(Debug, Clone)]
struct Op {
    iter: u64,
    addr_slot: usize,
    is_write: bool,
}

fn op_strategy(iters: u64, slots: usize) -> impl Strategy<Value = Op> {
    (0..iters, 0..slots, any::<bool>()).prop_map(|(iter, addr_slot, is_write)| Op {
        iter,
        addr_slot,
        is_write,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Phase-1 soundness: for any single-worker access trace (replayed in
    /// iteration order), the shadow transitions trap **iff** the trace has
    /// a cross-iteration flow dependence or the conservative
    /// write-after-read-live-in pattern.
    #[test]
    fn table2_matches_oracle(mut ops in prop::collection::vec(op_strategy(8, 4), 0..40)) {
        ops.sort_by_key(|o| o.iter);

        // Oracle over the reference semantics.
        #[derive(Clone, Copy, PartialEq)]
        enum Ref { LiveIn, ReadLiveIn, Written(u64) }
        let mut oracle: Vec<Ref> = vec![Ref::LiveIn; 4];
        let mut oracle_trap = false;
        for op in &ops {
            let slot = &mut oracle[op.addr_slot];
            if op.is_write {
                match *slot {
                    Ref::ReadLiveIn => { oracle_trap = true; break; } // conservative
                    _ => *slot = Ref::Written(op.iter),
                }
            } else {
                match *slot {
                    Ref::LiveIn | Ref::ReadLiveIn => *slot = Ref::ReadLiveIn,
                    Ref::Written(w) if w == op.iter => {}
                    Ref::Written(_) => { oracle_trap = true; break; } // cross-iteration flow
                }
            }
        }

        // The implementation.
        let mut rt = WorkerRuntime::new(0, 0.0, 0);
        let mut mem = AddressSpace::new();
        let base = Heap::Private.base() + 0x1000;
        let mut cur_iter = u64::MAX;
        let mut impl_trap = false;
        for op in &ops {
            if op.iter != cur_iter {
                cur_iter = op.iter;
                rt.begin_iteration(op.iter as i64, op.iter).unwrap();
            }
            let addr = base + op.addr_slot as u64;
            let r = if op.is_write {
                rt.private_write(addr, 1, &mut mem)
            } else {
                rt.private_read(addr, 1, &mut mem)
            };
            if r.is_err() {
                impl_trap = true;
                break;
            }
        }
        prop_assert_eq!(impl_trap, oracle_trap);
    }

    /// The word-granular (SWAR) `private_read`/`private_write` path is
    /// observationally identical to the per-byte reference
    /// `private_access_bytewise`: byte-identical shadow state over the
    /// whole shadow heap and the identical `Trap` (kind *and* message),
    /// across random metadata, sizes 1–64, unaligned bases, and spans
    /// crossing a page boundary.
    #[test]
    fn word_path_equals_bytewise(
        meta in prop::collection::vec(meta_strategy(), 80),
        off in 0u64..5000,
        size in 1u64..=64,
        is_write in any::<bool>(),
        n in 0u64..shadow::MAX_PERIOD,
    ) {
        // Page boundary of the shadow heap falls at off == 0x1000.
        let addr = Heap::Private.base() + 0x3000 + off;
        let access = if is_write { Access::Write } else { Access::Read };

        let mut rt_word = WorkerRuntime::new(0, 0.0, 0);
        let mut rt_ref = WorkerRuntime::new(0, 0.0, 0);
        rt_word.begin_iteration(0, n).unwrap();
        rt_ref.begin_iteration(0, n).unwrap();

        // Identically seeded shadow state: the accessed span plus an
        // 8-byte margin on each side (which must come out untouched).
        let mut mem_word = AddressSpace::new();
        let mut mem_ref = AddressSpace::new();
        let seeded = &meta[..(size + 16) as usize];
        mem_word.write_bytes((addr - 8) | privateer_ir::inst::SHADOW_BIT, seeded);
        mem_ref.write_bytes((addr - 8) | privateer_ir::inst::SHADOW_BIT, seeded);

        let r_word = match access {
            Access::Write => rt_word.private_write(addr, size, &mut mem_word),
            Access::Read => rt_word.private_read(addr, size, &mut mem_word),
        };
        let r_ref = rt_ref.private_access_bytewise(access, addr, size, &mut mem_ref);
        prop_assert_eq!(&r_word, &r_ref);

        let lo = Heap::Private.base() | privateer_ir::inst::SHADOW_BIT;
        let hi = lo + privateer_runtime::heaps::HEAP_SPAN;
        prop_assert!(mem_word.range_eq(&mem_ref, lo, hi), "shadow state diverged");
    }

    /// Same equivalence over multi-access traces spanning several
    /// iterations and checkpoints: overlapping spans accumulate mixed
    /// metadata words, and both implementations must walk through the
    /// identical sequence of states and stop at the identical trap.
    #[test]
    fn word_path_equals_bytewise_traces(
        ops in prop::collection::vec(
            (0u64..6, 0u64..200, 1u64..=64, any::<bool>()),
            1..24,
        ),
    ) {
        let base = Heap::Private.base() + 0x7fe0; // spans cross a page boundary
        let mut rt_word = WorkerRuntime::new(0, 0.0, 0);
        let mut rt_ref = WorkerRuntime::new(0, 0.0, 0);
        let mut mem_word = AddressSpace::new();
        let mut mem_ref = AddressSpace::new();
        let mut sorted = ops;
        sorted.sort_by_key(|&(iter, ..)| iter);
        let mut cur = u64::MAX;
        for &(iter, off, size, is_write) in &sorted {
            if iter != cur {
                cur = iter;
                rt_word.begin_iteration(iter as i64, iter).unwrap();
                rt_ref.begin_iteration(iter as i64, iter).unwrap();
            }
            let addr = base + off;
            let access = if is_write { Access::Write } else { Access::Read };
            let r_word = match access {
                Access::Write => rt_word.private_write(addr, size, &mut mem_word),
                Access::Read => rt_word.private_read(addr, size, &mut mem_word),
            };
            let r_ref = rt_ref.private_access_bytewise(access, addr, size, &mut mem_ref);
            prop_assert_eq!(&r_word, &r_ref);
            let lo = Heap::Private.base() | privateer_ir::inst::SHADOW_BIT;
            let hi = lo + privateer_runtime::heaps::HEAP_SPAN;
            prop_assert!(mem_word.range_eq(&mem_ref, lo, hi), "shadow state diverged");
            if r_word.is_err() {
                break; // both trapped identically; the iteration squashes
            }
        }
        // Normalization must agree too (word-granular on both sides, but
        // against states produced by the two different access paths).
        WorkerRuntime::normalize_shadow(&mut mem_word);
        WorkerRuntime::normalize_shadow(&mut mem_ref);
        let lo = Heap::Private.base() | privateer_ir::inst::SHADOW_BIT;
        let hi = lo + privateer_runtime::heaps::HEAP_SPAN;
        prop_assert!(mem_word.range_eq(&mem_ref, lo, hi), "normalized state diverged");
    }

    /// Normalization is idempotent and never manufactures timestamps.
    #[test]
    fn normalize_idempotent(meta in any::<u8>()) {
        let once = shadow::normalize(meta);
        prop_assert_eq!(shadow::normalize(once), once);
        prop_assert!(once <= shadow::READ_LIVE_IN);
        prop_assert_ne!(once, shadow::READ_LIVE_IN);
    }

    /// Transitions never *lower* a current-iteration timestamp and reads
    /// never invent writes.
    #[test]
    fn transition_monotonicity(before in 0u8..=255, n in 0u64..253) {
        let cur = shadow::ts_code(n);
        if let Ok(after) = shadow::transition(Access::Read, before, cur) {
            // A read leaves the byte live-in-ish or at its own timestamp.
            prop_assert!(after == shadow::READ_LIVE_IN || after == before);
        }
        if let Ok(after) = shadow::transition(Access::Write, before, cur) {
            prop_assert_eq!(after, cur);
        }
    }

    /// Checkpoint merging commits the sequentially-latest write per byte,
    /// regardless of the order contributions arrive.
    #[test]
    fn merge_commits_latest_write(
        writes in prop::collection::vec((0usize..4, 0u64..12, any::<u8>()), 1..24),
        shuffle_seed in any::<u64>(),
    ) {
        // Partition iterations cyclically over 4 workers; each write
        // (slot, iter, value) lands on worker iter % 4.
        let base = Heap::Private.base() + 0x2000;
        let mut rts: Vec<WorkerRuntime> = (0..4).map(|w| WorkerRuntime::new(w, 0.0, 0)).collect();
        let mut mems: Vec<AddressSpace> = (0..4).map(|_| AddressSpace::new()).collect();

        // Oracle: last write per slot by iteration order (ties: the entry
        // appearing later in the list, mirroring program order).
        let mut oracle: [Option<(u64, u8)>; 4] = [None; 4];
        let mut sorted = writes.clone();
        sorted.sort_by_key(|&(_, iter, _)| iter);
        for &(slot, iter, val) in &sorted {
            match oracle[slot] {
                Some((w, _)) if w > iter => {}
                _ => oracle[slot] = Some((iter, val)),
            }
        }

        // Replay: group writes per worker in iteration order.
        let mut by_worker: Vec<Vec<(usize, u64, u8)>> = vec![Vec::new(); 4];
        for &(slot, iter, val) in &sorted {
            by_worker[(iter % 4) as usize].push((slot, iter, val));
        }
        for (w, ops) in by_worker.iter().enumerate() {
            let mut cur = u64::MAX;
            for &(slot, iter, val) in ops {
                if iter != cur {
                    cur = iter;
                    rts[w].begin_iteration(iter as i64, iter).unwrap();
                }
                let addr = base + slot as u64;
                rts[w].private_write(addr, 1, &mut mems[w]).unwrap();
                mems[w].write_u8(addr, val);
            }
        }

        // Contribute in a shuffled order.
        let mut order: Vec<usize> = (0..4).collect();
        let mut s = shuffle_seed;
        for i in (1..4).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut committed = AddressSpace::new();
        let mut merge = CheckpointMerge::new(0);
        for &w in &order {
            let contrib = collect_contribution(w, 0, &mems[w], &[], vec![]);
            merge.add(contrib, &committed).unwrap();
        }
        merge.commit(&mut committed);

        for (slot, expect) in oracle.iter().enumerate() {
            if let Some((_, val)) = expect {
                prop_assert_eq!(committed.read_u8(base + slot as u64), *val);
            }
        }
    }

    /// The region allocator never hands out overlapping live blocks and
    /// always returns addresses inside its range.
    #[test]
    fn allocator_no_overlap(sizes in prop::collection::vec(1u64..200, 1..40)) {
        let mut a = RegionAllocator::new(0x10_000, 0x100_000);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (i, &sz) in sizes.iter().enumerate() {
            let p = a.alloc(sz).unwrap();
            prop_assert!(p >= 0x10_000 && p + sz <= 0x100_000);
            for &(q, qs) in &live {
                prop_assert!(p + sz <= q || q + qs <= p, "overlap {p:#x}+{sz} vs {q:#x}+{qs}");
            }
            live.push((p, sz));
            // Free every third block to exercise reuse.
            if i % 3 == 2 {
                let (q, _) = live.remove(0);
                a.free(q).unwrap();
            }
        }
    }

    /// Injection is a pure function of (rate, seed, iteration).
    #[test]
    fn injection_deterministic(rate in 0.0f64..1.0, seed in any::<u64>(), iter in 0i64..100_000) {
        prop_assert_eq!(injected_at(rate, seed, iter), injected_at(rate, seed, iter));
        prop_assert!(!injected_at(0.0, seed, iter));
    }

    /// Worker lifetime validation: allocations exactly balanced by frees
    /// pass; any imbalance traps at the end of the iteration.
    #[test]
    fn shortlived_balance(allocs in 1usize..8, frees_short in 0usize..8) {
        let frees = frees_short.min(allocs);
        let mut rt = WorkerRuntime::new(0, 0.0, 0);
        rt.begin_iteration(0, 0).unwrap();
        let ptrs: Vec<u64> = (0..allocs)
            .map(|_| rt.h_alloc(Heap::ShortLived, 16).unwrap())
            .collect();
        for &p in ptrs.iter().take(frees) {
            rt.h_free(Heap::ShortLived, p).unwrap();
        }
        let end = rt.end_iteration();
        if frees == allocs {
            prop_assert!(end.is_ok());
        } else {
            prop_assert!(matches!(end, Err(Trap::Misspec(_))));
        }
    }
}
