//! Microbenchmarks of the runtime primitives the paper's overheads hinge
//! on: shadow-metadata transitions (the per-byte privacy check), COW page
//! forking (worker replication), checkpoint merging, and the supporting
//! data structures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use privateer_ir::Heap;
use privateer_profile::IntervalMap;
use privateer_runtime::checkpoint::{
    collect_contribution, CheckpointMerge, DeltaTracker, ReferenceCheckpointMerge,
};
use privateer_runtime::shadow::Access;
use privateer_runtime::worker::WorkerRuntime;
use privateer_vm::{AddressSpace, RegionAllocator, RuntimeIface};
use std::hint::black_box;

fn bench_shadow_transitions(c: &mut Criterion) {
    // The fast-phase privacy check: one Table 2 transition per byte.
    c.bench_function("privacy_check_64B_write_then_read", |b| {
        let addr = Heap::Private.base() + 0x4000;
        b.iter_batched(
            || (WorkerRuntime::new(0, 0.0, 0), AddressSpace::new()),
            |(mut rt, mut mem)| {
                rt.begin_iteration(0, 0).unwrap();
                rt.private_write(addr, 64, &mut mem).unwrap();
                rt.private_read(addr, 64, &mut mem).unwrap();
                black_box(mem.read_u8(addr));
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_private_write_validation(c: &mut Criterion) {
    // Steady-state `private_write` validation of a 64-byte aligned span
    // (the privatization "kill" pattern): the word-granular fast path
    // versus the per-byte reference it replaced. Shadow metadata is
    // pre-seeded old-write so both sides measure validation, not page
    // materialization.
    let addr = Heap::Private.base() + 0x4000;
    let setup = || {
        let mut rt = WorkerRuntime::new(0, 0.0, 0);
        let mut mem = AddressSpace::new();
        rt.begin_iteration(0, 0).unwrap();
        rt.private_write(addr, 64, &mut mem).unwrap();
        rt.end_iteration().unwrap();
        WorkerRuntime::normalize_shadow(&mut mem);
        rt.begin_iteration(1, 1).unwrap();
        (rt, mem)
    };
    let mut g = c.benchmark_group("private_write_validation_64B");
    g.bench_function("swar", |b| {
        let (mut rt, mut mem) = setup();
        b.iter(|| {
            rt.private_write(black_box(addr), 64, &mut mem).unwrap();
            black_box(&mem);
        });
    });
    g.bench_function("bytewise", |b| {
        let (mut rt, mut mem) = setup();
        b.iter(|| {
            rt.private_access_bytewise(Access::Write, black_box(addr), 64, &mut mem)
                .unwrap();
            black_box(&mem);
        });
    });
    g.finish();
}

fn bench_telemetry_disabled_overhead(c: &mut Criterion) {
    // The disabled-overhead contract (see docs/observability.md): a hot
    // `private_write` loop through the full `RuntimeIface` wrapper — whose
    // disabled `WorkerTelemetry` handle reduces to one predictable branch
    // per call — versus the same validation with the wrapper (timing,
    // counters, telemetry) compiled out of the loop entirely. The CI
    // `trace-smoke` job runs this group and enforces a < 3% budget on the
    // gap between `disabled` and `compiled_out`.
    let addr = Heap::Private.base() + 0x4000;
    let setup = || {
        let mut rt = WorkerRuntime::new(0, 0.0, 0);
        let mut mem = AddressSpace::new();
        rt.begin_iteration(0, 0).unwrap();
        rt.private_write(addr, 64, &mut mem).unwrap();
        rt.end_iteration().unwrap();
        WorkerRuntime::normalize_shadow(&mut mem);
        rt.begin_iteration(1, 1).unwrap();
        (rt, mem)
    };
    let mut g = c.benchmark_group("telemetry_disabled_overhead_64B");
    g.bench_function("disabled", |b| {
        let (mut rt, mut mem) = setup();
        b.iter(|| {
            rt.private_write(black_box(addr), 64, &mut mem).unwrap();
            black_box(&mem);
        });
    });
    g.bench_function("compiled_out", |b| {
        let (mut rt, mut mem) = setup();
        b.iter(|| {
            // The `private_write` wrapper body with only the telemetry
            // call removed — identical timing and stats accounting — so
            // the pair isolates exactly what a disabled handle adds.
            let t0 = std::time::Instant::now();
            let r = rt.private_access(Access::Write, black_box(addr), 64, &mut mem);
            rt.stats.priv_write_ns += t0.elapsed().as_nanos() as u64;
            rt.stats.priv_write_bytes += 64;
            rt.stats.priv_write_calls += 1;
            r.unwrap();
            black_box(&mem);
        });
    });
    g.finish();
}

fn bench_cow_fork(c: &mut Criterion) {
    // Worker replication: fork a populated space, then dirty one page.
    let mut parent = AddressSpace::new();
    for p in 0..256u64 {
        parent.write_u64(Heap::Private.base() + p * 4096, p);
    }
    c.bench_function("cow_fork_256_pages_dirty_1", |b| {
        b.iter(|| {
            let mut child = parent.fork();
            child.write_u64(Heap::Private.base() + 42 * 4096, 7);
            black_box(child.page_count());
        });
    });
}

fn bench_checkpoint_merge(c: &mut Criterion) {
    // One worker's contribution of 16 written pages merged and committed.
    c.bench_function("checkpoint_merge_16_pages", |b| {
        b.iter_batched(
            || {
                let mut rt = WorkerRuntime::new(0, 0.0, 0);
                let mut mem = AddressSpace::new();
                rt.begin_iteration(0, 0).unwrap();
                for p in 0..16u64 {
                    let a = Heap::Private.base() + 0x1000 + p * 4096;
                    rt.private_write(a, 256, &mut mem).unwrap();
                    mem.write_bytes(a, &[0xAB; 256]);
                }
                rt.end_iteration().unwrap();
                let contrib = collect_contribution(0, 0, &mem, &[], vec![]);
                (contrib, AddressSpace::new())
            },
            |(contrib, mut committed)| {
                let mut merge = CheckpointMerge::new(0);
                merge.add(contrib, &committed).unwrap();
                merge.commit(&mut committed);
                black_box(committed.page_count());
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_multi_period_checkpoint(c: &mut Criterion) {
    // The whole checkpoint path over a growing-footprint span: 8 periods,
    // each dirtying 16 *fresh* pages (256 bytes written per page), so the
    // cumulative footprint reaches 128 pages. The fast path — delta
    // contributions merged page-granularly — reships only the 16 pages
    // dirtied per period; the reference path reships the whole footprint
    // every period and merges through per-address hash containers, going
    // quadratic in span length.
    const PERIODS: u64 = 8;
    const PAGES_PER_PERIOD: u64 = 16;

    fn dirty_period(rt: &mut WorkerRuntime, mem: &mut AddressSpace, p: u64) {
        rt.begin_iteration(p as i64, 0).unwrap();
        for q in 0..PAGES_PER_PERIOD {
            let a = Heap::Private.base() + 0x1000 + (p * PAGES_PER_PERIOD + q) * 4096;
            rt.private_write(a, 256, mem).unwrap();
            mem.write_bytes(a, &[0xCD; 256]);
        }
        rt.end_iteration().unwrap();
    }

    let mut g = c.benchmark_group("multi_period_checkpoint_8x16_pages");
    g.bench_function("delta_dense", |b| {
        b.iter(|| {
            let mut rt = WorkerRuntime::new(0, 0.0, 0);
            let mut mem = AddressSpace::new();
            let mut tracker = DeltaTracker::new();
            let mut committed = AddressSpace::new();
            let mut shipped = 0usize;
            for p in 0..PERIODS {
                dirty_period(&mut rt, &mut mem, p);
                let contrib = tracker.collect(0, p, &mut mem, &[], vec![]);
                shipped += contrib.shadow_pages.len() + contrib.priv_pages.len();
                let mut merge = CheckpointMerge::new(0);
                merge.add(contrib, &committed).unwrap();
                merge.commit(&mut committed);
            }
            black_box(shipped);
        });
    });
    g.bench_function("cumulative_reference", |b| {
        b.iter(|| {
            let mut rt = WorkerRuntime::new(0, 0.0, 0);
            let mut mem = AddressSpace::new();
            let mut committed = AddressSpace::new();
            let mut shipped = 0usize;
            for p in 0..PERIODS {
                dirty_period(&mut rt, &mut mem, p);
                let contrib = collect_contribution(0, p, &mem, &[], vec![]);
                WorkerRuntime::normalize_shadow(&mut mem);
                shipped += contrib.shadow_pages.len() + contrib.priv_pages.len();
                let mut merge = ReferenceCheckpointMerge::new(0);
                merge.add(contrib, &committed).unwrap();
                merge.commit(&mut committed);
            }
            black_box(shipped);
        });
    });
    g.finish();
}

fn bench_interval_map(c: &mut Criterion) {
    // The pointer-to-object profiler's core structure.
    c.bench_function("interval_map_insert_query_1k", |b| {
        b.iter(|| {
            let mut m = IntervalMap::new();
            for i in 0..1000u64 {
                m.insert(i * 64, i * 64 + 48, i);
            }
            let mut hits = 0u64;
            for i in 0..1000u64 {
                if m.get(i * 64 + 16).is_some() {
                    hits += 1;
                }
            }
            black_box(hits);
        });
    });
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("region_allocator_alloc_free_1k", |b| {
        b.iter(|| {
            let mut a = RegionAllocator::new(0x1000, 0x100_0000);
            let ptrs: Vec<u64> = (0..1000).map(|_| a.alloc(48).unwrap()).collect();
            for p in ptrs {
                a.free(p).unwrap();
            }
            black_box(a.live_count);
        });
    });
}

criterion_group!(
    benches,
    bench_shadow_transitions,
    bench_private_write_validation,
    bench_telemetry_disabled_overhead,
    bench_cow_fork,
    bench_checkpoint_merge,
    bench_multi_period_checkpoint,
    bench_interval_map,
    bench_allocator
);
criterion_main!(benches);
