//! End-to-end benchmarks: the compiler pipeline itself (profile +
//! classify + transform), the profiling run against plain interpretation,
//! and whole-program execution per configuration.
//! Wall-clock numbers here depend on the host's core count; the figure
//! binaries report host-independent simulated cycles instead.

use criterion::{criterion_group, criterion_main, Criterion};
use privateer::pipeline::{privatize, PipelineConfig};
use privateer_bench::{run_privateer, run_sequential, Scale};
use privateer_profile::profile_module;
use privateer_vm::{load_module, BasicRuntime, Interp, NopHooks};
use privateer_workloads::{alvinn, dijkstra};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let p = dijkstra::Params::train();
    let m = dijkstra::build(&p);
    c.bench_function("pipeline_privatize_dijkstra_train", |b| {
        b.iter(|| {
            let r = privatize(&m, &PipelineConfig::default()).unwrap();
            black_box(r.reports.len());
        });
    });
}

fn bench_execution(c: &mut Criterion) {
    let wl = &privateer_bench::workloads()[1]; // dijkstra
    let m = wl.build(Scale::Train);
    let mut group = c.benchmark_group("dijkstra_train_execution");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_sequential(&m).insts));
    });
    group.bench_function("privateer_4_workers", |b| {
        b.iter(|| black_box(run_privateer(&m, 4, 0.0).sim_time()));
    });
    group.finish();
}

/// The profiling run (§4.1) against plain interpretation of the same
/// program: their ratio is what profiling costs. The program is the
/// wall-clock benchmark's `alvinn-private` at its first seed.
fn bench_profile(c: &mut Criterion) {
    let m = alvinn::build(&alvinn::Params {
        inputs: 16,
        hidden: 10,
        outputs: 4,
        examples: 24,
        epochs: 8,
        seed: 1,
    });
    let image = load_module(&m);
    let mut group = c.benchmark_group("profile_alvinn");
    group.bench_function("interpret", |b| {
        b.iter(|| {
            let mut interp = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
            interp.run_main().unwrap();
            black_box(interp.stats.insts)
        });
    });
    group.bench_function("profile", |b| {
        b.iter(|| black_box(profile_module(&m, &image).unwrap().0.total_insts));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_execution, bench_profile);
criterion_main!(benches);
