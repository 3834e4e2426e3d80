//! Golden counts: the exact `InterpStats` and output of every evaluated
//! program at `Scale::Train`, for the original program under
//! `BasicRuntime::strict` and for the transformed program under
//! `SequentialPlanRuntime`.
//!
//! The transformed program's counts are `main`'s plus its parallel
//! regions': the sequential runtime runs each region's recovery body in an
//! interpreter of its own and keeps that interpreter's counts. The
//! simulated-cycle figures are built from these instruction counts, so
//! any change to how the interpreter counts shows here first. The output
//! is pinned twice: it must equal the native reference output, and its
//! FNV-1a hash and length are pinned too.

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_bench::{workloads, Scale};
use privateer_runtime::SequentialPlanRuntime;
use privateer_vm::{load_module, BasicRuntime, Interp, InterpStats, NopHooks};

/// `(workload, original, transformed, output length, output FNV-1a)`,
/// each `InterpStats` as `[insts, loads, stores]`.
type Row = (&'static str, [u64; 3], [u64; 3], usize, u64);

const GOLDEN: [Row; 5] = [
    (
        "052.alvinn",
        [1110495, 185862, 84490],
        [1110253, 185862, 84490],
        72,
        0x6e7350fb373548c4,
    ),
    (
        "dijkstra",
        [277791, 45029, 7765],
        [286150, 45029, 7765],
        49,
        0x7585d9c733b95320,
    ),
    (
        "blackscholes",
        [122138, 10370, 2626],
        [122122, 10370, 2626],
        12,
        0xcc8124cc8e00475d,
    ),
    (
        "swaptions",
        [99510, 5905, 5641],
        [99490, 5905, 5641],
        154,
        0xbf40498cdf7824c6,
    ),
    (
        "enc-md5",
        [455881, 28960, 8040],
        [455845, 28960, 8040],
        1704,
        0xe421670a4ba8bbc9,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn row(s: InterpStats) -> [u64; 3] {
    [s.insts, s.loads, s.stores]
}

#[test]
fn train_scale_counts_and_outputs_are_pinned() {
    let mut got = Vec::new();
    for w in workloads() {
        let m = w.build(Scale::Train);
        let expected = w.reference(Scale::Train);

        let image = load_module(&m);
        let mut orig = Interp::new(&m, &image, NopHooks, BasicRuntime::strict());
        orig.run_main().unwrap();
        let out = orig.rt.take_output();
        assert_eq!(out, expected, "[{}] original output", w.name);

        let result = privatize(&m, &PipelineConfig::default()).unwrap();
        let tm = &result.module;
        let timage = load_module(tm);
        let mut seq = Interp::new(tm, &timage, NopHooks, SequentialPlanRuntime::new(&timage));
        seq.run_main().unwrap();
        let tout = seq.rt.take_output();
        let mut transformed = seq.stats;
        transformed += seq.rt.regions;
        assert_eq!(tout, expected, "[{}] transformed output", w.name);

        got.push((
            w.name,
            row(orig.stats),
            row(transformed),
            out.len(),
            fnv1a(&out),
        ));
    }
    assert_eq!(got, GOLDEN);
}
