//! Whole-system integration: run every evaluated kernel through the full
//! Privateer pipeline and the speculative parallel engine; outputs must be
//! byte-identical to the native reference implementations.

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_ir::Module;
use privateer_runtime::{EngineConfig, MainRuntime, SequentialPlanRuntime};
use privateer_vm::{load_module, Interp, NopHooks};
use privateer_workloads::{alvinn, blackscholes, dijkstra, md5, swaptions};

struct Case {
    name: &'static str,
    module: Module,
    expected: Vec<u8>,
    /// Expected per-loop report properties: (value_predicted, does_io,
    /// redux_count).
    value_predicted: bool,
    does_io: bool,
    redux: usize,
}

fn cases() -> Vec<Case> {
    let d = dijkstra::Params { n: 14, seed: 2 };
    let b = blackscholes::Params {
        options: 24,
        runs: 6,
        seed: 3,
    };
    let s = swaptions::Params {
        swaptions: 12,
        trials: 6,
        steps: 8,
        seed: 4,
    };
    let a = alvinn::Params {
        inputs: 8,
        hidden: 6,
        outputs: 3,
        examples: 20,
        epochs: 4,
        seed: 5,
    };
    let m5 = md5::Params {
        messages: 10,
        msg_len: 90,
        seed: 6,
    };
    vec![
        Case {
            name: "dijkstra",
            module: dijkstra::build(&d),
            expected: dijkstra::reference_output(&d),
            value_predicted: true,
            does_io: true,
            redux: 0,
        },
        Case {
            name: "blackscholes",
            module: blackscholes::build(&b),
            expected: blackscholes::reference_output(&b),
            value_predicted: false,
            does_io: false,
            redux: 0,
        },
        Case {
            name: "swaptions",
            module: swaptions::build(&s),
            expected: swaptions::reference_output(&s),
            value_predicted: true,
            does_io: false,
            redux: 0,
        },
        Case {
            name: "alvinn",
            module: alvinn::build(&a),
            expected: alvinn::reference_output(&a),
            value_predicted: false,
            does_io: false,
            redux: 3,
        },
        Case {
            name: "enc-md5",
            module: md5::build(&m5),
            expected: md5::reference_output(&m5),
            value_predicted: false,
            does_io: true,
            redux: 0,
        },
    ]
}

#[test]
fn every_workload_is_privatized_and_parallelized_correctly() {
    for case in cases() {
        let result = privatize(&case.module, &PipelineConfig::default())
            .unwrap_or_else(|e| panic!("[{}] pipeline failed: {e}", case.name));
        assert_eq!(
            result.reports.len(),
            1,
            "[{}] expected one selected hot loop; rejected: {:?}",
            case.name,
            result.rejected
        );
        let report = &result.reports[0];
        assert_eq!(
            report.value_predicted, case.value_predicted,
            "[{}] value prediction mismatch",
            case.name
        );
        assert_eq!(report.does_io, case.does_io, "[{}] I/O mismatch", case.name);
        assert_eq!(
            report.heap_counts[2], case.redux,
            "[{}] reduction count mismatch (report: {report:?})",
            case.name
        );
        assert_eq!(
            report.heap_counts[4], 0,
            "[{}] unrestricted objects",
            case.name
        );

        let tm = &result.module;
        let image = load_module(tm);

        // Sequential semantics preserved.
        let mut interp = Interp::new(tm, &image, NopHooks, SequentialPlanRuntime::new(&image));
        interp.run_main().unwrap();
        assert_eq!(
            String::from_utf8_lossy(&interp.rt.take_output()),
            String::from_utf8_lossy(&case.expected),
            "[{}] sequential transformed output diverged",
            case.name
        );

        // Parallel execution, no misspeculation expected.
        for workers in [2, 4] {
            let cfg = EngineConfig {
                workers,
                checkpoint_period: 5,
                inject_rate: 0.0,
                inject_seed: 0,
            };
            let mut interp = Interp::new(tm, &image, NopHooks, MainRuntime::new(&image, cfg));
            interp
                .run_main()
                .unwrap_or_else(|e| panic!("[{}] parallel run failed: {e}", case.name));
            assert_eq!(
                String::from_utf8_lossy(&interp.rt.take_output()),
                String::from_utf8_lossy(&case.expected),
                "[{}] parallel output diverged at {workers} workers ({} misspecs)",
                case.name,
                interp.rt.stats.misspecs
            );
            assert_eq!(
                interp.rt.stats.misspecs, 0,
                "[{}] unexpected misspeculation",
                case.name
            );
        }
    }
}

#[test]
fn every_workload_survives_injected_misspeculation() {
    for case in cases() {
        let result = privatize(&case.module, &PipelineConfig::default()).unwrap();
        let image = load_module(&result.module);
        let cfg = EngineConfig {
            workers: 3,
            checkpoint_period: 4,
            inject_rate: 0.3,
            inject_seed: 99,
        };
        let mut interp = Interp::new(
            &result.module,
            &image,
            NopHooks,
            MainRuntime::new(&image, cfg),
        );
        interp.run_main().unwrap();
        assert_eq!(
            String::from_utf8_lossy(&interp.rt.take_output()),
            String::from_utf8_lossy(&case.expected),
            "[{}] diverged under injected misspeculation",
            case.name
        );
        assert!(
            interp.rt.stats.misspecs > 0,
            "[{}] injection produced no misspeculation",
            case.name
        );
    }
}

#[test]
fn doall_only_baseline_matches_where_applicable() {
    use privateer::baseline::doall_only;
    use privateer_runtime::UncheckedDoallRuntime;
    for case in cases() {
        let result = doall_only(&case.module);
        let image = load_module(&result.module);
        let mut interp = Interp::new(
            &result.module,
            &image,
            NopHooks,
            UncheckedDoallRuntime::new(&image, 4),
        );
        interp.run_main().unwrap_or_else(|e| {
            panic!(
                "[{}] DOALL-only run failed ({} loops): {e}",
                case.name,
                result.parallelized.len()
            )
        });
        assert_eq!(
            String::from_utf8_lossy(&interp.rt.take_output()),
            String::from_utf8_lossy(&case.expected),
            "[{}] DOALL-only output diverged",
            case.name
        );
        match case.name {
            // Static analysis finds the affine inner loops of these two...
            "blackscholes" | "alvinn" => assert!(
                !result.parallelized.is_empty(),
                "[{}] expected a provable inner loop",
                case.name
            ),
            // ...the trivial cost-table reset in dijkstra (the hot loop
            // itself is far beyond static analysis)...
            "dijkstra" => assert!(
                result.parallelized.len() <= 1,
                "[{}] only the init loop is provable, got {:?}",
                case.name,
                result.parallelized
            ),
            // ...and nothing in the other pointer-based programs (Fig. 7).
            _ => assert!(
                result.parallelized.is_empty(),
                "[{}] static analysis should fail here, got {:?}",
                case.name,
                result.parallelized
            ),
        }
    }
}

/// §6: "When we profile these with a third input, the compiler generates
/// identical code" — classification decisions are stable across input
/// seeds for every program.
#[test]
fn classification_is_stable_across_inputs() {
    use privateer_workloads::*;
    let pairs: Vec<(&str, Module, Module)> = vec![
        (
            "dijkstra",
            dijkstra::build(&dijkstra::Params { n: 14, seed: 100 }),
            dijkstra::build(&dijkstra::Params { n: 14, seed: 200 }),
        ),
        (
            "blackscholes",
            blackscholes::build(&blackscholes::Params {
                options: 24,
                runs: 6,
                seed: 100,
            }),
            blackscholes::build(&blackscholes::Params {
                options: 24,
                runs: 6,
                seed: 200,
            }),
        ),
        (
            "swaptions",
            swaptions::build(&swaptions::Params {
                swaptions: 12,
                trials: 6,
                steps: 8,
                seed: 100,
            }),
            swaptions::build(&swaptions::Params {
                swaptions: 12,
                trials: 6,
                steps: 8,
                seed: 200,
            }),
        ),
        (
            "alvinn",
            alvinn::build(&alvinn::Params {
                inputs: 8,
                hidden: 6,
                outputs: 3,
                examples: 20,
                epochs: 4,
                seed: 100,
            }),
            alvinn::build(&alvinn::Params {
                inputs: 8,
                hidden: 6,
                outputs: 3,
                examples: 20,
                epochs: 4,
                seed: 200,
            }),
        ),
        (
            "enc-md5",
            md5::build(&md5::Params {
                messages: 10,
                msg_len: 90,
                seed: 100,
            }),
            md5::build(&md5::Params {
                messages: 10,
                msg_len: 90,
                seed: 200,
            }),
        ),
    ];
    for (name, a, b) in pairs {
        let ra = privatize(&a, &PipelineConfig::default()).unwrap();
        let rb = privatize(&b, &PipelineConfig::default()).unwrap();
        assert_eq!(ra.reports.len(), rb.reports.len(), "[{name}]");
        for (x, y) in ra.reports.iter().zip(&rb.reports) {
            assert_eq!(x.heap_counts, y.heap_counts, "[{name}]");
            assert_eq!(x.value_predicted, y.value_predicted, "[{name}]");
            assert_eq!(x.does_io, y.does_io, "[{name}]");
        }
    }
}
