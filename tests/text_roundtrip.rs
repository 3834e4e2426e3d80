//! Every evaluated workload survives the full textual round trip: print →
//! parse → pipeline → parallel execution, with output identical to the
//! in-memory path (the `emit_ir | privc` flow, as a test).

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_bench::{workloads, Scale};
use privateer_ir::{parser, printer};
use privateer_runtime::{EngineConfig, MainRuntime};
use privateer_vm::{load_module, Interp, NopHooks};

#[test]
fn workloads_round_trip_through_text() {
    for wl in workloads() {
        let module = wl.build(Scale::Train);
        let text = printer::print_module(&module);
        let reparsed =
            parser::parse(&text).unwrap_or_else(|e| panic!("[{}] reparse failed: {e}", wl.name));
        assert_eq!(
            printer::print_module(&reparsed),
            text,
            "[{}] print/parse/print not stable",
            wl.name
        );
        privateer_ir::verify::verify_module(&reparsed).unwrap();

        // The reparsed module goes through the whole pipeline and runs.
        let result = privatize(&reparsed, &PipelineConfig::default())
            .unwrap_or_else(|e| panic!("[{}] pipeline on reparsed module: {e}", wl.name));
        assert_eq!(
            result.reports.len(),
            1,
            "[{}] {:?}",
            wl.name,
            result.rejected
        );
        let image = load_module(&result.module);
        let cfg = EngineConfig {
            workers: 3,
            checkpoint_period: 8,
            inject_rate: 0.0,
            inject_seed: 0,
        };
        let mut interp = Interp::new(
            &result.module,
            &image,
            NopHooks,
            MainRuntime::new(&image, cfg),
        );
        interp.run_main().unwrap();
        assert_eq!(
            interp.rt.take_output(),
            wl.reference(Scale::Train),
            "[{}] output diverged after the text round trip",
            wl.name
        );
    }
}

#[test]
fn transformed_modules_round_trip_through_text() {
    // The *transformed* module — checks, plans, heap-placed globals —
    // also prints, reparses, and runs identically.
    for wl in workloads().into_iter().take(2) {
        let module = wl.build(Scale::Train);
        let result = privatize(&module, &PipelineConfig::default()).unwrap();
        let text = printer::print_module(&result.module);
        let reparsed = parser::parse(&text)
            .unwrap_or_else(|e| panic!("[{}] reparse of transformed module failed: {e}", wl.name));
        assert_eq!(printer::print_module(&reparsed), text, "[{}]", wl.name);
        assert_eq!(reparsed.plans.len(), result.module.plans.len());

        let image = load_module(&reparsed);
        let cfg = EngineConfig {
            workers: 2,
            checkpoint_period: 8,
            inject_rate: 0.0,
            inject_seed: 0,
        };
        let mut interp = Interp::new(&reparsed, &image, NopHooks, MainRuntime::new(&image, cfg));
        interp.run_main().unwrap();
        assert_eq!(
            interp.rt.take_output(),
            wl.reference(Scale::Train),
            "[{}] transformed text round trip diverged",
            wl.name
        );
    }
}
