//! The paper's headline flow, end to end and fully automatic: profile the
//! dijkstra kernel, classify its objects (Figure 4's heap assignment),
//! apply speculative privatization with value prediction, and run it in
//! parallel — output must match the sequential original.

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_ir::Heap;
use privateer_runtime::{EngineConfig, MainRuntime, SequentialPlanRuntime};
use privateer_vm::{load_module, Interp, NopHooks};
use privateer_workloads::dijkstra;

fn params() -> dijkstra::Params {
    dijkstra::Params { n: 16, seed: 5 }
}

#[test]
fn dijkstra_privatizes_and_parallelizes() {
    let p = params();
    let m = dijkstra::build(&p);
    let expected = dijkstra::reference_output(&p);

    let result = privatize(&m, &PipelineConfig::default())
        .unwrap_or_else(|e| panic!("pipeline failed: {e}"));
    assert_eq!(
        result.reports.len(),
        1,
        "the hot outer loop must be selected; rejected: {:?}",
        result.rejected
    );
    let report = &result.reports[0];
    assert_eq!(report.function, "main");
    assert!(report.value_predicted, "Q head/tail need value prediction");
    assert!(report.does_io, "the loop prints (deferred I/O)");

    // The Figure 4 heap assignment: pathcost & Q private, adj read-only,
    // list nodes short-lived, nothing unrestricted.
    let [ro, privates, redux, short, unres] = report.heap_counts;
    assert_eq!(ro, 1, "adj is read-only");
    assert_eq!(privates, 2, "Q and pathcost are private");
    assert_eq!(redux, 0);
    assert!(short >= 1, "list nodes are short-lived");
    assert_eq!(unres, 0);

    // Globals were retargeted.
    let tm = &result.module;
    let q = tm.global_by_name("Q").unwrap();
    let pathcost = tm.global_by_name("pathcost").unwrap();
    let adj = tm.global_by_name("adj").unwrap();
    assert_eq!(tm.global(q).heap, Some(Heap::Private));
    assert_eq!(tm.global(pathcost).heap, Some(Heap::Private));
    assert_eq!(tm.global(adj).heap, Some(Heap::ReadOnly));

    // Sequential execution of the transformed module matches.
    let image = load_module(tm);
    let mut interp = Interp::new(tm, &image, NopHooks, SequentialPlanRuntime::new(&image));
    interp.run_main().unwrap();
    assert_eq!(
        interp.rt.take_output(),
        expected,
        "sequential transformed run diverged"
    );

    // Parallel execution matches, at several worker counts.
    for workers in [1, 2, 4] {
        let cfg = EngineConfig {
            workers,
            checkpoint_period: 4,
            inject_rate: 0.0,
            inject_seed: 1,
        };
        let mut interp = Interp::new(tm, &image, NopHooks, MainRuntime::new(&image, cfg));
        interp
            .run_main()
            .unwrap_or_else(|e| panic!("parallel run failed: {e}"));
        let out = interp.rt.take_output();
        assert_eq!(
            out,
            expected,
            "parallel output diverged at {workers} workers ({} misspecs: {:?})",
            interp.rt.stats.misspecs,
            interp
                .rt
                .events
                .iter()
                .filter(|e| matches!(
                    e.event,
                    privateer_runtime::EngineEvent::MisspecDetected { .. }
                ))
                .collect::<Vec<_>>()
        );
        assert_eq!(interp.rt.stats.misspecs, 0, "speculation must hold");
        assert!(interp.rt.stats.checkpoints > 0);
        assert!(interp.rt.stats.priv_read_bytes > 0);
        assert!(interp.rt.stats.priv_write_bytes > 0);
    }
}

#[test]
fn dijkstra_profile_is_input_stable() {
    // The paper notes profiling with a different input yields identical
    // code. Transform with the train input's profile, run on itself — and
    // the classification decisions must agree with a different seed's.
    let a = privatize(
        &dijkstra::build(&dijkstra::Params { n: 12, seed: 1 }),
        &PipelineConfig::default(),
    )
    .unwrap();
    let b = privatize(
        &dijkstra::build(&dijkstra::Params { n: 12, seed: 9 }),
        &PipelineConfig::default(),
    )
    .unwrap();
    assert_eq!(a.reports.len(), 1);
    assert_eq!(b.reports.len(), 1);
    assert_eq!(a.reports[0].heap_counts, b.reports[0].heap_counts);
    assert_eq!(a.reports[0].value_predicted, b.reports[0].value_predicted);
}

#[test]
fn dijkstra_parallel_with_injected_misspeculation() {
    let p = params();
    let m = dijkstra::build(&p);
    let expected = dijkstra::reference_output(&p);
    let result = privatize(&m, &PipelineConfig::default()).unwrap();
    let image = load_module(&result.module);
    let cfg = EngineConfig {
        workers: 4,
        checkpoint_period: 4,
        inject_rate: 0.25,
        inject_seed: 33,
    };
    let mut interp = Interp::new(
        &result.module,
        &image,
        NopHooks,
        MainRuntime::new(&image, cfg),
    );
    interp.run_main().unwrap();
    assert_eq!(interp.rt.take_output(), expected);
    assert!(interp.rt.stats.misspecs > 0);
    assert!(interp.rt.stats.recovered_iters > 0);
}
