//! Watch the Figure 5 timeline: checkpoints commit, a misspeculation is
//! detected, the engine recovers sequentially and resumes parallel
//! execution — with the program's output still byte-identical.
//!
//! Run with: `cargo run --release -p privateer-bench --example misspec_recovery`

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_runtime::{EngineConfig, EngineEvent, MainRuntime};
use privateer_vm::{load_module, Interp, NopHooks};
use privateer_workloads::md5;

fn main() {
    let params = md5::Params {
        messages: 48,
        msg_len: 80,
        seed: 17,
    };
    let module = md5::build(&params);
    let expected = md5::reference_output(&params);

    let result = privatize(&module, &PipelineConfig::default()).unwrap();
    let image = load_module(&result.module);
    let cfg = EngineConfig {
        workers: 4,
        checkpoint_period: 8,
        inject_rate: 0.08, // force misspeculations
        inject_seed: 1234,
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
        expected,
        "output survives recovery"
    );

    println!("execution timeline (cf. the paper's Figure 5):");
    for event in &interp.rt.events {
        match &event.event {
            EngineEvent::Invoke { lo, hi } => {
                println!("  invoke parallel region over iterations {lo}..{hi}")
            }
            EngineEvent::CheckpointCommitted { period, base, end } => {
                println!("    checkpoint {period} committed (iterations {base}..{end})")
            }
            EngineEvent::MisspecDetected { iter, kind } => {
                println!("    !! misspeculation ({kind}) at iteration {iter}")
            }
            EngineEvent::Recovery { from, through } => {
                println!("    sequential recovery of iterations {from}..={through}")
            }
            EngineEvent::ParallelResumed { at } => {
                println!("    parallel execution resumed at {at}")
            }
            EngineEvent::InvokeDone => println!("  invocation complete"),
        }
    }
    println!(
        "\n{} misspeculations, {} iterations re-executed sequentially, output identical.",
        interp.rt.stats.misspecs, interp.rt.stats.recovered_iters
    );
}
