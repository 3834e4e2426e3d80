//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. checkpoint period (the paper's "collect checkpoints only after a
//!    large number of iterations" policy, §5.2) — with and without
//!    misspeculation;
//! 2. value prediction on/off (what §6.1 says dijkstra and swaptions
//!    need);
//! 3. control speculation on/off;
//! 4. compile-time separation-check elision (§4.5 "other checks are
//!    proved successful at compile time and are elided").

use privateer::pipeline::{privatize, PipelineConfig};
use privateer_bench::{outln, run_sequential, workloads, Scale};
use privateer_runtime::{EngineConfig, MainRuntime};
use privateer_vm::{load_module, Interp, NopHooks};

fn speedup_with(
    module: &privateer_ir::Module,
    seq_insts: u64,
    workers: usize,
    period: u64,
    inject: f64,
) -> f64 {
    let result = privatize(module, &PipelineConfig::default()).expect("pipeline");
    let image = load_module(&result.module);
    let cfg = EngineConfig {
        workers,
        checkpoint_period: period,
        inject_rate: inject,
        inject_seed: 0xab1,
    };
    let mut interp = Interp::new(
        &result.module,
        &image,
        NopHooks,
        MainRuntime::new(&image, cfg),
    );
    interp.run_main().expect("run");
    seq_insts as f64 / (interp.stats.insts + interp.rt.stats.sim.total) as f64
}

fn main() {
    outln!("Ablation 1 — checkpoint period (dijkstra, 8 workers)\n");
    outln!(
        "{:<10}{:>14}{:>22}",
        "period",
        "no misspec",
        "5% injected misspec"
    );
    let wl = &workloads()[1];
    let module = wl.build(Scale::Bench);
    let seq = run_sequential(&module);
    for period in [2u64, 4, 8, 16, 32, 64, 128] {
        let clean = speedup_with(&module, seq.insts, 8, period, 0.0);
        let dirty = speedup_with(&module, seq.insts, 8, period, 0.05);
        outln!("{period:<10}{clean:>13.2}x{dirty:>21.2}x");
    }
    outln!("\n  short periods pay merge overhead every few iterations; long");
    outln!("  periods discard more work per misspeculation (§5.2).\n");

    outln!("Ablation 2 — value prediction on/off (loops selected)\n");
    outln!("{:<14}{:>10}{:>10}", "program", "with VP", "without");
    for wl in workloads() {
        let module = wl.build(Scale::Train);
        let on = privatize(&module, &PipelineConfig::default()).unwrap();
        let off = privatize(
            &module,
            &PipelineConfig {
                enable_value_prediction: false,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        outln!(
            "{:<14}{:>10}{:>10}",
            wl.name,
            on.reports.len(),
            off.reports.len()
        );
    }
    outln!("\n  dijkstra and swaptions lose their hot loop without value");
    outln!("  prediction — the work-list/scratch-flag flow dependence blocks");
    outln!("  privatization (§6.1).\n");

    outln!("Ablation 3 — control speculation on/off (cold blocks removed)\n");
    outln!("{:<14}{:>10}{:>10}", "program", "with CS", "without");
    for wl in workloads() {
        let module = wl.build(Scale::Train);
        let on = privatize(&module, &PipelineConfig::default()).unwrap();
        let off = privatize(
            &module,
            &PipelineConfig {
                enable_control_speculation: false,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        let blocks = |r: &privateer::pipeline::Privatized| {
            r.reports
                .iter()
                .map(|x| x.control_spec_blocks)
                .sum::<usize>()
        };
        outln!("{:<14}{:>10}{:>10}", wl.name, blocks(&on), blocks(&off));
    }

    outln!("\nAblation 4 — separation checks: inserted vs elided (§4.5)\n");
    outln!(
        "{:<14}{:>10}{:>10}{:>12}{:>12}",
        "program",
        "inserted",
        "elided",
        "priv reads",
        "priv writes"
    );
    for wl in workloads() {
        let module = wl.build(Scale::Train);
        let r = privatize(&module, &PipelineConfig::default()).unwrap();
        let c = r.reports[0].checks;
        outln!(
            "{:<14}{:>10}{:>10}{:>12}{:>12}",
            wl.name,
            c.separation,
            c.elided,
            c.privacy_reads,
            c.privacy_writes
        );
    }
    outln!("\n  pointers provably rooted in the right heap (globals, h_alloc");
    outln!("  results, and GEPs of either) never pay a runtime check.");
}
