//! Figure 9: performance degradation with injected misspeculation.

use privateer_bench::{out, outln, run_privateer, run_sequential, workloads, Scale};

fn main() {
    // Rates as a fraction of iterations (the paper sweeps 0.01%..1% with
    // thousands of iterations; our loops run hundreds, so the sweep is
    // shifted to keep the expected number of misspeculations comparable).
    const RATES: [f64; 5] = [0.0, 0.005, 0.01, 0.05, 0.1];
    outln!("Figure 9 — speedup degradation under injected misspeculation");
    outln!("(24 workers, simulated cycles)\n");
    out!("{:<14}", "program");
    for r in RATES {
        out!("{:>9.2}%", r * 100.0);
    }
    outln!();
    for wl in workloads() {
        let module = wl.build(Scale::Bench);
        let seq = run_sequential(&module);
        out!("{:<14}", wl.name);
        for rate in RATES {
            let par = run_privateer(&module, 24, rate);
            assert_eq!(par.out, seq.out, "{}: diverged at rate {rate}", wl.name);
            let speedup = seq.insts as f64 / par.sim_time() as f64;
            out!("{speedup:>10.2}");
        }
        outln!();
    }
    outln!("\npaper: four of five programs lose half their speedup at a 0.1%");
    outln!("misspeculation rate — high-confidence speculation is required.");
}
