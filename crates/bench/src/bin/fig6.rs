//! Figure 6: whole-program speedup of the fully automatically
//! parallelized code vs best sequential execution, for 1..24 workers.

use privateer_bench::{
    geomean, out, outln, run_privateer, run_sequential, workloads, Scale, WORKER_COUNTS,
};

fn main() {
    outln!("Figure 6 — whole-program speedup over best sequential execution");
    outln!("(simulated cycles; see crates/bench/src/lib.rs for the timing model)\n");
    out!("{:<14}", "program");
    for w in WORKER_COUNTS {
        out!("{w:>8}");
    }
    outln!();

    let mut per_worker_speedups: Vec<Vec<f64>> = vec![Vec::new(); WORKER_COUNTS.len()];
    for wl in workloads() {
        let module = wl.build(Scale::Bench);
        let seq = run_sequential(&module);
        assert_eq!(
            seq.out,
            wl.reference(Scale::Bench),
            "{}: bad sequential output",
            wl.name
        );
        out!("{:<14}", wl.name);
        for (i, &workers) in WORKER_COUNTS.iter().enumerate() {
            let par = run_privateer(&module, workers, 0.0);
            assert_eq!(
                par.out, seq.out,
                "{}: bad parallel output @{workers}",
                wl.name
            );
            let speedup = seq.insts as f64 / par.sim_time() as f64;
            per_worker_speedups[i].push(speedup);
            out!("{speedup:>8.2}");
        }
        outln!();
    }
    out!("{:<14}", "geomean");
    for col in &per_worker_speedups {
        out!("{:>8.2}", geomean(col));
    }
    outln!();
    outln!("\npaper: geomean 11.4x at 24 workers on a 24-core Xeon X7460");
}
