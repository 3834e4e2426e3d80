//! Figure 7: the enabling effect of Privateer at 24 worker processes —
//! speculative privatization vs the non-speculative DOALL-only baseline.

use privateer_bench::{outln, run_doall_only, run_privateer, run_sequential, workloads, Scale};

fn main() {
    const W: usize = 24;
    outln!("Figure 7 — enabling effect of Privateer at {W} workers");
    outln!("(simulated cycles)\n");
    outln!(
        "{:<14}{:>12}{:>14}{:>18}",
        "program",
        "privateer",
        "doall-only",
        "static loops found"
    );
    for wl in workloads() {
        let module = wl.build(Scale::Bench);
        let seq = run_sequential(&module);
        let par = run_privateer(&module, W, 0.0);
        assert_eq!(par.out, seq.out, "{}: privateer diverged", wl.name);
        let da = run_doall_only(&module, W);
        assert_eq!(da.out, seq.out, "{}: doall-only diverged", wl.name);
        let sp = seq.insts as f64 / par.sim_time() as f64;
        let sd = seq.insts as f64 / da.sim_time() as f64;
        outln!(
            "{:<14}{sp:>11.2}x{sd:>13.2}x{:>18}",
            wl.name,
            da.parallelized
        );
    }
    outln!("\npaper: DOALL-only ~0.93x geomean (slowdown on alvinn, nothing on");
    outln!("dijkstra/enc-md5/swaptions, inner loop only on blackscholes);");
    outln!("Privateer 11.4x geomean.");
}
