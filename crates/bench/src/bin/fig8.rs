//! Figure 8: breakdown of parallel-execution overheads at 4..24 workers,
//! normalized to total computational capacity (workers × duration).

use privateer_bench::{outln, run_privateer, workloads, Scale};

fn main() {
    outln!("Figure 8 — overhead breakdown (% of computational capacity)");
    outln!("(simulated cycles)\n");
    outln!(
        "{:<14}{:>8}{:>9}{:>11}{:>12}{:>12}{:>12}",
        "program",
        "workers",
        "useful",
        "priv read",
        "priv write",
        "checkpoint",
        "spawn/join"
    );
    for wl in workloads() {
        let module = wl.build(Scale::Bench);
        for workers in [4, 8, 12, 16, 20, 24] {
            let par = run_privateer(&module, workers, 0.0);
            let (u, pr, pw, ck, sj) = par.stats.sim.breakdown();
            outln!(
                "{:<14}{workers:>8}{:>8.1}%{:>10.1}%{:>11.1}%{:>11.1}%{:>11.1}%",
                wl.name,
                u * 100.0,
                pr * 100.0,
                pw * 100.0,
                ck * 100.0,
                sj * 100.0
            );
        }
        outln!();
    }
    outln!("paper: most capacity is useful work; privacy validation is the");
    outln!("largest validation overhead and roughly constant in worker count;");
    outln!("alvinn and dijkstra lose noticeable capacity to spawn/join.");
}
