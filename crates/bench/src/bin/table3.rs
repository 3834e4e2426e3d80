//! Table 3: details of privatized and parallelized programs — dynamic
//! invocation/checkpoint counts, private bytes read and written, static
//! objects per heap, and the extra transformations applied.

use privateer_bench::{outln, run_privateer, workloads, Scale};

fn main() {
    outln!("Table 3 — details of privatized and parallelized programs");
    outln!("(8 workers, checkpoint period 16)\n");
    outln!(
        "{:<14}{:>7}{:>8}{:>12}{:>12}  {:>3}{:>4}{:>4}{:>4}{:>4}  extras",
        "program",
        "invoc",
        "checkpt",
        "priv R",
        "priv W",
        "Pri",
        "SL",
        "RO",
        "Rdx",
        "Unr"
    );
    for wl in workloads() {
        let module = wl.build(Scale::Bench);
        let par = run_privateer(&module, 8, 0.0);
        let r = &par.reports[0];
        let [ro, pri, rdx, sl, unr] = r.heap_counts;
        let mut extras = Vec::new();
        if r.value_predicted {
            extras.push("Value");
        }
        if r.control_spec_blocks > 0 {
            extras.push("Control");
        }
        if r.does_io {
            extras.push("I/O");
        }
        let extras = if extras.is_empty() {
            "-".to_string()
        } else {
            extras.join(", ")
        };
        outln!(
            "{:<14}{:>7}{:>8}{:>12}{:>12}  {:>3}{:>4}{:>4}{:>4}{:>4}  {}",
            wl.name,
            par.stats.invocations,
            par.stats.checkpoints,
            human(par.stats.priv_read_bytes),
            human(par.stats.priv_write_bytes),
            pri,
            sl,
            ro,
            rdx,
            unr,
            extras
        );
    }
    outln!("\npaper's corresponding rows (24-core testbed, full-size inputs):");
    outln!("  052.alvinn   200 invoc, 2600 ckpt, 8.2GB R / 300MB W, 4 Pri 0 SL 4 RO 3 Rdx, -");
    outln!(
        "  dijkstra     1 invoc, 5 ckpt, 84.9GB R / 56.7GB W, 10 Pri 3 SL 11 RO, Value+Control+I/O"
    );
    outln!("  blackscholes 1 invoc, 5 ckpt, 0B R / 4.0GB W, 1 Pri 0 SL 9 RO, Value");
    outln!("  swaptions    1 invoc, 17 ckpt, 288KB R / 169KB W, 2 Pri 15 SL 5 RO, Value+Control");
    outln!("  enc-md5      1 invoc, 5 ckpt, 25.5GB R / 30.8GB W, 2 Pri 1 SL 4 RO, Control+I/O");
}

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}
