//! Emit one of the evaluated workloads as textual IR (consumable by the
//! `privc` driver).
//!
//! ```console
//! $ cargo run -p privateer-bench --bin emit_ir -- dijkstra > dijkstra.ir
//! $ cargo run -p privateer --bin privc -- dijkstra.ir --run --workers 8
//! ```

use privateer_bench::{out, workloads, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let scale = match std::env::args().nth(2).as_deref() {
        Some("bench") => Scale::Bench,
        _ => Scale::Train,
    };
    let all = workloads();
    match all
        .iter()
        .find(|w| w.name.contains(&name) && !name.is_empty())
    {
        Some(w) => out!("{}", privateer_ir::printer::print_module(&w.build(scale))),
        None => {
            eprintln!("usage: emit_ir <name> [train|bench]");
            eprintln!(
                "names: {}",
                all.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
            );
            std::process::exit(2);
        }
    }
}
