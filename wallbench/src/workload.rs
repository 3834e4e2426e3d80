//! The benchmark's three workloads. Each fixes a program, its input size
//! and the engine fields that make it stress one layer of the runtime; the
//! seed only changes the input data (and, for `md5-misspec`, which
//! iterations misspeculate). NOTES.md records why each one exists.

use privateer_ir::Module;
use privateer_runtime::worker::injected_at;
use privateer_runtime::EngineConfig;
use privateer_workloads::{alvinn, blackscholes, md5};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 052.alvinn: one short invocation per epoch, dense privacy reads on
    /// a few stack arrays, array reductions.
    AlvinnPrivate,
    /// blackscholes: tens of freshly written pages shipped and merged at
    /// every checkpoint of a single invocation.
    BlackscholesWide,
    /// enc-md5 with injected misspeculation: squash, restore, sequential
    /// recovery and in-order deferred output.
    Md5Misspec,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::AlvinnPrivate,
    Workload::BlackscholesWide,
    Workload::Md5Misspec,
];

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlvinnPrivate => "alvinn-private",
            Workload::BlackscholesWide => "blackscholes-wide",
            Workload::Md5Misspec => "md5-misspec",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's program inputs and engine configuration for `seed`.
    pub fn instance(self, seed: u64) -> Instance {
        let workers = (cores() - 1).max(1);
        let (inputs, engine) = match self {
            Workload::AlvinnPrivate => (
                Inputs::Alvinn(alvinn::Params {
                    inputs: 16,
                    hidden: 10,
                    outputs: 4,
                    examples: 24,
                    epochs: 8,
                    seed,
                }),
                EngineConfig {
                    workers,
                    checkpoint_period: 4,
                    ..EngineConfig::default()
                },
            ),
            Workload::BlackscholesWide => (
                Inputs::Blackscholes(blackscholes::Params {
                    options: 4096,
                    runs: 4,
                    seed,
                }),
                EngineConfig {
                    workers,
                    checkpoint_period: 1,
                    ..EngineConfig::default()
                },
            ),
            Workload::Md5Misspec => (
                Inputs::Md5(md5::Params {
                    messages: MD5_MESSAGES,
                    msg_len: 96,
                    seed,
                }),
                EngineConfig {
                    workers,
                    checkpoint_period: 4,
                    inject_rate: MD5_INJECT_RATE,
                    inject_seed: md5_inject_seed(seed),
                    ..EngineConfig::default()
                },
            ),
        };
        Instance { inputs, engine }
    }
}

/// The host's cores as `available_parallelism` counts them.
///
/// A workload runs the engine at one worker fewer, at least one: the
/// engine's coordinating thread, which receives, merges and commits the
/// checkpoints, keeps a core of its own. With as many workers as cores,
/// a run on a shared 2-vCPU host needs both vCPUs uncontended at once, and
/// its time swings with how often that happens (NOTES.md has the numbers).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Messages hashed by `md5-misspec`: the trip count of its parallel loop.
const MD5_MESSAGES: usize = 160;
/// Per-iteration misspeculation rate injected into `md5-misspec`.
const MD5_INJECT_RATE: f64 = 0.05;
/// Iterations of `md5-misspec` that misspeculate, whatever the seed.
pub const MD5_INJECTED: usize = 8;

/// The injection seed for `md5-misspec` at `seed`: the first of a sequence
/// drawn from `seed` that selects exactly [`MD5_INJECTED`] iterations. The
/// seed picks which iterations misspeculate, but not how many, so the
/// recovery work and with it `run_s` stay comparable across seeds.
fn md5_inject_seed(seed: u64) -> u64 {
    (0u64..)
        .map(|k| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k))
        .find(|&s| {
            (0..MD5_MESSAGES as i64)
                .filter(|&i| injected_at(MD5_INJECT_RATE, s, i))
                .count()
                == MD5_INJECTED
        })
        .expect("some candidate selects the target count")
}

/// Program parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub enum Inputs {
    /// 052.alvinn parameters.
    Alvinn(alvinn::Params),
    /// blackscholes parameters.
    Blackscholes(blackscholes::Params),
    /// enc-md5 parameters.
    Md5(md5::Params),
}

/// One workload at one seed.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The program's parameters, seed included.
    pub inputs: Inputs,
    /// The engine configuration `run_s` uses: [`cores`] − 1 workers.
    pub engine: EngineConfig,
}

impl Instance {
    /// Build the program's IR module.
    pub fn build(&self) -> Module {
        match &self.inputs {
            Inputs::Alvinn(p) => alvinn::build(p),
            Inputs::Blackscholes(p) => blackscholes::build(p),
            Inputs::Md5(p) => md5::build(p),
        }
    }

    /// The program's expected output, from the native oracle.
    pub fn reference(&self) -> Vec<u8> {
        match &self.inputs {
            Inputs::Alvinn(p) => alvinn::reference_output(p),
            Inputs::Blackscholes(p) => blackscholes::reference_output(p),
            Inputs::Md5(p) => md5::reference_output(p),
        }
    }
}
