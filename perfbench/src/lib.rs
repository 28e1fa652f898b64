//! The s2s benchmark: four workloads over one seeded world, measured end to
//! end with tracing off and layer by layer in a separate traced run. See
//! `README.md` in this directory for the workloads, the metrics and how to
//! run it.

pub mod loadgen;
pub mod report;
pub mod runner;
pub mod rusage;
pub mod stats;
pub mod trace;
pub mod workloads;

/// A named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The in-process `reproduce run` path.
    Batch,
    /// The long-term mesh through fabric worker subprocesses.
    Fabric,
    /// Streaming a long-term snapshot back: digest, then timelines.
    Reopen,
    /// The always-on service under an open-loop query load.
    Serve,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Batch,
        Workload::Fabric,
        Workload::Reopen,
        Workload::Serve,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Fabric => "fabric",
            Workload::Reopen => "reopen",
            Workload::Serve => "serve",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
