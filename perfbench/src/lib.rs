//! perfbench — the repository's one benchmark: simulated results and host
//! cost of the SCC/MetalSVM stack on three workloads (`paper48`, `kv128`,
//! `mesh512`). It drives the stack only through the crates' public
//! functions, on the default serial baton executor. See `README.md` for
//! the workloads, the metrics and what each layer figure should move.

pub mod cell;
pub mod host;
pub mod kv128;
pub mod paper48;
pub mod probes;
pub mod span;

use cell::Runner;
use scc_hw::Topology;

/// A benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper48,
    Kv128,
    Mesh512,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper48, Workload::Kv128, Workload::Mesh512];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper48 => "paper48",
            Workload::Kv128 => "kv128",
            Workload::Mesh512 => "mesh512",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The machine shape the workload runs on.
    pub fn topology(self) -> Topology {
        match self {
            Workload::Paper48 => Topology::scc48(),
            Workload::Kv128 => Topology::mesh8x8(),
            Workload::Mesh512 => Topology::mesh16x32(),
        }
    }

    /// One pass of the workload.
    pub fn pass(self, r: &mut Runner, seed: u64) {
        match self {
            Workload::Paper48 => paper48::pass(r),
            Workload::Kv128 => kv128::pass(r, seed),
            Workload::Mesh512 => {
                probes::run_all(r, Topology::mesh16x32(), seed);
                for (alias, name) in [
                    ("scale_barrier_us", "kernel.barrier_sim_us"),
                    ("scale_migration_us", "svm.migration_sim_us"),
                ] {
                    if let Some(v) = r.out.sim_value(name) {
                        r.out.sim(alias, v, "sim_us");
                    }
                }
            }
        }
    }
}
