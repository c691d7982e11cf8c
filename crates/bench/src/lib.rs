//! # scc-bench — harness library for regenerating the paper's tables and
//! figures
//!
//! Each module of [`harness`] reproduces one table, figure or benchmark
//! (see `DESIGN.md` §4 for the index) and runs as one subcommand of the
//! `svmbench` binary; the shared measurement machinery lives here so it
//! can be unit-tested and reused by the Criterion benches.
//!
//! All numbers reported by the harnesses are **simulated** microseconds at
//! the paper's platform configuration (533 MHz cores, 800 MHz mesh and
//! memory) — wall-clock time of the host is irrelevant.

pub mod harness;
pub mod laplace_run;
pub mod pingpong;
pub mod report;
pub mod svm_micro;

pub use laplace_run::{
    laplace_config, laplace_run, laplace_run_on, LaplaceCoreObs, LaplaceRun, LaplaceVariant,
};
pub use pingpong::{pingpong_latency_us, PingPongSetup};
pub use report::{fmt_us, Table};
pub use svm_micro::{svm_overhead, svm_overhead_host, SvmOverhead};
