//! # scc-hw — a functional + timing simulator of the Intel Single-chip Cloud Computer
//!
//! The Single-chip Cloud Computer (SCC) is a 48-core research processor built by
//! Intel Labs as a *concept vehicle* for the many-core era. Its distinguishing
//! property is that the cores are **memory-coupled but non-coherent**: all cores
//! can reach all memory, but no hardware keeps their caches in sync.
//!
//! This crate models exactly the architectural features the MetalSVM paper
//! (Lankes et al., PMAM 2012) exploits:
//!
//! * a 6×4 mesh of tiles with two P54C cores each and XY routing,
//! * four DDR3 memory controllers at the mesh edges,
//! * off-die memory split into per-core private regions and one shared region,
//! * an 8 KiB on-die *Message-Passing Buffer* (MPB) per core,
//! * per-core L1 and L2 caches **without any coherence between cores**,
//!   including the `MPBT` page-type tag, the `CL1INVMB` instruction and the
//!   one-line *write-combine buffer* (WCB),
//! * one test-and-set register per core,
//! * the Global Interrupt Controller (GIC) of sccKit 1.4 that lets a core
//!   raise a remote inter-processor interrupt carrying its source id.
//!
//! The machine *shape* — mesh dimensions, cores per tile, number of memory
//! controllers — is a runtime [`Topology`] value carried by [`SccConfig`];
//! the SCC above is the validated `scc48` preset and the default, while
//! larger meshes (e.g. `mesh8x8` with 128 cores, `mesh16x32` with 512)
//! exercise the same protocols at scale.
//!
//! ## Simulation model
//!
//! The simulator is *functional* — caches store real data, so a core genuinely
//! reads **stale** values after another core's write until it invalidates —
//! and *timing-approximate*: every memory operation charges calibrated cycle
//! costs to the issuing core's virtual clock ([`timing::TimingParams`]).
//!
//! Execution uses a deterministic conservative discrete-event scheme: each
//! simulated core is an OS thread, but only one runs at a time and the
//! scheduler always resumes the core with the smallest virtual clock
//! ([`exec`]). Cross-core events (flags, mails, IPIs) carry the sender's cycle
//! stamp; an observer advances its clock to `max(own, stamp + delivery)`
//! before acting, which keeps virtual time causal no matter how the host
//! schedules the threads.
//!
//! All shared state lives in atomics, so the model is data-race-free by
//! construction and the executor could be replaced by free-running threads on
//! a large host without touching any protocol code.

pub mod cache;
pub mod coll;
pub mod config;
pub mod core;
pub mod error;
pub mod exec;
pub mod faults;
pub mod gic;
pub mod instr;
pub mod machine;
pub mod metrics;
pub mod mpb;
pub mod par;
pub mod perf;
pub mod power;
pub mod ram;
pub mod tas;
pub mod timing;
pub mod topology;

pub use crate::core::{CoreCtx, MemAttr};
pub use coll::{CollLevel, CollTree};
pub use config::{CollMode, HostFastPaths, SccConfig};
pub use error::HwError;
pub use exec::SchedPolicy;
pub use faults::{Fault, FaultPlan};
pub use instr::{EventKind, TraceConfig, TraceEvent, TraceRing};
pub use machine::Machine;
pub use metrics::{MetricsSnapshot, MetricsSource};
pub use perf::PerfCounters;
pub use timing::{Cycles, TimingParams};
pub use topology::{CoreId, TileCoord, Topology, TopologyBuilder, TopologyError};
