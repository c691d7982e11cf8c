//! Scale acceptance for the configurable topology (DESIGN.md §11): the
//! Laplace solver on the full 512-core `mesh16x32` preset.
//!
//! Everything the 48-core acceptance tests assert must survive a 10×
//! machine: the run completes under the serial baton executor AND the
//! parallel conservative executor with bit-identical checksum, simulated
//! time and per-core virtual clocks; with the `trace` feature compiled
//! in, svm-check replays both runs' protocol event streams and must come
//! back finding-free. At this scale the SVM layer is exercised in its
//! sharded configuration: 512 cores overflow the MPB first-touch table,
//! so `ScratchLocation::Auto` resolves to the per-memory-controller
//! ownership directories.

use metalsvm::{ScratchLocation, SvmConfig};
use scc_apps::laplace::LaplaceParams;
use scc_bench::{laplace_run_on, LaplaceVariant};
use scc_hw::instr::TraceConfig;
use scc_hw::{HostFastPaths, SccConfig, Topology, TraceRing};
use scc_mailbox::Notify;

/// One core per grid row: 512 ranks, two Jacobi iterations. Width 512
/// keeps the layout representative of the Figure 9 grids — each row
/// spans about a page, so boundary pages are shared by two or three
/// neighbours, like the paper's. Even so, neighbour halo ping-pong
/// produces ownership-grant chains denser than a scheduling quantum,
/// which is exactly the clock-slop regime the protocol monitor's
/// deferred chain links exist for (protocol.rs "Clock slop and deferred
/// chain links") — this run is the checker's largest soundness witness.
const GRID: LaplaceParams = LaplaceParams {
    width: 512,
    height: 512,
    iters: 2,
};

/// The 512-core machine: `small()`-sized private memory (the SVM variants
/// keep the grid in shared memory) and 32 MiB of shared — the 512
/// receivers' off-die mailbox slot rows alone need 8 MiB.
fn cfg_512(host_fast: HostFastPaths) -> SccConfig {
    // 2^17 events per core: the final checksum reduction migrates every
    // page to rank 0, whose ring carries the whole machine's grant
    // traffic — at 2^14 it wraps and the checker's absence-based checks
    // lose their soundness gate.
    let trace = if TraceRing::compiled_in() {
        TraceConfig::full(1 << 17)
    } else {
        TraceConfig::disabled()
    };
    SccConfig {
        shared_bytes: 32 * 1024 * 1024,
        host_fast,
        trace,
        ..SccConfig::small_with(Topology::mesh16x32())
    }
}

#[cfg(feature = "trace")]
fn assert_svmcheck_clean(obs: &[scc_bench::LaplaceCoreObs], what: &str) {
    use scc_checker::check_rings;
    assert!(
        obs.iter().all(|o| o.trace.overwritten() == 0),
        "{what}: ring wrapped — grow per_core_capacity so absence checks \
         stay sound"
    );
    let rep = check_rings(obs.iter().map(|o| (o.core, &o.trace)));
    assert!(
        rep.findings.is_empty(),
        "{what}: svm-check must be clean at 512 cores, got:\n{}",
        rep.render_text()
    );
}

#[cfg(not(feature = "trace"))]
fn assert_svmcheck_clean(_obs: &[scc_bench::LaplaceCoreObs], _what: &str) {}

/// Ignored in the default (dev-profile) test run: four 512-core Laplace
/// executions are minutes of CPU without release optimisation.
/// `ci/check.sh` runs it in release with the `trace` feature, where the
/// svm-check half of the assertion is live.
#[test]
#[ignore = "scale acceptance: run in release via ci/check.sh"]
fn laplace_512core_mesh16x32_serial_parallel_svmcheck_clean() {
    let topo = Topology::mesh16x32();
    assert_eq!(topo.num_cores(), 512);
    // The scale point of the test: at 512 cores `Auto` resolves to the
    // sharded per-MC directories for any table size, so the runs below
    // exercise them rather than the flat MPB scratch table.
    assert_eq!(
        ScratchLocation::Auto.resolve(512, 1),
        ScratchLocation::ShardedMc
    );
    for variant in [LaplaceVariant::SvmStrong, LaplaceVariant::SvmLazy] {
        let (ser_run, ser_obs) = laplace_run_on(
            cfg_512(HostFastPaths::default()),
            variant,
            512,
            GRID,
            Notify::Poll,
            SvmConfig::default(),
        );
        assert_svmcheck_clean(&ser_obs, "serial");
        let ser_clocks: Vec<u64> = ser_obs.iter().map(|o| o.clock).collect();
        drop(ser_obs); // 512 trace rings — release before the second run

        let (par_run, par_obs) = laplace_run_on(
            cfg_512(HostFastPaths::parallel()),
            variant,
            512,
            GRID,
            Notify::Poll,
            SvmConfig::default(),
        );
        assert_svmcheck_clean(&par_obs, "parallel");
        let par_clocks: Vec<u64> = par_obs.iter().map(|o| o.clock).collect();

        assert_eq!(
            ser_run.checksum,
            par_run.checksum,
            "checksum diverged at 512 cores ({})",
            variant.label()
        );
        assert_eq!(
            ser_run.sim_ms,
            par_run.sim_ms,
            "simulated time diverged at 512 cores ({})",
            variant.label()
        );
        assert_eq!(ser_clocks.len(), 512);
        assert_eq!(
            ser_clocks,
            par_clocks,
            "per-core virtual clocks diverged at 512 cores ({})",
            variant.label()
        );
        // The parallel engine must actually have run its machinery.
        assert!(par_run.metrics.get("exec.par.windows") > 0);
        assert_eq!(ser_run.metrics.get("exec.par.windows"), 0);
    }
}
