//! Runner for the Figure 9 Laplace experiment: one function per variant,
//! returning checksum and simulated runtime.

use metalsvm::{install as svm_install, Consistency, SvmConfig};
use rcce::RcceComm;
use scc_apps::laplace::{laplace_ircce, laplace_svm, LaplaceParams};
use scc_hw::{CoreId, MetricsSnapshot, MetricsSource, SccConfig, TraceRing};
use scc_kernel::Cluster;
use scc_mailbox::{install as mbx_install, Notify};

/// Which implementation solves the grid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LaplaceVariant {
    /// Message passing over iRCCE (the paper's baseline under SCC Linux).
    Ircce,
    /// Shared memory on the SVM system, strong model.
    SvmStrong,
    /// Shared memory on the SVM system, lazy release consistency.
    SvmLazy,
}

impl LaplaceVariant {
    /// Every variant, in Figure 9's column order.
    pub const ALL: [LaplaceVariant; 3] = [
        LaplaceVariant::Ircce,
        LaplaceVariant::SvmStrong,
        LaplaceVariant::SvmLazy,
    ];

    pub fn label(self) -> &'static str {
        match self {
            LaplaceVariant::Ircce => "iRCCE",
            LaplaceVariant::SvmStrong => "SVM strong",
            LaplaceVariant::SvmLazy => "SVM lazy",
        }
    }
}

/// Outcome of one (variant, cores) cell of Figure 9.
#[derive(Clone, Debug)]
pub struct LaplaceRun {
    pub checksum: f64,
    /// Simulated wall time of the iteration loop: the maximum over the
    /// participating cores, in milliseconds.
    pub sim_ms: f64,
    /// Estimated energy over all active cores (whole run, J) under the
    /// default `scc_hw::power` model.
    pub energy_j: f64,
    /// The unified metrics registry for the whole run: hardware counters
    /// (`hw.*`, `exec.*`, `kernel.*`) merged over the participating cores,
    /// plus the mailbox (`mbx.*`) and SVM protocol (`svm.*`) counters for
    /// the SVM variants.
    pub metrics: MetricsSnapshot,
}

/// Machine configuration sized for the experiment: the MP variant keeps
/// two full row blocks (plus halos) in private memory.
pub fn laplace_config(n: usize, p: LaplaceParams) -> SccConfig {
    let block_bytes = (p.height / n + 2) * (p.width + scc_apps::laplace::ROW_PAD) * 8 * 2;
    SccConfig {
        private_bytes_per_core: (block_bytes + 2 * 1024 * 1024).next_multiple_of(4096),
        shared_bytes: 64 * 1024 * 1024,
        ..SccConfig::default()
    }
}

/// Run one cell of Figure 9 on a fresh machine.
pub fn laplace_run(variant: LaplaceVariant, n: usize, p: LaplaceParams) -> LaplaceRun {
    let (cfg, svm) = (laplace_config(n, p), SvmConfig::default());
    laplace_run_on(cfg, variant, n, p, Notify::Ipi, svm).0
}

/// Per-core observables of one run, for bit-identity comparisons across
/// executor modes: final virtual clock and structured-event ring.
pub struct LaplaceCoreObs {
    pub core: CoreId,
    pub clock: u64,
    pub trace: TraceRing,
}

/// Like [`laplace_run`], on an explicit machine configuration (usually
/// [`laplace_config`] with some fields overridden: host fast paths,
/// tracing, topology), mailbox notification strategy and SVM
/// configuration, also returning each core's final clock and trace ring.
///
/// Simulated results are identical for every `host_fast` setting and
/// every trace configuration; only host wall-clock changes. Rings are
/// empty unless the `trace` cargo feature is compiled in and
/// `cfg.trace.per_core_capacity > 0`; export them with
/// [`scc_hw::instr::chrome_trace_json`] or [`scc_hw::instr::protocol_log`].
/// The parallel executor does not support IPIs, so runs under it use
/// [`Notify::Poll`].
pub fn laplace_run_on(
    cfg: SccConfig,
    variant: LaplaceVariant,
    n: usize,
    p: LaplaceParams,
    notify: Notify,
    svm_cfg: SvmConfig,
) -> (LaplaceRun, Vec<LaplaceCoreObs>) {
    let mhz = cfg.timing.core_mhz as f64;
    let chip_cores = cfg.topo.num_cores();
    let cl = Cluster::new(cfg).expect("machine");
    let res = cl
        .run(n, move |k| match variant {
            LaplaceVariant::Ircce => {
                let mut comm = RcceComm::init(k);
                (laplace_ircce(k, &mut comm, p), MetricsSnapshot::new())
            }
            LaplaceVariant::SvmStrong | LaplaceVariant::SvmLazy => {
                let mbx = mbx_install(k, notify);
                let mut svm = svm_install(k, &mbx, svm_cfg);
                let model = if variant == LaplaceVariant::SvmStrong {
                    Consistency::Strong
                } else {
                    Consistency::LazyRelease
                };
                let out = laplace_svm(k, &mut svm, model, p);
                // Mailbox counters are per core; the SVM protocol counters
                // are machine-global, so only rank 0 contributes them (the
                // merge below would otherwise count them n times).
                let mut m = mbx.stats().metrics();
                if k.rank() == 0 {
                    svm.shared().stats.metrics_into(&mut m);
                }
                (out, m)
            }
        })
        .expect("laplace must not deadlock");
    let checksum = res[0].result.0.checksum;
    let max_cycles = res.iter().map(|r| r.result.0.cycles).max().unwrap();
    let timing = scc_hw::TimingParams::default();
    let pw = scc_hw::power::PowerParams::default();
    let energy_j = res
        .iter()
        .map(|r| {
            scc_hw::power::estimate(&r.perf, r.clock.as_u64(), chip_cores, &timing, &pw).total_j()
        })
        .sum();
    let mut metrics = MetricsSnapshot::new();
    for r in &res {
        r.perf.metrics_into(&mut metrics);
        metrics.merge(&r.result.1);
    }
    let run = LaplaceRun {
        checksum,
        sim_ms: max_cycles as f64 / mhz / 1000.0,
        energy_j,
        metrics,
    };
    let obs = res
        .into_iter()
        .map(|r| LaplaceCoreObs {
            core: r.core,
            clock: r.clock.as_u64(),
            trace: r.trace,
        })
        .collect();
    (run, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_agree_on_checksum_small() {
        let p = LaplaceParams {
            width: 64,
            height: 32,
            iters: 5,
        };
        let a = laplace_run(LaplaceVariant::Ircce, 2, p);
        let b = laplace_run(LaplaceVariant::SvmStrong, 2, p);
        let c = laplace_run(LaplaceVariant::SvmLazy, 2, p);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(b.checksum, c.checksum);
        assert!(a.sim_ms > 0.0 && b.sim_ms > 0.0 && c.sim_ms > 0.0);
    }

    #[test]
    fn more_cores_run_faster_lazy() {
        let p = LaplaceParams {
            width: 128,
            height: 64,
            iters: 4,
        };
        let one = laplace_run(LaplaceVariant::SvmLazy, 1, p);
        let four = laplace_run(LaplaceVariant::SvmLazy, 4, p);
        assert!(
            four.sim_ms < one.sim_ms,
            "4 cores ({} ms) must beat 1 core ({} ms)",
            four.sim_ms,
            one.sim_ms
        );
    }
}
