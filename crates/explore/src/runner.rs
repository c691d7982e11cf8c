//! Execute one scenario — app × schedule policy × fault plan — on a fresh
//! machine and classify the outcome.

use crate::coverage::Coverage;
use crate::registry::{AppRun, AppSpec, Expected};
use metalsvm::{install as svm_install, SvmConfig};
use scc_checker::{check_rings, Finding};
use scc_hw::instr::{EventKind, TraceConfig};
use scc_hw::{FaultPlan, HwError, SccConfig, SchedPolicy};
use scc_kernel::Cluster;
use scc_mailbox::{install as mbx_install, Notify};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;

/// One run description: everything that determines the outcome.
#[derive(Clone)]
pub struct Scenario {
    pub app: &'static AppSpec,
    pub policy: SchedPolicy,
    pub faults: FaultPlan,
}

impl Scenario {
    /// The default-schedule, no-faults scenario for an app.
    pub fn baseline(app: &'static AppSpec) -> Scenario {
        Scenario {
            app,
            policy: SchedPolicy::Baton,
            faults: FaultPlan::default(),
        }
    }
}

/// The classified result of one scenario run.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Run completed, checker saw nothing. Carries the summed mailbox
    /// resilience counters (non-zero only when recovery paths fired).
    Clean { mbx_retries: u64, mbx_timeouts: u64 },
    /// Run completed but the checker reported findings.
    Findings(Vec<Finding>),
    /// The executor stopped the run: a deadlock (all cores blocked
    /// forever) or its election-budget livelock guard.
    Deadlock(HwError),
    /// A core program panicked (e.g. the mailbox retry budget ran out —
    /// the explorer's stand-in for a hang).
    Panic(String),
}

impl Outcome {
    /// Does this outcome land in the expected class? For findings, *at
    /// least one* finding with the expected slug must be present (a racy
    /// trigger may cascade into secondary findings).
    pub fn satisfies(&self, expected: &Expected) -> bool {
        match (self, expected) {
            (Outcome::Clean { .. }, Expected::Clean) => true,
            (Outcome::Findings(fs), Expected::Finding(slug)) => {
                fs.iter().any(|f| f.slug == *slug)
            }
            (Outcome::Deadlock(_), Expected::Deadlock) => true,
            _ => false,
        }
    }

    /// One-line description for logs and reports.
    pub fn brief(&self) -> String {
        match self {
            Outcome::Clean {
                mbx_retries,
                mbx_timeouts,
            } => format!("clean (mbx retries {mbx_retries}, timeouts {mbx_timeouts})"),
            Outcome::Findings(fs) => {
                let slugs: Vec<&str> = fs.iter().map(|f| f.slug).collect();
                format!("findings [{}]", slugs.join(", "))
            }
            Outcome::Deadlock(_) => "deadlock".into(),
            Outcome::Panic(msg) => {
                format!("panic: {}", msg.lines().next().unwrap_or(""))
            }
        }
    }
}

/// Election-budget livelock guard for every explored/fuzzed scenario.
/// Non-baton policies can livelock spin-synchronized apps — a
/// `PriorityBands` schedule starves the core a spinner waits on, forever
/// — which presents as a wedged host process, not a detectable deadlock.
/// The registry workloads finish within a few hundred thousand elections
/// (see the `baseline_runs_fit_far_under_the_livelock_budget` test), so
/// a two-million budget is pure headroom for legitimate runs while
/// bounding a livelocked one to well under a second.
pub const LIVELOCK_ELECTION_BUDGET: u64 = 2_000_000;

/// The trace configuration every scenario runs under: big enough rings
/// that the small registry workloads never wrap (a wrapped ring weakens
/// the checker's absence-based rules).
pub fn trace_cfg() -> TraceConfig {
    TraceConfig {
        per_core_capacity: 1 << 16,
        mask: EventKind::default_mask(),
    }
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Run one scenario on a fresh machine and classify the outcome. Fully
/// deterministic: the same scenario always returns the same outcome.
pub fn run_scenario(sc: &Scenario) -> Outcome {
    run_scenario_traced(sc).0
}

/// Like [`run_scenario`], but also accumulates the run's protocol-event
/// [`Coverage`] from the per-core rings (the fuzzer's feedback signal).
/// Deadlocked and panicked runs lose their rings to the unwinding
/// cluster, so their coverage is empty — the outcome itself is the
/// interesting part there. Without the `trace` feature the rings are
/// empty and coverage is always zero.
pub fn run_scenario_traced(sc: &Scenario) -> (Outcome, Coverage) {
    let cfg = SccConfig {
        sched: sc.policy.clone(),
        faults: sc.faults.clone(),
        trace: trace_cfg(),
        election_budget: Some(LIVELOCK_ELECTION_BUDGET),
        ..SccConfig::small()
    };
    let spec = sc.app;
    let run = spec.run;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let cl = Cluster::new(cfg).expect("scenario config must validate");
        cl.run(spec.cores, move |k| {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            match run {
                AppRun::Svm(f) => f(k, &mut svm),
                AppRun::Mbx(f) => f(k, &mbx),
                AppRun::SvmMbx(f) => f(k, &mbx, &mut svm),
            }
            let s = mbx.stats();
            (
                s.retries.load(Ordering::Relaxed),
                s.timeouts.load(Ordering::Relaxed),
            )
        })
    }));
    match caught {
        Err(p) => (Outcome::Panic(panic_msg(p)), Coverage::new()),
        Ok(Err(e)) => (Outcome::Deadlock(e), Coverage::new()),
        Ok(Ok(rs)) => {
            let mut cov = Coverage::new();
            cov.walk_rings(rs.iter().map(|r| (r.core, &r.trace)));
            let report = check_rings(rs.iter().map(|r| (r.core, &r.trace)));
            let outcome = if report.findings.is_empty() {
                let (mut retries, mut timeouts) = (0u64, 0u64);
                for r in &rs {
                    retries += r.result.0;
                    timeouts += r.result.1;
                }
                Outcome::Clean {
                    mbx_retries: retries,
                    mbx_timeouts: timeouts,
                }
            } else {
                Outcome::Findings(report.findings)
            };
            (outcome, cov)
        }
    }
}
