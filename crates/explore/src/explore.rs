//! The exploration loop: sweep schedules (and fault plans) per app,
//! shrink any trigger to a minimal reproducer, and write a replay file
//! that re-triggers it deterministically.

use crate::registry::{registry, AppSpec, Expected};
use crate::replay::{parse_replay, render_replay};
use crate::runner::{run_scenario, Outcome, Scenario};
use crate::trace_enabled;
use scc_checker::json::{self, Json};
use scc_hw::{Fault, FaultPlan, SchedPolicy};
use std::path::{Path, PathBuf};

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Seeds `1..=seed_budget` are tried for schedule-sensitive bugs.
    /// The registry's planted bugs are designed to be found well within
    /// the default budget of 24 (each needs one specific election to
    /// deviate, a per-seed probability of roughly 1/2).
    pub seed_budget: u64,
    /// Seeds swept on *clean* apps (they must stay clean under every
    /// schedule; a small sample bounds the runtime).
    pub clean_seeds: u64,
    /// Where shrunk replay files are written.
    pub out_dir: PathBuf,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed_budget: 24,
            clean_seeds: 4,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// The per-app verdict of one exploration.
#[derive(Clone, Debug)]
pub struct AppReport {
    pub name: &'static str,
    pub expected: Expected,
    /// The app behaved exactly as the registry promises.
    pub ok: bool,
    /// Expectation unverifiable in this build (finding-based without the
    /// `trace` feature); not counted as a failure.
    pub skipped: bool,
    pub detail: String,
    /// Scenario runs spent on this app (baseline + sweep + shrink +
    /// replay verification).
    pub runs: u64,
    /// The seed that first triggered a schedule-sensitive bug.
    pub trigger_seed: Option<u64>,
    /// Path of the shrunk replay file, for triage with `--replay` and
    /// `svmcheck`.
    pub replay_path: Option<String>,
    /// Summed `mbx.retries` from the dropped-doorbell robustness run
    /// (IPI-heavy clean apps only).
    pub mbx_retries: u64,
}

impl AppReport {
    fn new(spec: &AppSpec) -> AppReport {
        AppReport {
            name: spec.name,
            expected: spec.expected.clone(),
            ok: false,
            skipped: false,
            detail: String::new(),
            runs: 0,
            trigger_seed: None,
            replay_path: None,
            mbx_retries: 0,
        }
    }
}

/// Result of exploring the whole registry.
#[derive(Clone, Debug)]
pub struct Summary {
    pub seed_budget: u64,
    pub apps: Vec<AppReport>,
}

impl Summary {
    /// Every app behaved as registered (skipped apps don't fail the run).
    pub fn ok(&self) -> bool {
        self.apps.iter().all(|a| a.ok || a.skipped)
    }

    /// Render as JSON in the workspace layout ([`scc_checker::json`]).
    pub fn to_json(&self) -> String {
        let apps = self
            .apps
            .iter()
            .map(|a| {
                vec![
                    ("name", a.name.into()),
                    ("expected", a.expected.describe().into()),
                    ("ok", a.ok.into()),
                    ("skipped", a.skipped.into()),
                    ("runs", a.runs.into()),
                    ("trigger_seed", a.trigger_seed.into()),
                    ("replay", a.replay_path.as_deref().into()),
                    ("mbx_retries", a.mbx_retries.into()),
                    ("detail", a.detail.as_str().into()),
                ]
            })
            .collect();
        json::document(&[
            ("seed_budget", self.seed_budget.into()),
            ("trace", trace_enabled().into()),
            ("ok", self.ok().into()),
            ("apps", Json::Rows(apps)),
        ])
    }

    /// Human-readable one-line-per-app summary.
    pub fn render_text(&self) -> String {
        let line = |a: &AppReport| status_line(a.name, &a.expected, a.skipped, a.ok, &a.detail);
        self.apps.iter().map(line).collect()
    }
}

/// One app's line of a text summary.
pub(crate) fn status_line(
    name: &str,
    expected: &Expected,
    skipped: bool,
    ok: bool,
    detail: &str,
) -> String {
    let status = match (skipped, ok) {
        (true, _) => "SKIP",
        (false, true) => "ok",
        (false, false) => "FAIL",
    };
    format!(
        "{status:>4}  {name:<24} expect {:<28} {detail}\n",
        expected.describe()
    )
}

/// Shrink a triggering scenario to a minimal reproducer: drop fault plan
/// entries one at a time to a fixpoint (ddmin-lite — the plans the
/// explorer builds are small, so the quadratic loop is cheap), then try
/// downgrading the schedule policy to the baton. Every candidate is
/// re-run; a reduction is kept only if the outcome still lands in the
/// expected class. Returns the shrunk scenario and the number of runs
/// spent.
pub fn shrink(sc: &Scenario, expected: &Expected) -> (Scenario, u64) {
    let mut cur = sc.clone();
    let mut runs = 0u64;
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < cur.faults.faults.len() {
            let mut cand = cur.clone();
            cand.faults.faults.remove(i);
            runs += 1;
            if run_scenario(&cand).satisfies(expected) {
                cur = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            break;
        }
    }
    if cur.policy != SchedPolicy::Baton {
        let mut cand = cur.clone();
        cand.policy = SchedPolicy::Baton;
        runs += 1;
        if run_scenario(&cand).satisfies(expected) {
            cur = cand;
        }
    }
    (cur, runs)
}

/// Write the replay file for a shrunk scenario and verify it re-triggers:
/// parse the file back and run it twice — both runs must land in the
/// expected class (determinism makes two a proof, not a sample).
fn write_and_verify_replay(
    sc: &Scenario,
    expected: &Expected,
    out_dir: &Path,
    report: &mut AppReport,
) -> Result<(), String> {
    let path = out_dir.join(format!("repro_{}.txt", sc.app.name));
    json::write_file(&path, &render_replay(sc, expected))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
    let (parsed, exp) = parse_replay(&text)?;
    for round in 0..2 {
        report.runs += 1;
        let o = run_scenario(&parsed);
        if !o.satisfies(&exp) {
            return Err(format!(
                "replay round {} did not re-trigger: {}",
                round + 1,
                o.brief()
            ));
        }
    }
    report.replay_path = Some(path.display().to_string());
    Ok(())
}

/// The dropped-doorbell robustness plan: silently drop the first six IPIs
/// anywhere on the mesh. A resilient mailbox degrades to slow polling and
/// recovers; the pre-resilience system would hang.
fn dropped_ipi_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![Fault::DropIpi {
            src: None,
            dst: None,
            nth: 0,
            count: 6,
        }],
    }
}

/// Explore one app per its registry contract. See [`ExploreConfig`] for
/// the budgets.
pub fn explore_app(spec: &'static AppSpec, cfg: &ExploreConfig) -> AppReport {
    let mut report = AppReport::new(spec);
    let expected = spec.expected.clone();

    if matches!(expected, Expected::Finding(_)) && !trace_enabled() {
        report.skipped = true;
        report.detail = "finding-based expectation needs the 'trace' feature".into();
        return report;
    }

    let base = Scenario::baseline(spec);
    report.runs += 1;
    let o0 = run_scenario(&base);

    if spec.always_triggers {
        // Checker fixture: must fire under the default schedule already.
        if !o0.satisfies(&expected) {
            report.detail = format!("baton run: {}", o0.brief());
            return report;
        }
        match write_and_verify_replay(&base, &expected, &cfg.out_dir, &mut report) {
            Ok(()) => {
                report.ok = true;
                report.detail = format!("baton run: {}", o0.brief());
            }
            Err(e) => report.detail = e,
        }
        return report;
    }

    if expected == Expected::Clean {
        if !o0.satisfies(&expected) {
            report.detail = format!("baton run not clean: {}", o0.brief());
            return report;
        }
        // Correctly synchronized apps must stay clean under any
        // conservative schedule; sample a few seeds.
        for seed in 1..=cfg.clean_seeds {
            let sc = Scenario {
                app: spec,
                policy: SchedPolicy::SeededRandom { seed },
                faults: FaultPlan::default(),
            };
            report.runs += 1;
            let o = run_scenario(&sc);
            if !o.satisfies(&expected) {
                report.detail = format!("seed {seed}: {}", o.brief());
                return report;
            }
        }
        // Degraded-channel robustness: dropped doorbells must degrade to
        // slow polls (mbx.retries > 0), not hang the system.
        if spec.ipi_heavy {
            let sc = Scenario {
                app: spec,
                policy: SchedPolicy::Baton,
                faults: dropped_ipi_plan(),
            };
            report.runs += 1;
            match run_scenario(&sc) {
                Outcome::Clean {
                    mbx_retries,
                    mbx_timeouts: _,
                } if mbx_retries > 0 => report.mbx_retries = mbx_retries,
                Outcome::Clean { mbx_retries, .. } => {
                    report.detail = format!(
                        "dropped-IPI plan completed but no retries fired (retries {mbx_retries})"
                    );
                    return report;
                }
                o => {
                    report.detail = format!("dropped-IPI plan: {}", o.brief());
                    return report;
                }
            }
        }
        report.ok = true;
        report.detail = if spec.ipi_heavy {
            format!(
                "clean over baton + {} seeds; dropped-IPI recovered with {} retries",
                cfg.clean_seeds, report.mbx_retries
            )
        } else {
            format!("clean over baton + {} seeds", cfg.clean_seeds)
        };
        return report;
    }

    // Schedule-sensitive planted bug: must be clean under the baton and
    // found within the seed budget.
    if !matches!(o0, Outcome::Clean { .. }) {
        report.detail = format!("expected clean baton run, got {}", o0.brief());
        return report;
    }
    for seed in 1..=cfg.seed_budget {
        let sc = Scenario {
            app: spec,
            policy: SchedPolicy::SeededRandom { seed },
            faults: FaultPlan::default(),
        };
        report.runs += 1;
        let o = run_scenario(&sc);
        if o.satisfies(&expected) {
            report.trigger_seed = Some(seed);
            let (shrunk, shrink_runs) = shrink(&sc, &expected);
            report.runs += shrink_runs;
            match write_and_verify_replay(&shrunk, &expected, &cfg.out_dir, &mut report) {
                Ok(()) => {
                    report.ok = true;
                    report.detail =
                        format!("triggered at seed {seed}, replay re-triggers ({})", o.brief());
                }
                Err(e) => report.detail = e,
            }
            return report;
        }
    }
    report.detail = format!("not triggered within {} seeds", cfg.seed_budget);
    report
}

/// Explore every registered app.
pub fn explore_registry(cfg: &ExploreConfig) -> Summary {
    Summary {
        seed_budget: cfg.seed_budget,
        apps: registry().iter().map(|s| explore_app(s, cfg)).collect(),
    }
}
