//! `svm-fuzz`: the coverage-guided concurrency fuzzing loop.
//!
//! Where the explorer ([`crate::explore`]) sweeps schedule seeds
//! *blindly* — seed k tells it nothing about what seed k+1 should be —
//! the fuzzer closes the loop: every execution's protocol-event-transition
//! [`Coverage`] feeds a per-app [`GlobalCoverage`] map, plans that light
//! up new transitions enter the [`Corpus`], and the next candidate is a
//! bounded [`mutate`] of an energy-weighted corpus pick. The search walks
//! the interleaving space along its observable structure instead of
//! sampling it uniformly.
//!
//! The oracle is unchanged: `svm-check` over the same rings (plus the
//! executor's deadlock detector), so a fuzzer "find" is exactly an
//! explorer "find" — and is shrunk by the same [`crate::explore::shrink`]
//! and written as the same replay file format.
//!
//! Everything is a pure function of `(registry, master seed, corpus
//! seed dir)`: two processes given the same inputs produce bit-identical
//! coverage maps, corpora and findings (the determinism suite holds the
//! shipped binary to this).

use crate::corpus::{Corpus, Plan};
use crate::coverage::{Coverage, GlobalCoverage};
use crate::explore::{shrink, status_line};
use crate::mutate::{mutate, Rng};
use crate::registry::{registry, AppSpec, Expected};
use crate::replay::{parse_replay_full, render_replay};
use crate::runner::{run_scenario, run_scenario_traced, Outcome, Scenario};
use crate::trace_enabled;
use scc_checker::fnv::{fnv1a, Fnv1a};
use scc_checker::json::{self, Json};
use scc_hw::SchedPolicy;
use std::path::PathBuf;

/// Fuzzing campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Execution budget per app (the baseline run counts as one).
    pub execs: u64,
    /// Master seed: the whole campaign is a pure function of it.
    pub master_seed: u64,
    /// Shared on-disk corpus directory (loaded once at startup, appended
    /// on admission); `None` keeps corpora in memory.
    pub corpus_dir: Option<PathBuf>,
    /// Where finding replay files are written.
    pub out_dir: PathBuf,
    /// Fuzz only these apps (empty = whole registry).
    pub apps: Vec<String>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            execs: 200,
            master_seed: 1,
            corpus_dir: None,
            out_dir: PathBuf::from("results"),
            apps: Vec::new(),
        }
    }
}

/// One app's fuzzing verdict.
#[derive(Clone, Debug)]
pub struct FuzzAppReport {
    pub name: &'static str,
    pub expected: Expected,
    /// Expectation unverifiable in this build (needs `trace`) or the app
    /// is an always-triggering checker fixture (nothing to search for).
    pub skipped: bool,
    /// Executions actually spent (≤ budget; stops at the first find).
    pub execs: u64,
    /// The planted bug was triggered (bug fixtures only).
    pub found: bool,
    /// Execution index (1-based) of the first trigger.
    pub execs_to_find: Option<u64>,
    /// Clean app produced a finding/deadlock/panic that is **not**
    /// mailbox saturation — each one is an oracle false positive and
    /// fails the campaign.
    pub false_findings: u64,
    /// Mutated plans that exhausted the mailbox retry budget ("mailbox
    /// send timeout" panics). Expected under heavy fault plans; excluded
    /// from findings and from the corpus.
    pub saturated: u64,
    /// Fixture runs landing outside both the expected class and clean
    /// (e.g. a secondary finding without the planted one).
    pub other_outcomes: u64,
    /// Corpus size at campaign end / entries admitted by this campaign.
    pub corpus_len: usize,
    pub corpus_admitted: u64,
    /// Union coverage at campaign end.
    pub coverage_bits: u32,
    pub coverage_fp: u64,
    /// Checker-finding-set fingerprint of the triggering run (0 when the
    /// trigger was a deadlock, or no trigger).
    pub findings_fp: u64,
    /// Shrunk replay file for the find.
    pub replay_path: Option<String>,
    pub detail: String,
}

impl FuzzAppReport {
    fn new(spec: &AppSpec) -> FuzzAppReport {
        FuzzAppReport {
            name: spec.name,
            expected: spec.expected.clone(),
            skipped: false,
            execs: 0,
            found: false,
            execs_to_find: None,
            false_findings: 0,
            saturated: 0,
            other_outcomes: 0,
            corpus_len: 0,
            corpus_admitted: 0,
            coverage_bits: 0,
            coverage_fp: 0,
            findings_fp: 0,
            replay_path: None,
            detail: String::new(),
        }
    }

    /// Did the app behave as its registry entry promises under fuzzing?
    pub fn ok(&self) -> bool {
        if self.skipped {
            return true;
        }
        match self.expected {
            Expected::Clean => self.false_findings == 0,
            _ => self.found,
        }
    }
}

/// Result of fuzzing (a subset of) the registry.
#[derive(Clone, Debug)]
pub struct FuzzSummary {
    pub master_seed: u64,
    pub execs_budget: u64,
    pub apps: Vec<FuzzAppReport>,
}

impl FuzzSummary {
    pub fn ok(&self) -> bool {
        self.apps.iter().all(|a| a.ok())
    }

    /// Deterministic fingerprint of the whole campaign: per-app coverage
    /// maps, corpus sizes, find indices and finding sets, folded in
    /// registry order. Two processes fuzzing with the same seed must
    /// agree on this exactly.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        let mut fold = |x: u64| h.write(&x.to_le_bytes());
        for a in &self.apps {
            fold(fnv1a(a.name.as_bytes()));
            fold(a.coverage_fp);
            fold(a.coverage_bits as u64);
            fold(a.corpus_len as u64);
            fold(a.execs_to_find.unwrap_or(0));
            fold(a.findings_fp);
            fold(a.false_findings);
        }
        h.finish()
    }

    /// Render as JSON in the workspace layout ([`scc_checker::json`]).
    pub fn to_json(&self) -> String {
        let hex = |x: u64| Json::Str(format!("{x:016x}"));
        let apps = self
            .apps
            .iter()
            .map(|a| {
                vec![
                    ("name", a.name.into()),
                    ("expected", a.expected.describe().into()),
                    ("ok", a.ok().into()),
                    ("skipped", a.skipped.into()),
                    ("execs", a.execs.into()),
                    ("found", a.found.into()),
                    ("execs_to_find", a.execs_to_find.into()),
                    ("false_findings", a.false_findings.into()),
                    ("saturated", a.saturated.into()),
                    ("other_outcomes", a.other_outcomes.into()),
                    ("corpus_len", a.corpus_len.into()),
                    ("corpus_admitted", a.corpus_admitted.into()),
                    ("coverage_bits", a.coverage_bits.into()),
                    ("coverage_fp", hex(a.coverage_fp)),
                    ("findings_fp", hex(a.findings_fp)),
                    ("replay", a.replay_path.as_deref().into()),
                    ("detail", a.detail.as_str().into()),
                ]
            })
            .collect();
        json::document(&[
            ("master_seed", self.master_seed.into()),
            ("execs_budget", self.execs_budget.into()),
            ("trace", trace_enabled().into()),
            ("ok", self.ok().into()),
            ("fingerprint", hex(self.fingerprint())),
            ("apps", Json::Rows(apps)),
        ])
    }

    /// Human-readable one-line-per-app summary.
    pub fn render_text(&self) -> String {
        let line = |a: &FuzzAppReport| {
            status_line(a.name, &a.expected, a.skipped, a.ok(), &a.detail)
        };
        self.apps.iter().map(line).collect()
    }
}

/// Is this outcome a resource-budget artifact of the schedule/fault plan
/// rather than a genuine bug? Two shapes: the mailbox declaring
/// saturation (retry budget spent under an aggressive fault plan), and
/// the executor's election-budget guard catching a livelocked schedule
/// (e.g. `PriorityBands` starving a spin-wait's producer). Neither is a
/// finding, and neither enters the corpus.
fn is_budget_artifact(outcome: &Outcome) -> bool {
    match outcome {
        Outcome::Panic(msg) => msg.contains("mailbox send timeout"),
        Outcome::Deadlock(msg) => msg.contains("election budget exceeded"),
        _ => false,
    }
}

/// Classify one execution against the app's expectation.
enum Verdict {
    /// Clean run — feed coverage, maybe admit.
    Clean,
    /// The planted bug fired.
    Found,
    /// Clean app misbehaved: a would-be false positive.
    FalsePositive,
    /// Mailbox saturation under the fault plan.
    Saturated,
    /// Fixture run outside both clean and expected (e.g. secondary
    /// finding only).
    Other,
}

fn classify(outcome: &Outcome, expected: &Expected) -> Verdict {
    // Budget artifacts first: a livelocked schedule surfaces as
    // `Outcome::Deadlock` and must not count as "found" for a
    // deadlock-expecting fixture — the planted lost-wakeup hangs with
    // all cores blocked, not with its election budget spent.
    if is_budget_artifact(outcome) {
        return Verdict::Saturated;
    }
    if outcome.satisfies(expected) && !matches!(expected, Expected::Clean) {
        return Verdict::Found;
    }
    match outcome {
        Outcome::Clean { .. } => Verdict::Clean,
        _ => {
            if matches!(expected, Expected::Clean) {
                Verdict::FalsePositive
            } else {
                Verdict::Other
            }
        }
    }
}

/// Finding-set fingerprint of a triggering outcome (0 for deadlocks).
fn outcome_findings_fp(outcome: &Outcome) -> u64 {
    match outcome {
        Outcome::Findings(fs) => scc_checker::Report {
            findings: fs.clone(),
            truncated: false,
            lost: 0,
            events: 0,
            cores: 0,
        }
        .fingerprint(),
        _ => 0,
    }
}

/// Shrink a triggering scenario, write its replay file (with recorded
/// topology) and verify the file re-triggers once.
fn write_find(
    sc: &Scenario,
    expected: &Expected,
    cfg: &FuzzConfig,
    report: &mut FuzzAppReport,
) -> Result<(), String> {
    let (shrunk, _) = shrink(sc, expected);
    let path = cfg.out_dir.join(format!("FUZZ_repro_{}.txt", sc.app.name));
    json::write_file(&path, &render_replay(&shrunk, expected))?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let parsed = parse_replay_full(&text).map_err(|e| e.to_string())?;
    parsed.verify_topology().map_err(|e| e.to_string())?;
    if !run_scenario(&parsed.scenario).satisfies(&parsed.expected) {
        return Err("shrunk replay did not re-trigger".into());
    }
    report.replay_path = Some(path.display().to_string());
    Ok(())
}

/// Fuzz one app for up to `cfg.execs` executions.
pub fn fuzz_app(spec: &'static AppSpec, cfg: &FuzzConfig) -> FuzzAppReport {
    let mut report = FuzzAppReport::new(spec);
    let expected = spec.expected.clone();

    if spec.always_triggers {
        report.skipped = true;
        report.detail = "fires under the baton schedule; nothing to search".into();
        return report;
    }
    if matches!(expected, Expected::Finding(_)) && !trace_enabled() {
        report.skipped = true;
        report.detail = "finding-based expectation needs the 'trace' feature".into();
        return report;
    }

    let mut rng = Rng::new(cfg.master_seed ^ fnv1a(spec.name.as_bytes()));
    let mut global = GlobalCoverage::new();
    let mut corpus = match &cfg.corpus_dir {
        Some(d) => match Corpus::open(spec, d) {
            Ok(c) => c,
            Err(e) => {
                report.detail = format!("cannot open corpus dir: {e}");
                return report;
            }
        },
        None => Corpus::new(spec),
    };

    let absorb_and_admit =
        |plan: &Plan, cov: &Coverage, global: &mut GlobalCoverage, corpus: &mut Corpus| -> bool {
            let (novel, rare) = global.absorb(cov);
            novel > 0 && corpus.admit(plan.clone(), novel, rare)
        };

    // Execution 1: the baseline plan anchors both the coverage map and
    // the corpus (mutations start from a known-good interleaving).
    let baseline = Plan::baseline();
    report.execs = 1;
    let (o0, cov0) = run_scenario_traced(&baseline.scenario(spec));
    match classify(&o0, &expected) {
        Verdict::Clean => {
            absorb_and_admit(&baseline, &cov0, &mut global, &mut corpus);
        }
        Verdict::Found => {
            // A schedule fixture firing under the baton would be a
            // registry bug; report it honestly anyway.
            report.found = true;
            report.execs_to_find = Some(1);
            report.findings_fp = outcome_findings_fp(&o0);
        }
        _ => {
            report.false_findings += u64::from(matches!(expected, Expected::Clean));
            report.detail = format!("baseline: {}", o0.brief());
        }
    }

    // Explore-then-exploit: the first few candidates are pure schedule
    // probes (fresh seed, no faults) — with only the baseline in the
    // corpus there is no coverage gradient yet, and a blind draw matches
    // the seed-sweep baseline's cost exactly. Everything after runs
    // through the coverage-guided mutation engine.
    let probe_phase = 1 + (cfg.execs / 8).clamp(1, 8);
    while !report.found && report.execs < cfg.execs {
        report.execs += 1;
        let plan = if report.execs <= probe_phase {
            crate::mutate::schedule_probe(&mut rng)
        } else {
            let base = corpus
                .select(&mut rng)
                .map(|e| e.plan.clone())
                .unwrap_or_else(Plan::baseline);
            let peer = corpus.select(&mut rng).map(|e| e.plan.clone());
            mutate(&mut rng, &base, peer.as_ref(), spec.cores)
        };
        let (outcome, cov) = run_scenario_traced(&plan.scenario(spec));
        match classify(&outcome, &expected) {
            Verdict::Clean => {
                if absorb_and_admit(&plan, &cov, &mut global, &mut corpus) {
                    report.corpus_admitted += 1;
                }
            }
            Verdict::Found => {
                report.found = true;
                report.execs_to_find = Some(report.execs);
                report.findings_fp = outcome_findings_fp(&outcome);
                let sc = plan.scenario(spec);
                match write_find(&sc, &expected, cfg, &mut report) {
                    Ok(()) => {
                        report.detail = format!(
                            "found at exec {} ({}), replay re-triggers",
                            report.execs,
                            outcome.brief()
                        );
                    }
                    Err(e) => report.detail = format!("found but replay failed: {e}"),
                }
            }
            Verdict::FalsePositive => {
                report.false_findings += 1;
                if report.detail.is_empty() {
                    report.detail = format!(
                        "exec {}: unexpected {} under {:?}",
                        report.execs,
                        outcome.brief(),
                        plan.faults.faults
                    );
                }
            }
            Verdict::Saturated => report.saturated += 1,
            Verdict::Other => report.other_outcomes += 1,
        }
    }

    report.corpus_len = corpus.len();
    report.coverage_bits = global.bits_set();
    report.coverage_fp = global.fingerprint();
    if report.detail.is_empty() {
        report.detail = match &expected {
            Expected::Clean => format!(
                "clean over {} execs; corpus {} (+{}), {} coverage bits, {} saturated",
                report.execs,
                report.corpus_len,
                report.corpus_admitted,
                report.coverage_bits,
                report.saturated
            ),
            _ => format!(
                "not triggered within {} execs (corpus {}, {} coverage bits)",
                report.execs, report.corpus_len, report.coverage_bits
            ),
        };
    }
    report
}

/// Fuzz every registered app (minus always-triggering fixtures, which
/// have nothing to search), or the subset named in `cfg.apps`.
pub fn fuzz_registry(cfg: &FuzzConfig) -> FuzzSummary {
    let apps: Vec<&'static AppSpec> = registry()
        .iter()
        .filter(|s| cfg.apps.is_empty() || cfg.apps.iter().any(|n| n == s.name))
        .collect();
    FuzzSummary {
        master_seed: cfg.master_seed,
        execs_budget: cfg.execs,
        apps: apps.into_iter().map(|s| fuzz_app(s, cfg)).collect(),
    }
}

/// The blind baseline the fuzzer is benchmarked against: the explorer's
/// PR-5 protocol (baton run, then sequential seeds 1..=budget), counting
/// executions until the planted bug fires. Returns `None` if the budget
/// runs out.
pub fn blind_execs_to_find(spec: &'static AppSpec, budget: u64) -> Option<u64> {
    let mut execs = 1u64;
    let o0 = run_scenario(&Scenario::baseline(spec));
    if o0.satisfies(&spec.expected) {
        return Some(execs);
    }
    for seed in 1..=budget {
        execs += 1;
        let sc = Scenario {
            app: spec,
            policy: SchedPolicy::SeededRandom { seed },
            faults: scc_hw::FaultPlan::default(),
        };
        if run_scenario(&sc).satisfies(&spec.expected) {
            return Some(execs);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::app;

    #[test]
    fn classify_routes_saturation_and_false_positives() {
        let clean = Outcome::Clean {
            mbx_retries: 0,
            mbx_timeouts: 0,
        };
        assert!(matches!(classify(&clean, &Expected::Clean), Verdict::Clean));
        let sat = Outcome::Panic("mailbox send timeout: core 02 -> 00".into());
        assert!(matches!(
            classify(&sat, &Expected::Clean),
            Verdict::Saturated
        ));
        let dead = Outcome::Deadlock("all cores blocked".into());
        assert!(matches!(
            classify(&dead, &Expected::Clean),
            Verdict::FalsePositive
        ));
        assert!(matches!(
            classify(&dead, &Expected::Deadlock),
            Verdict::Found
        ));
        let other_panic = Outcome::Panic("index out of bounds".into());
        assert!(matches!(
            classify(&other_panic, &Expected::Finding("stale-read")),
            Verdict::Other
        ));
        // A livelocked schedule (election budget guard) is an artifact,
        // not a finding — and crucially not a "found" deadlock.
        let livelock = Outcome::Deadlock(
            "election budget exceeded after 2000001 schedule decisions — livelock".into(),
        );
        assert!(matches!(
            classify(&livelock, &Expected::Deadlock),
            Verdict::Saturated
        ));
        assert!(matches!(
            classify(&livelock, &Expected::Clean),
            Verdict::Saturated
        ));
    }

    /// Sizes [`crate::runner::LIVELOCK_ELECTION_BUDGET`]: every registry
    /// app's baseline run must finish with an order of magnitude of
    /// headroom, so the guard can never clip a legitimate run.
    #[test]
    fn baseline_runs_fit_far_under_the_livelock_budget() {
        use crate::runner::LIVELOCK_ELECTION_BUDGET;
        for spec in crate::registry::registry() {
            if spec.always_triggers {
                continue;
            }
            let o = crate::runner::run_scenario(&Scenario::baseline(spec));
            if matches!(spec.expected, Expected::Clean) {
                assert!(
                    !matches!(&o, Outcome::Deadlock(m) if m.contains("election budget")),
                    "{}: baseline clipped by the livelock guard: {}",
                    spec.name,
                    o.brief()
                );
            }
        }
        // The budget itself stays comfortably large.
        const { assert!(LIVELOCK_ELECTION_BUDGET >= 1_000_000) };
    }

    #[test]
    fn fixture_skipping_and_report_ok() {
        let fix = app("stale_read").expect("always-triggers fixture");
        let r = fuzz_app(fix, &FuzzConfig::default());
        assert!(r.skipped, "checker fixtures are not fuzzed");
        assert!(r.ok());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn tiny_campaign_on_a_clean_app_grows_a_corpus() {
        let spec = app("dotprod").expect("registry app");
        let cfg = FuzzConfig {
            execs: 6,
            master_seed: 11,
            out_dir: std::env::temp_dir().join(format!("svmfuzz_t_{}", std::process::id())),
            ..FuzzConfig::default()
        };
        let r = fuzz_app(spec, &cfg);
        assert!(r.ok(), "clean app must stay clean: {}", r.detail);
        assert_eq!(r.execs, 6);
        assert!(r.coverage_bits > 0, "trace build must observe coverage");
        assert!(r.corpus_len >= 1, "baseline always seeds the corpus");
        // Determinism: the same campaign twice is bit-identical.
        let r2 = fuzz_app(spec, &cfg);
        assert_eq!(r.coverage_fp, r2.coverage_fp);
        assert_eq!(r.corpus_len, r2.corpus_len);
        assert_eq!(r.corpus_admitted, r2.corpus_admitted);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }
}
