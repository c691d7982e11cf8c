//! `svmexplore` — deterministic schedule exploration and fault injection
//! over the registered apps and planted-bug fixtures.
//!
//! ```text
//! svmexplore [--seeds N] [--clean-seeds N] [--out DIR] [--json FILE]
//!            [--app NAME] [--replay FILE]
//! ```
//!
//! Default mode sweeps the whole registry: clean apps must stay clean
//! under the baton, sampled random schedules and a dropped-doorbell fault
//! plan (recovering via `mbx.retries`); every planted bug must be found
//! within the seed budget and shrunk to a replay file under `--out`
//! (default `results/`). `--app` restricts the sweep to one registry
//! entry. `--replay FILE` re-executes a previously written reproducer and
//! checks it still lands in its recorded outcome class.
//!
//! Exit status: 0 — every explored app matched its contract (or the
//! replay re-triggered); 1 — a planted bug was missed, a clean app
//! misbehaved, or the replay diverged; 2 — usage or I/O error.

use scc_checker::json;
use scc_explore::{
    app, explore_app, explore_registry, parse_replay_full, run_scenario, ExploreConfig,
    ReplayError, Summary,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cfg: ExploreConfig,
    json: Option<PathBuf>,
    app: Option<String>,
    replay: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: ExploreConfig::default(),
        json: None,
        app: None,
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--seeds" => {
                let v = val("--seeds")?;
                args.cfg.seed_budget = v.parse().map_err(|_| format!("bad --seeds: {v}"))?;
            }
            "--clean-seeds" => {
                let v = val("--clean-seeds")?;
                args.cfg.clean_seeds =
                    v.parse().map_err(|_| format!("bad --clean-seeds: {v}"))?;
            }
            "--out" => args.cfg.out_dir = PathBuf::from(val("--out")?),
            "--json" => args.json = Some(PathBuf::from(val("--json")?)),
            "--app" => args.app = Some(val("--app")?),
            "--replay" => args.replay = Some(PathBuf::from(val("--replay")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Injected deadlocks and budget-exhaustion panics are *expected* outcomes
/// of an exploration run; keep the default hook from spraying their
/// backtraces over the report.
fn silence_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn run_replay(path: &PathBuf) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = parse_replay_full(&text).map_err(|e| e.to_string())?;
    // A replay only reproduces on the mesh it was recorded on: refuse to
    // run one against the wrong SCC_TOPOLOGY instead of silently
    // diverging (wrong core ids, missed fault filters, other elections).
    if let Err(e @ ReplayError::TopologyMismatch { .. }) = parsed.verify_topology() {
        return Err(e.to_string());
    }
    let (sc, expected) = (parsed.scenario, parsed.expected);
    println!(
        "replaying {} — app {}, expecting {}",
        path.display(),
        sc.app.name,
        expected.describe()
    );
    let o = run_scenario(&sc);
    let ok = o.satisfies(&expected);
    println!(
        "outcome: {} — {}",
        o.brief(),
        if ok { "re-triggered" } else { "DIVERGED" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("svmexplore: {msg}");
            }
            eprintln!(
                "usage: svmexplore [--seeds N] [--clean-seeds N] [--out DIR] \
                 [--json FILE] [--app NAME] [--replay FILE]"
            );
            return ExitCode::from(2);
        }
    };

    silence_panics();

    if let Some(path) = &args.replay {
        return match run_replay(path) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("svmexplore: {e}");
                ExitCode::from(2)
            }
        };
    }

    let summary = match &args.app {
        Some(name) => match app(name) {
            Some(spec) => Summary {
                seed_budget: args.cfg.seed_budget,
                apps: vec![explore_app(spec, &args.cfg)],
            },
            None => {
                eprintln!("svmexplore: no registered app named '{name}'");
                return ExitCode::from(2);
            }
        },
        None => explore_registry(&args.cfg),
    };

    print!("{}", summary.render_text());
    if let Some(path) = &args.json {
        if let Err(e) = json::write_file(path, &summary.to_json()) {
            eprintln!("svmexplore: {e}");
            return ExitCode::from(2);
        }
        println!("summary written to {}", path.display());
    }
    if summary.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
