//! `svmfuzz` — coverage-guided concurrency fuzzing over the registered
//! apps, with `svm-check` as the oracle.
//!
//! ```text
//! svmfuzz [--execs N] [--seed S] [--jobs J] [--corpus DIR] [--out DIR]
//!         [--json FILE] [--app NAME] [--bench FILE]
//! ```
//!
//! Single-process mode (`--jobs 1`, the default) runs one deterministic
//! campaign: same seed, same corpus directory → bit-identical coverage
//! maps, corpora and findings. `--jobs J` fans the budget out across J
//! host processes, each a deterministic campaign under a derived seed
//! (`seed + i·golden`), all sharing `--corpus DIR`: entries are written
//! under content-hash names so concurrent admitters never clobber each
//! other, and each worker reads the directory only at startup. The
//! parent merges the workers' JSON reports.
//!
//! `--bench FILE` runs the seed-sweep-vs-fuzzer comparison and the
//! large-mesh campaign instead, writing `BENCH_fuzz.json`-style output
//! (see EXPERIMENTS.md).
//!
//! Exit status: 0 — every fuzzed app matched its contract (planted bugs
//! found, clean apps clean); 1 — a contract was missed; 2 — usage or
//! I/O error.

use scc_checker::json::{self, Json};
use scc_explore::fuzz::blind_execs_to_find;
use scc_explore::{app, fuzz_app, fuzz_registry, registry, FuzzConfig, FuzzSummary};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cfg: FuzzConfig,
    jobs: u64,
    json: Option<PathBuf>,
    app: Option<String>,
    bench: Option<PathBuf>,
    /// Set on spawned workers: worker index (0-based). Hidden flag.
    worker: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: FuzzConfig::default(),
        jobs: 1,
        json: None,
        app: None,
        bench: None,
        worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--execs" => {
                let v = val("--execs")?;
                args.cfg.execs = v.parse().map_err(|_| format!("bad --execs: {v}"))?;
            }
            "--seed" => {
                let v = val("--seed")?;
                args.cfg.master_seed = v.parse().map_err(|_| format!("bad --seed: {v}"))?;
            }
            "--jobs" => {
                let v = val("--jobs")?;
                args.jobs = v.parse().map_err(|_| format!("bad --jobs: {v}"))?;
                if args.jobs == 0 || args.jobs > 64 {
                    return Err(format!("--jobs must be 1..=64, got {}", args.jobs));
                }
            }
            "--corpus" => args.cfg.corpus_dir = Some(PathBuf::from(val("--corpus")?)),
            "--out" => args.cfg.out_dir = PathBuf::from(val("--out")?),
            "--json" => args.json = Some(PathBuf::from(val("--json")?)),
            "--app" => args.app = Some(val("--app")?),
            "--bench" => args.bench = Some(PathBuf::from(val("--bench")?)),
            "--worker" => {
                let v = val("--worker")?;
                args.worker = Some(v.parse().map_err(|_| format!("bad --worker: {v}"))?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if let Some(name) = &args.app {
        args.cfg.apps = vec![name.clone()];
    }
    Ok(args)
}

/// Injected deadlocks and saturation panics are expected fuzzing
/// outcomes; keep the default hook from spraying backtraces.
fn silence_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// Derive worker i's master seed: far-apart deterministic streams.
fn worker_seed(master: u64, i: u64) -> u64 {
    master.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fan the campaign out over `jobs` worker processes sharing the corpus
/// directory. Each worker is itself fully deterministic; the parent
/// merges their reports (a find in any worker is a find).
fn run_jobs(args: &Args) -> Result<FuzzSummary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let per_worker = (args.cfg.execs / args.jobs).max(2);
    let mut children = Vec::new();
    for i in 0..args.jobs {
        let wjson = args
            .cfg
            .out_dir
            .join(format!("FUZZ_worker_{i}.json"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--worker")
            .arg(i.to_string())
            .arg("--execs")
            .arg(per_worker.to_string())
            .arg("--seed")
            .arg(worker_seed(args.cfg.master_seed, i).to_string())
            .arg("--out")
            .arg(args.cfg.out_dir.join(format!("worker_{i}")))
            .arg("--json")
            .arg(&wjson);
        if let Some(d) = &args.cfg.corpus_dir {
            cmd.arg("--corpus").arg(d);
        }
        if let Some(a) = &args.app {
            cmd.arg("--app").arg(a);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker {i}: {e}"))?;
        children.push((i, child, wjson));
    }
    // Workers write their own JSON; the parent merges their reports into
    // a shell listing the campaign's apps. One execution per app (the
    // baseline, milliseconds each) gives the shell honest expected/skipped
    // fields without duplicating registry logic here.
    let mut merged = fuzz_registry(&FuzzConfig {
        execs: 1,
        master_seed: args.cfg.master_seed,
        corpus_dir: None,
        out_dir: args.cfg.out_dir.clone(),
        apps: args.cfg.apps.clone(),
    });
    let mut failed = Vec::new();
    for (i, mut child, wjson) in children {
        let status = child
            .wait()
            .map_err(|e| format!("waiting for worker {i}: {e}"))?;
        match status.code() {
            Some(0) | Some(1) => {}
            c => failed.push(format!("worker {i} exited with {c:?}")),
        }
        let text = std::fs::read_to_string(&wjson)
            .map_err(|e| format!("worker {i} report {}: {e}", wjson.display()))?;
        apply_worker(&mut merged, &text, per_worker);
    }
    if !failed.is_empty() {
        return Err(failed.join("; "));
    }
    Ok(merged)
}

/// Fold one worker's JSON report into the merged summary.
fn apply_worker(m: &mut FuzzSummary, report: &str, per_worker: u64) {
    for row in json::rows(report, "apps") {
        let name = json::field(row, "name");
        let Some(a) = m.apps.iter_mut().find(|a| name == Some(a.name)) else {
            continue;
        };
        let num = |key| json::field(row, key).and_then(|v| v.parse::<u64>().ok());
        a.execs = a.execs.max(per_worker);
        a.false_findings += num("false_findings").unwrap_or(0);
        if json::field(row, "found") == Some("true") {
            a.found = true;
            // Wall-clock budget: workers run concurrently, so the
            // campaign's cost-to-find is the best worker's.
            a.execs_to_find = match (a.execs_to_find, num("execs_to_find")) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, y) => x.or(y),
            };
        }
    }
}

// ---------------------------------------------------------------------
// Benchmark mode: blind seed sweep vs coverage-guided fuzzing, plus a
// large-mesh campaign. Writes the BENCH_fuzz.json consumed by
// EXPERIMENTS.md.
// ---------------------------------------------------------------------

/// The benchmark document and its verdict.
fn bench(args: &Args) -> Result<(String, bool), String> {
    let budget = args.cfg.execs.max(24);
    let fixtures: Vec<&'static scc_explore::AppSpec> = registry()
        .iter()
        .filter(|s| !s.always_triggers && s.expected != scc_explore::Expected::Clean)
        .collect();
    if fixtures.is_empty() {
        return Err("no schedule fixtures registered".into());
    }

    let mut rows = Vec::new();
    let (mut blind_total, mut fuzz_total) = (0u64, 0u64);
    let mut all_found = true;
    for spec in &fixtures {
        let blind = blind_execs_to_find(spec, budget);
        let cfg = FuzzConfig {
            execs: budget,
            master_seed: args.cfg.master_seed,
            corpus_dir: None,
            out_dir: args.cfg.out_dir.clone(),
            apps: vec![],
        };
        let fz = fuzz_app(spec, &cfg);
        blind_total += blind.unwrap_or(budget + 1);
        fuzz_total += fz.execs_to_find.unwrap_or(budget + 1);
        all_found &= fz.found && blind.is_some();
        rows.push(vec![
            ("name", spec.name.into()),
            ("blind_execs_to_find", blind.into()),
            ("fuzz_execs_to_find", fz.execs_to_find.into()),
            ("fuzz_found", fz.found.into()),
            ("fuzz_coverage_bits", fz.coverage_bits.into()),
            ("fuzz_corpus", fz.corpus_len.into()),
        ]);
    }

    // Large-mesh campaign: clean apps on a 64-core mesh must fuzz with
    // corpus growth and zero false findings. SccConfig::small() re-reads
    // SCC_TOPOLOGY per run, so an in-process env swap switches the mesh.
    let prev = std::env::var("SCC_TOPOLOGY").ok();
    std::env::set_var("SCC_TOPOLOGY", "8x8x1:4");
    let mesh_cfg = FuzzConfig {
        execs: args.cfg.execs.clamp(10, 40),
        master_seed: args.cfg.master_seed,
        corpus_dir: None,
        out_dir: args.cfg.out_dir.join("mesh64"),
        apps: vec!["dotprod".into(), "pipeline".into(), "kv".into()],
    };
    let mesh = fuzz_registry(&mesh_cfg);
    match prev {
        Some(v) => std::env::set_var("SCC_TOPOLOGY", v),
        None => std::env::remove_var("SCC_TOPOLOGY"),
    }
    let mesh_growth: u64 = mesh.apps.iter().map(|a| a.corpus_admitted).sum();
    let mesh_false: u64 = mesh.apps.iter().map(|a| a.false_findings).sum();
    let ok = all_found && fuzz_total < blind_total && mesh.ok() && mesh_growth > 0;
    let mesh64 = Json::Obj(vec![
        ("topology", "8x8x1:4".into()),
        ("execs_per_app", mesh_cfg.execs.into()),
        ("apps", mesh.apps.len().into()),
        ("ok", mesh.ok().into()),
        ("corpus_admitted", mesh_growth.into()),
        ("false_findings", mesh_false.into()),
        (
            "coverage_bits",
            Json::List(mesh.apps.iter().map(|a| a.coverage_bits.into()).collect()),
        ),
    ]);
    let doc = json::document(&[
        ("budget", budget.into()),
        ("master_seed", args.cfg.master_seed.into()),
        ("fixtures", Json::Rows(rows)),
        ("blind_total_execs", blind_total.into()),
        ("fuzz_total_execs", fuzz_total.into()),
        ("fuzzer_wins", (fuzz_total < blind_total).into()),
        ("mesh64", mesh64),
        ("ok", ok.into()),
    ]);
    Ok((doc, ok))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("svmfuzz: {msg}");
            }
            eprintln!(
                "usage: svmfuzz [--execs N] [--seed S] [--jobs J] [--corpus DIR] \
                 [--out DIR] [--json FILE] [--app NAME] [--bench FILE]"
            );
            return ExitCode::from(2);
        }
    };

    silence_panics();

    if let Some(path) = &args.bench {
        return match bench(&args) {
            Ok((doc, ok)) => {
                if let Err(e) = json::write_file(path, &doc) {
                    eprintln!("svmfuzz: {e}");
                    return ExitCode::from(2);
                }
                println!("benchmark written to {}", path.display());
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("svmfuzz: {e}");
                ExitCode::from(2)
            }
        };
    }

    let summary = if args.jobs > 1 && args.worker.is_none() {
        match run_jobs(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("svmfuzz: {e}");
                return ExitCode::from(2);
            }
        }
    } else if let Some(name) = &args.app {
        match app(name) {
            Some(spec) => FuzzSummary {
                master_seed: args.cfg.master_seed,
                execs_budget: args.cfg.execs,
                apps: vec![fuzz_app(spec, &args.cfg)],
            },
            None => {
                eprintln!("svmfuzz: no registered app named '{name}'");
                return ExitCode::from(2);
            }
        }
    } else {
        fuzz_registry(&args.cfg)
    };

    print!("{}", summary.render_text());
    if let Some(path) = &args.json {
        if let Err(e) = json::write_file(path, &summary.to_json()) {
            eprintln!("svmfuzz: {e}");
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
