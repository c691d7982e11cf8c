//! The experiments behind `svmbench`'s subcommands, one module each,
//! named after the subcommand. Each module's `run` reads only the [`Args`]
//! fields its subcommand accepts; the binary rejects every other flag
//! before calling it.

pub mod ablation_affinity;
pub mod ablation_notify;
pub mod ablation_readonly;
pub mod ablation_scratchpad;
pub mod bench_checker;
pub mod bench_fastpath;
pub mod bench_kv;
pub mod bench_scale;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod table1;
pub mod trace_fixture;
pub mod trace_kv;
pub mod trace_laplace;

use std::path::Path;
use std::time::Instant;

use crate::{laplace_config, laplace_run_on, LaplaceRun, LaplaceVariant};
use metalsvm::SvmConfig;
use scc_apps::laplace::LaplaceParams;
use scc_checker::json::{self, Json};
use scc_checker::parse::{chrome_trace_json, protocol_log};
use scc_checker::Stream;
use scc_hw::instr::TraceConfig;
use scc_hw::{CoreId, SccConfig, TraceRing};
use scc_mailbox::Notify;

/// The parsed command line of one `svmbench` run.
#[derive(Debug, Default)]
pub struct Args {
    /// `--quick`: the small grid / short sweep.
    pub quick: bool,
    /// `--iters N`: override the iteration (or request) count.
    pub iters: Option<usize>,
    /// `--reps N`: best-of-N repetitions of host wall-clock timings.
    pub reps: Option<usize>,
    /// `--force`: overwrite a result file [`refuse_clobber`] protects.
    pub force: bool,
    /// `trace_fixture`'s fixture names (empty: all of them).
    pub fixtures: Vec<String>,
}

/// Guard a recorded result: unless `--force` was given, refuse to
/// overwrite `path` when `protected` returns a reason for the value the
/// file records under `key`. Prints the refusal and returns true if so.
fn refuse_clobber(
    args: &Args,
    path: &str,
    key: &str,
    protected: impl FnOnce(&str) -> Option<String>,
) -> bool {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let why = json::field(&text, key).and_then(protected);
    match why.filter(|_| !args.force) {
        Some(why) => {
            println!("{why} Refusing to overwrite it — pass --force to do so anyway.");
            true
        }
        None => false,
    }
}

/// Write `text` to `path`, creating its directory; exit 2 on failure.
fn write_out(path: &str, text: &str) {
    if let Err(e) = json::write_file(Path::new(path), text) {
        eprintln!("svmbench: {e}");
        std::process::exit(2);
    }
}

/// Write a result file in the workspace JSON layout and say so.
fn write_result(path: &str, fields: &[(&'static str, Json)]) {
    write_out(path, &json::document(fields));
    println!("wrote {path}");
}

/// Export `rings` as `results/TRACE_<name>.json` (Chrome `trace_event`
/// format) and `results/TRACE_<name>.log` (protocol log) and say so.
fn export_trace(name: &str, rings: &[(CoreId, TraceRing)]) {
    let mhz = SccConfig::default().timing.core_mhz;
    let stream = Stream::from_rings(rings.iter().map(|(c, r)| (*c, r)));
    let json = chrome_trace_json(&stream, mhz);
    let log = protocol_log(&stream);
    write_out(&format!("results/TRACE_{name}.json"), &json);
    write_out(&format!("results/TRACE_{name}.log"), &log);
    println!(
        "wrote results/TRACE_{name}.json ({} KiB) and results/TRACE_{name}.log ({} lines)",
        json.len() / 1024,
        log.lines().count()
    );
}

/// Warn that without the `trace` feature the rings stay empty, and what
/// that means for this harness.
fn warn_if_untraced(consequence: &str) {
    if !TraceRing::compiled_in() {
        eprintln!("warning: built without the `trace` feature — {consequence}.");
    }
}

/// Run `a` then `b`, `reps` times over: the best wall-clock seconds of
/// each with its last result, plus the wall-clock seconds of `b`'s last
/// run. Alternating keeps slow host drift from favouring either side.
fn best_of<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((f64, A), (f64, B, f64)) {
    let (mut a_s, mut b_s, mut b_last_s) = (f64::INFINITY, f64::INFINITY, 0.0);
    let (mut a_out, mut b_out) = (None, None);
    for _ in 0..reps {
        let t0 = Instant::now();
        a_out = Some(a());
        a_s = a_s.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        b_out = Some(b());
        b_last_s = t0.elapsed().as_secs_f64();
        b_s = b_s.min(b_last_s);
    }
    let (a_out, b_out) = (a_out.expect("reps >= 1"), b_out.expect("reps >= 1"));
    ((a_s, a_out), (b_s, b_out, b_last_s))
}

/// The strong-model Laplace cell on `n` cores recorded under `trace`,
/// with each core's event ring.
fn laplace_strong_traced(
    n: usize,
    p: LaplaceParams,
    trace: TraceConfig,
) -> (LaplaceRun, Vec<(CoreId, TraceRing)>) {
    let cfg = SccConfig {
        trace,
        ..laplace_config(n, p)
    };
    let svm = SvmConfig::default();
    let (run, obs) = laplace_run_on(cfg, LaplaceVariant::SvmStrong, n, p, Notify::Ipi, svm);
    (run, obs.into_iter().map(|o| (o.core, o.trace)).collect())
}

/// The Laplace grid as a one-line JSON object.
fn grid(p: LaplaceParams) -> Json {
    Json::Obj(vec![
        ("width", p.width.into()),
        ("height", p.height.into()),
        ("iters", p.iters.into()),
    ])
}
