//! The benchmark's command line. Runs one workload for a time budget as
//! repeated passes, checks every output, prints every metric by name with
//! its unit, and ends with one JSON result line.
//!
//! Usage: `cargo run --release --manifest-path perfbench/Cargo.toml --
//!         --workload paper48|kv128|mesh512 [--seed N] [--seconds S]
//!         [--trace 0|1]`
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs untraced
//! passes, then traced ones (spans around the benchmark's calls into each
//! layer) and the layer probes, and reports the per-layer metrics.

use perfbench::cell::{Metric, PassOut, Runner};
use perfbench::host;
use perfbench::span::SpanLog;
use perfbench::{probes, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload paper48|kv128|mesh512 [--seed N] \
                     [--seconds S] [--trace 0|1]";

/// Passes per run are capped so a fast workload does not repeat forever.
const MAX_PASSES: usize = 64;

/// The end-to-end metrics, reported with `--trace 0`. Wall-clock figures
/// (`wall_s`, `setup_wall_s`) are printed but not gated: on a shared
/// virtual machine hypervisor steal stretches them far beyond any bound,
/// while process CPU time stays steady.
const END_TO_END: [&str; 3] = ["cpu_s", "setup_s", "peak_rss_mb"];

/// The per-layer metrics, reported with `--trace 1`: layer counters of the
/// workload's own cells, the executor's host split, the layer probes on
/// the workload's machine shape, and the tracing overhead.
const PER_LAYER: [&str; 46] = [
    "hw.l1_hits",
    "hw.l1_misses",
    "hw.ram_reads",
    "hw.ram_writes",
    "hw.wcb_flushes",
    "hw.mpb_reads",
    "hw.mpb_writes",
    "hw.cl1invmb",
    "hw.vread_host_ns",
    "hw.vread_sim_cycles",
    "exec.elections",
    "exec.yields",
    "exec.fast_yields",
    "exec.blocks",
    "exec.park_watchdog",
    "exec.ctx_switches",
    "exec.sys_s",
    "exec.cpu_util",
    "kernel.tlb_hits",
    "kernel.tlb_misses",
    "kernel.tlb_shootdowns",
    "kernel.coll.barriers",
    "kernel.coll.hops",
    "kernel.barrier_sim_us",
    "kernel.barrier_host_ms",
    "mbx.sent",
    "mbx.checks",
    "mbx.retries",
    "mbx.send_stalls",
    "mbx.poll_1hop_us",
    "mbx.poll_diam_us",
    "mbx.ipi_1hop_us",
    "mbx.ipi_diam_us",
    "mbx.rtt_host_us",
    "svm.faults",
    "svm.ownership_transfers",
    "svm.first_touch_allocs",
    "svm.invalidations",
    "svm.migration_sim_us",
    "svm.migration_host_us",
    "svm.lrc_pair_sim_us",
    "svm.lrc_pair_host_us",
    "rcce.allreduce_sim_us",
    "rcce.allreduce_host_ms",
    "trace.overhead_s",
    "trace.spans",
];

/// Counters that depend on host timing, not on the simulation.
const HOST_COUNTERS: [&str; 1] = ["exec.park_watchdog"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One pass: `body` runs with a fresh runner under a pass span `name`.
fn one_pass(log: &mut SpanLog, run: u32, name: String, body: impl FnOnce(&mut Runner)) -> PassOut {
    let steal0 = host::steal_s();
    let mut r = Runner::new(log, run);
    let id = r.log.open(name, None, run, Instant::now());
    r.parent = Some(id);
    body(&mut r);
    r.log.close(id, Instant::now());
    r.out.steal_s = host::steal_s() - steal0;
    r.out
}

/// Run passes of `w` until the budget would be exceeded (at least one),
/// stopping early after a pass with errors. Also returns the process's
/// peak resident memory at the end of the first pass: later passes reuse
/// or fragment the heap, so only the first is comparable across runs.
fn passes(
    w: Workload,
    seed: u64,
    log: &mut SpanLog,
    budget: Duration,
    run0: u32,
) -> (Vec<PassOut>, f64) {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut longest = Duration::ZERO;
    let mut rss = 0.0;
    loop {
        let ts = Instant::now();
        let run = run0 + out.len() as u32;
        let p = one_pass(log, run, format!("pass.{}", w.name()), |r| w.pass(r, seed));
        let failed = !p.errors.is_empty();
        out.push(p);
        if out.len() == 1 {
            rss = host::peak_rss_mib();
        }
        longest = longest.max(ts.elapsed());
        if failed || out.len() >= MAX_PASSES || t0.elapsed() + longest > budget {
            return (out, rss);
        }
    }
}

/// Everything one run measured.
struct Measured {
    /// Untraced passes: the end-to-end figures.
    plain: Vec<PassOut>,
    /// Traced passes (`--trace 1`): the per-layer figures.
    traced: Vec<PassOut>,
    /// The layer probes on the workload's own shape (`--trace 1`, except
    /// `mesh512`, whose passes already are the probes).
    probe: Option<PassOut>,
    /// Peak RSS after the first pass, MiB.
    rss: f64,
    spans: SpanLog,
}

impl Measured {
    fn run(args: &Args) -> Measured {
        let w = args.workload;
        let budget = Duration::from_secs_f64(args.seconds);
        let mut plain_log = SpanLog::new(false);
        let mut spans = SpanLog::new(true);
        if !args.trace {
            let (plain, rss) = passes(w, args.seed, &mut plain_log, budget, 0);
            return Measured {
                plain,
                traced: Vec::new(),
                probe: None,
                rss,
                spans,
            };
        }
        let (plain, rss) = passes(w, args.seed, &mut plain_log, budget / 2, 0);
        let (traced, _) = passes(w, args.seed, &mut spans, budget / 2, plain.len() as u32);
        let run = (plain.len() + traced.len()) as u32;
        let probe = (w != Workload::Mesh512).then(|| {
            one_pass(&mut spans, run, format!("probes.{}", w.name()), |r| {
                probes::run_all(r, w.topology(), args.seed)
            })
        });
        Measured {
            plain,
            traced,
            probe,
            rss,
            spans,
        }
    }

    /// The workload passes, untraced then traced.
    fn all(&self) -> impl Iterator<Item = &PassOut> {
        self.plain.iter().chain(&self.traced)
    }

    /// Every pass including the probe pass.
    fn every(&self) -> impl Iterator<Item = &PassOut> {
        self.all().chain(&self.probe)
    }

    /// Output checks plus the determinism gate: every simulated result and
    /// counter repeats exactly pass to pass, traced to untraced, and
    /// process to process on the same sources (`key`).
    fn errors(&self, key: &str) -> Vec<String> {
        let mut errors: Vec<String> = self.every().flat_map(|p| p.errors.clone()).collect();
        let first = digest(&self.plain[0]);
        if self.all().any(|p| digest(p) != first) {
            errors.push("simulated results differ between passes of one run".to_string());
        }
        errors.extend(ledger(key, &first).err());
        if let Some(p) = &self.probe {
            errors.extend(ledger(&format!("{key}-probes"), &digest(p)).err());
        }
        errors
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Everything a pass's simulation determined: its simulated results and
/// its layer counters, bit for bit.
fn digest(p: &PassOut) -> String {
    let mut s = String::new();
    for m in &p.sim {
        let _ = writeln!(s, "{} {:016x}", m.name, m.value.to_bits());
    }
    for (name, v) in p.counters.iter() {
        if !HOST_COUNTERS.contains(&name) {
            let _ = writeln!(s, "{name} {v}");
        }
    }
    s
}

/// Compare `digest` with what an earlier process recorded for the same
/// source tree, workload and seed; record it if this is the first.
fn ledger(key: &str, digest: &str) -> Result<(), String> {
    let dir = host::out_dir().join("ledger");
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev == digest => Ok(()),
        Ok(prev) => {
            let diff = prev
                .lines()
                .zip(digest.lines())
                .find(|(a, b)| a != b)
                .map_or("the metric sets differ".to_string(), |(a, b)| {
                    format!("recorded {a:?}, now {b:?}")
                });
            Err(format!(
                "simulated results differ from an earlier run of the same source tree ({}): {diff}",
                path.display()
            ))
        }
        Err(_) => {
            // Write, then rename: a concurrent reader never sees half a file.
            let tmp = dir.join(format!("{key}.{}.tmp", std::process::id()));
            std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&tmp, digest))
                .and_then(|_| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Host figures of `ps` as medians over the passes that measured them.
fn host_medians(ps: &[&PassOut]) -> Vec<Metric> {
    let Some(p0) = ps.first() else {
        return Vec::new();
    };
    p0.host
        .iter()
        .map(|m| {
            let v = ps
                .iter()
                .filter_map(|p| p.host.iter().find(|x| x.name == m.name))
                .map(|x| x.value)
                .collect();
            metric(&m.name, median(v), m.unit)
        })
        .collect()
}

fn med(ps: &[&PassOut], f: impl Fn(&PassOut) -> f64) -> f64 {
    median(ps.iter().map(|p| f(p)).collect())
}

/// The executor's host split over `ps`.
fn exec_split(ps: &[&PassOut]) -> Vec<Metric> {
    let wall = med(ps, |p| p.wall.as_secs_f64());
    let cpu = med(ps, |p| p.usage.cpu_s());
    vec![
        metric(
            "exec.ctx_switches",
            med(ps, |p| p.usage.ctx_switches as f64),
            "count",
        ),
        metric("exec.sys_s", med(ps, |p| p.usage.sys_s), "s"),
        metric("exec.cpu_util", cpu / wall, "ratio"),
        metric("exec.idle_s", (wall - cpu).max(0.0), "s"),
    ]
}

/// The run's metrics in report order: end to end, simulated results,
/// host costs, per layer.
fn sections(m: &Measured, failed_share: f64) -> [(&'static str, Vec<Metric>); 4] {
    let plain: Vec<&PassOut> = m.plain.iter().collect();
    let wall_s = med(&plain, |p| p.wall.as_secs_f64());
    let e2e = vec![
        metric("cpu_s", med(&plain, |p| p.usage.cpu_s()), "s"),
        metric("setup_s", med(&plain, |p| p.setup_cpu_s), "s"),
        metric("wall_s", wall_s, "s"),
        metric("setup_wall_s", med(&plain, |p| p.setup.as_secs_f64()), "s"),
        metric("peak_rss_mb", m.rss, "MiB"),
        metric("failed_share", failed_share, "ratio"),
    ];
    // Counters are identical in every pass (checked); zero counters are
    // left out unless the per-layer list names them.
    let mut layer: Vec<Metric> = m.plain[0]
        .counters
        .iter()
        .filter(|(name, v)| *v != 0 || PER_LAYER.contains(name))
        .map(|(name, v)| metric(name, v as f64, "count"))
        .collect();
    if m.traced.is_empty() {
        layer.extend(exec_split(&plain));
    } else {
        let traced: Vec<&PassOut> = m.traced.iter().collect();
        layer.extend(exec_split(&traced));
        let probes: Vec<&PassOut> = match &m.probe {
            Some(p) => vec![p],
            None => traced.clone(),
        };
        layer.extend(probes[0].sim.iter().cloned());
        layer.extend(host_medians(&probes));
        let traced_wall = med(&traced, |p| p.wall.as_secs_f64());
        layer.push(metric("trace.overhead_s", traced_wall - wall_s, "s"));
        layer.push(metric("trace.spans", m.spans.len() as f64, "count"));
    }
    let sims: Vec<Metric> = m.plain[0]
        .sim
        .iter()
        .filter(|s| !layer.iter().any(|l| l.name == s.name))
        .cloned()
        .collect();
    let mut hosts = host_medians(&plain);
    hosts.retain(|h| !layer.iter().any(|l| l.name == h.name));
    [
        ("end-to-end (host, untraced passes)", e2e),
        ("simulated results", sims),
        ("host costs", hosts),
        ("per-layer", layer),
    ]
}

fn render(m: &Measured, sections: &[(&str, Vec<Metric>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "passes: {} untraced, {} traced{}",
        m.plain.len(),
        m.traced.len(),
        if m.probe.is_some() {
            ", 1 probe pass"
        } else {
            ""
        },
    );
    for (i, p) in m.all().enumerate() {
        let kind = if i < m.plain.len() {
            "untraced"
        } else {
            "traced"
        };
        let _ = writeln!(
            out,
            "pass {i} ({kind}): wall {:.4} s, cpu {:.4} s (sys {:.4}), setup wall {:.4} s \
             cpu {:.4} s, steal {:.2} s",
            p.wall.as_secs_f64(),
            p.usage.cpu_s(),
            p.usage.sys_s,
            p.setup.as_secs_f64(),
            p.setup_cpu_s,
            p.steal_s,
        );
    }
    for (title, ms) in sections {
        let _ = writeln!(out, "-- {title}");
        for x in ms {
            let _ = writeln!(out, "metric {:<28} {:>18} {}", x.name, x.value, x.unit);
        }
    }
    if !m.traced.is_empty() {
        let _ = writeln!(
            out,
            "-- spans (traced passes): count, host ms, self host ms, sim cycles"
        );
        for (name, (n, total, own, sim)) in m.spans.summary() {
            let _ = writeln!(
                out,
                "span {name:<30} {n:>7} {total:>12.3} {own:>12.3} {sim:>14}"
            );
        }
    }
    out
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let fingerprint = host::source_fingerprint();
    let rev = host::git_rev().unwrap_or_else(|| "none (not a git checkout)".to_string());
    let provenance = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"core_threads\": {}, \"executor\": \"serial baton\", \"git_rev\": \"{rev}\", \
         \"source_fingerprint\": \"{fingerprint}\", \"profile\": \"{}\"",
        w.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        w.topology().num_cores(),
        host::build_profile(),
    );
    println!("perfbench {{{provenance}}}");

    let m = Measured::run(&args);
    let mut errors = m.errors(&format!("{fingerprint}-{}-seed{}", w.name(), args.seed));
    let attempted: u64 = m.every().map(|p| p.attempted).sum();
    let failed: u64 = m.every().map(|p| p.failed).sum();
    let sections = sections(&m, failed as f64 / attempted.max(1) as f64);
    println!("attempted {attempted}, failed {failed}");
    print!("{}", render(&m, &sections));

    let out_dir = host::out_dir();
    let stem = format!("{}-seed{}", w.name(), args.seed);
    let body: Vec<String> = ["end_to_end", "simulated", "host", "per_layer"]
        .iter()
        .zip(&sections)
        .map(|(key, (_, ms))| format!("\"{key}\": {}", json_metrics(ms)))
        .collect();
    let mut files = vec![(
        out_dir.join(format!("result-{stem}-trace{}.json", u8::from(args.trace))),
        format!("{{{provenance}, {}}}\n", body.join(", ")),
    )];
    if args.trace {
        files.push((
            out_dir.join(format!("spans-{stem}.json")),
            m.spans.to_json(&provenance),
        ));
    }
    for (path, text) in files {
        match std::fs::create_dir_all(&out_dir).and_then(|_| std::fs::write(&path, text)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => errors.push(format!("{}: {e}", path.display())),
        }
    }

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut chosen = Vec::new();
    for name in wanted {
        let found = sections
            .iter()
            .flat_map(|(_, ms)| ms)
            .find(|x| x.name == *name);
        match found {
            Some(x) if x.value.is_finite() => chosen.push(x.clone()),
            Some(x) => errors.push(format!("metric {name} is not finite ({})", x.value)),
            None => errors.push(format!("metric {name} was not measured")),
        }
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&chosen)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "kv128",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::Kv128);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments_without_panicking() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "paper48", "--bogus"],
            &["--workload", "paper48", "--trace", "2"],
            &["--workload", "paper48", "--seconds", "-1"],
            &["--workload", "paper48", "--seed"],
            &["--seed", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be a usage error");
        }
    }

    #[test]
    fn result_lines_carry_the_metrics_benchmark_json_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the package");
        let names = json.matches("\"name\":").count();
        assert_eq!(
            names,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for name in Workload::ALL
            .map(Workload::name)
            .iter()
            .chain(&END_TO_END)
            .chain(&PER_LAYER)
        {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
