//! Host wall-clock benchmark of the simulator's fast paths.
//!
//! Runs the Figure 9 Laplace cell (paper grid, 48 cores) per variant with
//! every host fast path disabled (full page-table walk per element, full
//! decision round per yield) and with the default fast paths (simulated
//! TLB, bulk accessors, executor fast yield). Simulated results are
//! asserted bit-identical; only host time differs. Each configuration is
//! timed `--reps` times and the minimum wall time is reported — the
//! standard low-noise estimator, which matters because the host may be a
//! single loaded CPU scheduling all 48 simulated-core threads. Emits
//! `BENCH_fastpath.json` next to the working directory.
//!
//! A second phase benchmarks the parallel conservative executor
//! (`host_fast.parallel`, DESIGN.md §8) against the serial baton executor,
//! both in polling notify mode (the parallel engine does not support
//! IPIs), asserting bit-identical simulated results and emitting
//! `BENCH_parallel.json`. The wall-clock speedup scales with the host's
//! core count (recorded as `host_cores`): on a single-CPU host the
//! parallel engine can only add synchronisation overhead, so the speedup
//! criterion is meaningful only where `host_cores > 1` — and to protect a
//! multi-core measurement, phase 2 refuses to overwrite an existing
//! `BENCH_parallel.json` recorded with `host_cores > 1` from a single-core
//! host unless `--force` is given. Each per-variant row also reports the
//! epoch engine's counters (demoted ops, conflicts, epochs, the
//! epoch-length histogram) and host-thread utilisation derived from the
//! parked-time metric (EXPERIMENTS.md has the reading guide).
//!
//! Usage: `svmbench bench_fastpath [--quick] [--iters N] [--reps N]
//! [--force]`

use super::{best_of, grid, refuse_clobber, write_result, Args};
use crate::{laplace_config, laplace_run_on, LaplaceRun, LaplaceVariant, Table};
use metalsvm::SvmConfig;
use scc_apps::laplace::LaplaceParams;
use scc_checker::json::Json;
use scc_hw::instr::TraceConfig;
use scc_hw::{HostFastPaths, SccConfig};
use scc_mailbox::Notify;

/// Runs of one Figure 9 cell with the given notification and tracing, by
/// host fast-path setting.
fn cell(
    variant: LaplaceVariant,
    n: usize,
    p: LaplaceParams,
    notify: Notify,
    trace: TraceConfig,
) -> impl Fn(HostFastPaths) -> LaplaceRun {
    move |host_fast| {
        let cfg = SccConfig {
            host_fast,
            trace,
            ..laplace_config(n, p)
        };
        laplace_run_on(cfg, variant, n, p, notify, SvmConfig::default()).0
    }
}

pub fn run(args: &Args) {
    let iters = args.iters.unwrap_or(if args.quick { 2 } else { 8 });
    let reps = args.reps.unwrap_or(if args.quick { 2 } else { 3 });
    let n = 48;
    let p = LaplaceParams::paper(iters);

    println!(
        "Fast-path wall-clock benchmark — Laplace {}x{}, {} iterations, {} cores, best of {} reps",
        p.width, p.height, p.iters, n, reps
    );
    let mut t = Table::new(&[
        "variant",
        "walk (s)",
        "fast (s)",
        "speedup",
        "sim identical",
        "TLB hit rate",
    ]);

    let mut rows = Vec::new();
    let mut total_walk = 0.0f64;
    let mut total_fast = 0.0f64;
    for variant in LaplaceVariant::ALL {
        let run = cell(variant, n, p, Notify::Ipi, TraceConfig::default());
        let ((walk_s, walk), (fast_s, fast, _)) = best_of(
            reps,
            || run(HostFastPaths::walk_path()),
            || run(HostFastPaths::default()),
        );

        let identical = walk.checksum == fast.checksum && walk.sim_ms == fast.sim_ms;
        assert!(
            identical,
            "{}: fast paths changed simulated results (walk {} ms / {}, \
             fast {} ms / {})",
            variant.label(),
            walk.sim_ms,
            walk.checksum,
            fast.sim_ms,
            fast.checksum
        );
        let hits = fast.metrics.get("kernel.tlb_hits");
        let misses = fast.metrics.get("kernel.tlb_misses");
        let hit_rate = fast
            .metrics
            .hit_rate("kernel.tlb_hits", "kernel.tlb_misses")
            .unwrap_or(0.0);
        total_walk += walk_s;
        total_fast += fast_s;
        t.row(&[
            variant.label().to_string(),
            format!("{walk_s:8.2}"),
            format!("{fast_s:8.2}"),
            format!("{:6.2}x", walk_s / fast_s),
            format!("{identical}"),
            format!("{:6.2}%", 100.0 * hit_rate),
        ]);
        println!("{}", t.render().lines().last().unwrap());

        rows.push(vec![
            ("variant", variant.label().into()),
            ("walk_s", Json::fixed(walk_s, 3)),
            ("fast_s", Json::fixed(fast_s, 3)),
            ("speedup", Json::fixed(walk_s / fast_s, 2)),
            ("sim_ms", Json::fixed(fast.sim_ms, 4)),
            ("sim_identical", identical.into()),
            ("tlb_hits", hits.into()),
            ("tlb_misses", misses.into()),
            (
                "tlb_shootdowns",
                fast.metrics.get("kernel.tlb_shootdowns").into(),
            ),
            ("fast_yields", fast.metrics.get("exec.fast_yields").into()),
        ]);
    }

    let overall = total_walk / total_fast;
    println!("\n{}", t.render());
    println!("overall wall-clock speedup: {overall:.2}x (walk {total_walk:.2}s -> fast {total_fast:.2}s)");

    write_result(
        "BENCH_fastpath.json",
        &[
            ("bench", "fastpath".into()),
            ("grid", grid(p)),
            ("cores", n.into()),
            ("reps", reps.into()),
            ("results", Json::Rows(rows)),
            ("total_walk_s", Json::fixed(total_walk, 3)),
            ("total_fast_s", Json::fixed(total_fast, 3)),
            ("overall_speedup", Json::fixed(overall, 2)),
        ],
    );

    bench_parallel(args, n, p, reps);
}

/// The six epoch-length histogram buckets, as `(metric key, JSON key)`.
const EPOCH_BUCKETS: [(&str, &str); 6] = [
    ("exec.par.epoch_len.1", "1"),
    ("exec.par.epoch_len.2_3", "2_3"),
    ("exec.par.epoch_len.4_7", "4_7"),
    ("exec.par.epoch_len.8_15", "8_15"),
    ("exec.par.epoch_len.16_63", "16_63"),
    ("exec.par.epoch_len.64_plus", "64_plus"),
];

/// Phase 2: serial baton executor vs parallel conservative executor, both
/// with the default fast paths and polling-mode mailboxes.
fn bench_parallel(args: &Args, n: usize, p: LaplaceParams, reps: usize) {
    let host_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    // Guard the recorded result: a multi-host-core measurement is the
    // meaningful one for this benchmark, and a rerun on a single-CPU box
    // (CI, laptops on battery) must not silently clobber it.
    let out = "BENCH_parallel.json";
    if host_cores == 1
        && refuse_clobber(args, out, "host_cores", |v| {
            let prev: u64 = v.parse().ok().filter(|&prev| prev > 1)?;
            Some(format!(
                "\n{out} holds a {prev}-host-core result; this host has 1 core."
            ))
        })
    {
        return;
    }
    // The engine caps concurrently running simulated cores at
    // SCC_PAR_HOST_THREADS (unset/0: one host thread per simulated core).
    let host_threads = std::env::var("SCC_PAR_HOST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .map_or(n, |v| v.min(n));
    println!(
        "\nParallel-executor wall-clock benchmark — same grid, {n} simulated cores \
         on {host_cores} host core(s), {host_threads} host thread(s)"
    );
    let mut t = Table::new(&[
        "variant",
        "serial (s)",
        "parallel (s)",
        "speedup",
        "sim identical",
        "conflicts",
        "demoted",
        "util",
    ]);

    let mut rows = Vec::new();
    let mut total_ser = 0.0f64;
    let mut total_par = 0.0f64;
    for variant in LaplaceVariant::ALL {
        let run = cell(variant, n, p, Notify::Poll, TraceConfig::disabled());
        let ((ser_s, ser), (par_s, par, par_last_s)) = best_of(
            reps,
            || run(HostFastPaths::default()),
            || run(HostFastPaths::parallel()),
        );
        let identical = ser.checksum == par.checksum && ser.sim_ms == par.sim_ms;
        assert!(
            identical,
            "{}: parallel executor changed simulated results (serial {} ms / {}, \
             parallel {} ms / {})",
            variant.label(),
            ser.sim_ms,
            ser.checksum,
            par.sim_ms,
            par.checksum
        );
        let windows = par.metrics.get("exec.par.windows");
        let visible = par.metrics.get("exec.par.visible_ops");
        let stalls = par.metrics.get("exec.par.horizon_stalls");
        let demoted = par.metrics.get("exec.par.demoted_ops");
        let conflicts = par.metrics.get("exec.par.conflicts");
        let epochs = par.metrics.get("exec.par.epochs");
        // Host-thread utilisation: every simulated-core thread logs its
        // parked host time (condvar waits in the locked election path plus
        // gate waits); anything not parked was running simulated work. The
        // park counters come from the run whose wall time `par_last_s`
        // measured, so the two are consistent.
        let park_ns = par.metrics.get("exec.par.park_ns") as f64;
        let wall_ns = par_last_s * 1e9;
        let utilization = (1.0 - park_ns / (n as f64 * wall_ns)).clamp(0.0, 1.0);
        let histogram = EPOCH_BUCKETS
            .iter()
            .map(|&(metric, key)| (key, par.metrics.get(metric).into()))
            .collect();
        total_ser += ser_s;
        total_par += par_s;
        t.row(&[
            variant.label().to_string(),
            format!("{ser_s:8.2}"),
            format!("{par_s:8.2}"),
            format!("{:6.2}x", ser_s / par_s),
            format!("{identical}"),
            format!("{conflicts}"),
            format!("{demoted}"),
            format!("{:5.1}%", 100.0 * utilization),
        ]);
        println!("{}", t.render().lines().last().unwrap());

        rows.push(vec![
            ("variant", variant.label().into()),
            ("serial_s", Json::fixed(ser_s, 3)),
            ("parallel_s", Json::fixed(par_s, 3)),
            ("speedup", Json::fixed(ser_s / par_s, 2)),
            ("sim_ms", Json::fixed(par.sim_ms, 4)),
            ("sim_identical", identical.into()),
            ("par_windows", windows.into()),
            ("par_visible_ops", visible.into()),
            ("par_horizon_stalls", stalls.into()),
            ("par_demoted_ops", demoted.into()),
            ("par_conflicts", conflicts.into()),
            ("par_epochs", epochs.into()),
            ("par_park_ns", (park_ns as u64).into()),
            ("host_utilization", Json::fixed(utilization, 4)),
            ("epoch_len_histogram", Json::Obj(histogram)),
        ]);
    }

    let overall = total_ser / total_par;
    println!("\n{}", t.render());
    println!(
        "overall wall-clock speedup: {overall:.2}x (serial {total_ser:.2}s -> parallel \
         {total_par:.2}s) on {host_cores} host core(s)"
    );

    write_result(
        out,
        &[
            ("bench", "parallel".into()),
            ("grid", grid(p)),
            ("cores", n.into()),
            ("reps", reps.into()),
            ("host_cores", host_cores.into()),
            ("host_threads", host_threads.into()),
            ("results", Json::Rows(rows)),
            ("total_serial_s", Json::fixed(total_ser, 3)),
            ("total_parallel_s", Json::fixed(total_par, 3)),
            ("overall_speedup", Json::fixed(overall, 2)),
        ],
    );
}
