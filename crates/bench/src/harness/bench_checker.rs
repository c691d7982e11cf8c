//! Checker-overhead benchmark: what does it cost to watch a run?
//!
//! Two phases over the Figure 9 Laplace cell (paper grid, 48 cores,
//! strong model — the protocol-heaviest variant):
//!
//! 1. **Capture overhead** — wall-clock of the traced run vs the same run
//!    with recording disabled, min of `--reps`, asserting bit-identical
//!    simulated results (tracing must never perturb the simulation, only
//!    host time may differ).
//! 2. **Analysis throughput** — feeding the captured rings through all
//!    three `svmcheck` detectors (`scc_checker::check_rings`), reported
//!    as events/second; the run is clean, so the report must be
//!    finding-free.
//!
//! Emits `BENCH_checker.json`. Without the `trace` feature the rings stay
//! empty and the numbers only prove the no-op path is free.
//!
//! Usage: `svmbench bench_checker [--quick] [--iters N] [--reps N]`, built
//! with `--features trace`.

use std::time::Instant;

use super::{best_of, grid, laplace_strong_traced, warn_if_untraced, write_result, Args};
use crate::Table;
use scc_apps::laplace::LaplaceParams;
use scc_checker::json::Json;
use scc_hw::instr::{EventKind, TraceConfig};
use scc_hw::TraceRing;

pub fn run(args: &Args) {
    let iters = args.iters.unwrap_or(if args.quick { 2 } else { 8 });
    let reps = args.reps.unwrap_or(if args.quick { 2 } else { 3 });
    let n = 48;
    let p = LaplaceParams::paper(iters);

    warn_if_untraced("rings stay empty and the overhead measured is the no-op path");
    println!(
        "Checker-overhead benchmark — Laplace strong, {}x{}, {} iterations, \
         {} cores, best of {} reps",
        p.width, p.height, p.iters, n, reps
    );

    let trace_cfg = TraceConfig {
        per_core_capacity: 1 << 16,
        mask: EventKind::default_mask(),
    };

    // Phase 1: capture overhead (traced vs recording disabled).
    let ((off_s, (off, _)), (on_s, (on, rings), _)) = best_of(
        reps,
        || laplace_strong_traced(n, p, TraceConfig::disabled()),
        || laplace_strong_traced(n, p, trace_cfg),
    );
    assert_eq!(off.checksum, on.checksum, "tracing changed the result");
    assert_eq!(off.sim_ms, on.sim_ms, "tracing changed simulated time");
    assert_eq!(off.metrics, on.metrics, "tracing changed the counters");

    let events: usize = rings.iter().map(|(_, r)| r.len()).sum();
    let dropped: u64 = rings.iter().map(|(_, r)| r.overwritten()).sum();
    let capture_delta = on_s - off_s;
    let capture_pct = 100.0 * capture_delta / off_s;

    // Phase 2: analysis throughput over the captured rings.
    let mut check_s = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        report = Some(scc_checker::check_rings(
            rings.iter().map(|(c, r)| (*c, r)),
        ));
        check_s = check_s.min(t0.elapsed().as_secs_f64());
    }
    let report = report.expect("reps >= 1");
    assert!(
        report.findings.is_empty(),
        "clean Laplace must be finding-free, got: {}",
        report.render_text()
    );
    let events_per_s = if check_s > 0.0 { events as f64 / check_s } else { 0.0 };

    let mut t = Table::new(&[
        "untraced (s)",
        "traced (s)",
        "capture overhead",
        "events",
        "check (s)",
        "events/s",
        "findings",
    ]);
    t.row(&[
        format!("{off_s:8.3}"),
        format!("{on_s:8.3}"),
        format!("{capture_delta:+.3}s ({capture_pct:+.1}%)"),
        format!("{events}"),
        format!("{check_s:8.4}"),
        format!("{events_per_s:10.0}"),
        format!("{}", report.findings.len()),
    ]);
    println!("\n{}", t.render());
    println!(
        "capture: {capture_delta:+.3}s over {off_s:.3}s untraced; analysis: \
         {events} events in {check_s:.4}s = {events_per_s:.0} events/s \
         ({dropped} dropped to ring wrap)"
    );

    write_result(
        "BENCH_checker.json",
        &[
            ("bench", "checker".into()),
            ("grid", grid(p)),
            ("cores", n.into()),
            ("reps", reps.into()),
            ("trace_compiled_in", TraceRing::compiled_in().into()),
            ("untraced_s", Json::fixed(off_s, 4)),
            ("traced_s", Json::fixed(on_s, 4)),
            ("capture_delta_s", Json::fixed(capture_delta, 4)),
            ("capture_overhead_pct", Json::fixed(capture_pct, 2)),
            ("events", events.into()),
            ("events_dropped", dropped.into()),
            ("check_s", Json::fixed(check_s, 5)),
            ("events_per_s", Json::fixed(events_per_s, 0)),
            ("findings", report.findings.len().into()),
            ("sim_identical", true.into()),
        ],
    );
}
