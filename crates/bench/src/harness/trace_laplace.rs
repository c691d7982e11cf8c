//! Capture a structured-event trace of the 48-core Laplace run (strong
//! model — the full five-step ownership-migration protocol) and prove the
//! instrumentation is free: the traced run must be bit-identical in
//! simulated time, checksum and every counter to a run with recording
//! disabled.
//!
//! Emits `results/TRACE_laplace.json` (Chrome `trace_event` format — open
//! in `chrome://tracing` or <https://ui.perfetto.dev>) and
//! `results/TRACE_laplace.log` (a flat, time-sorted protocol log). Both
//! re-parse with `svmcheck` for offline consistency checking.
//!
//! Usage: `svmbench trace_laplace [--quick] [--iters N]`, built with
//! `--features trace`.

use super::{export_trace, laplace_strong_traced, warn_if_untraced, Args};
use scc_apps::laplace::LaplaceParams;
use scc_hw::instr::{EventKind, TraceConfig};

pub fn run(args: &Args) {
    let iters = args.iters.unwrap_or(if args.quick { 2 } else { 8 });
    let n = 48;
    let p = LaplaceParams::paper(iters);

    warn_if_untraced("rings stay empty; rebuild with `--features trace` to capture events");

    println!(
        "Tracing Laplace (SVM strong, {}x{}, {} iterations, {} cores)...",
        p.width, p.height, p.iters, n
    );
    let trace_cfg = TraceConfig {
        per_core_capacity: 1 << 16,
        mask: EventKind::default_mask(),
    };
    let (traced, rings) = laplace_strong_traced(n, p, trace_cfg);
    let (shadow, _) = laplace_strong_traced(n, p, TraceConfig::disabled());

    // Tracing must never perturb the simulation.
    assert_eq!(traced.checksum, shadow.checksum, "tracing changed the result");
    assert_eq!(traced.sim_ms, shadow.sim_ms, "tracing changed simulated time");
    assert_eq!(traced.metrics, shadow.metrics, "tracing changed the counters");
    println!(
        "traced run identical to untraced: {:.3} simulated ms, checksum {}",
        traced.sim_ms, traced.checksum
    );

    let events: usize = rings.iter().map(|(_, r)| r.len()).sum();
    let dropped: u64 = rings.iter().map(|(_, r)| r.overwritten()).sum();
    println!(
        "captured {events} events over {} cores ({dropped} dropped to ring wrap)",
        rings.len()
    );

    export_trace("laplace", &rings);
    println!("open the JSON in chrome://tracing or https://ui.perfetto.dev");
}
