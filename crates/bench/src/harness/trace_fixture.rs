//! Trace the deliberately buggy checker fixtures and write their protocol
//! logs for offline `svmcheck` runs.
//!
//! Each fixture from `scc_apps::fixtures` plants exactly one bug; this
//! harness runs the named ones (all of them by default) with tracing on
//! and writes `results/TRACE_<name>.log`. `ci/check.sh` then asserts
//! `svmcheck --expect <slug> results/TRACE_<name>.log` for each.
//!
//! Usage: `svmbench trace_fixture [FIXTURE ...]`, built with `--features
//! trace`.

use super::{warn_if_untraced, write_out, Args};
use scc_apps::fixtures::{fixture, run_fixture_traced, FIXTURES};
use scc_checker::parse::protocol_log;
use scc_checker::Stream;
use scc_hw::instr::{EventKind, TraceConfig};

pub fn run(args: &Args) {
    let picked: Vec<_> = if args.fixtures.is_empty() {
        FIXTURES.iter().collect()
    } else {
        args.fixtures
            .iter()
            .map(|n| {
                fixture(n).unwrap_or_else(|| {
                    eprintln!("unknown fixture `{n}`; available:");
                    for f in FIXTURES {
                        eprintln!("  {}", f.name);
                    }
                    std::process::exit(2);
                })
            })
            .collect()
    };

    warn_if_untraced("rings stay empty; rebuild with `--features trace` to capture events");

    let trace_cfg = TraceConfig {
        per_core_capacity: 1 << 16,
        mask: EventKind::default_mask(),
    };
    for f in picked {
        let rings = run_fixture_traced(f, trace_cfg);
        let events: usize = rings.iter().map(|(_, r)| r.len()).sum();
        let log = protocol_log(&Stream::from_rings(rings.iter().map(|(c, r)| (*c, r))));
        let path = format!("results/TRACE_{}.log", f.name);
        write_out(&path, &log);
        println!(
            "{path}: {events} events over {} core(s), expect {}/{}",
            f.cores, f.detector, f.expect
        );
    }
}
