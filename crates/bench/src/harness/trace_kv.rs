//! Capture a structured-event trace of a small svm-kv service run
//! (strong + LRC partitions, mixed GET/PUT/SCAN open-loop traffic) and
//! prove the instrumentation is free: the traced run must be
//! bit-identical — every request record, histogram bucket and clock — to
//! a run with recording disabled.
//!
//! The captured rings then pass through every `svmcheck` detector (the
//! service's lock discipline and ownership protocol must be finding-free)
//! and are exported as `results/TRACE_kv.json` (Chrome `trace_event`
//! format) and `results/TRACE_kv.log` (flat protocol log, including the
//! `kv.kv_req`/`kv.kv_resp` request events). Both re-parse with the
//! `svmcheck` binary — ci/check.sh gates on the log staying clean.
//!
//! Usage: `svmbench trace_kv [--quick] [--iters REQUESTS_PER_CLIENT]`, built
//! with `--features trace`.

use super::{export_trace, warn_if_untraced, Args};
use metalsvm::{install as svm_install, SvmConfig};
use scc_hw::instr::{EventKind, TraceConfig};
use scc_hw::{CoreId, SccConfig, TraceRing};
use scc_kernel::Cluster;
use scc_kv::{run_kv, KvConfig, KvOutcome, Strategy};
use scc_mailbox::{install as mbx_install, Notify};

/// One service run; returns per-core outcomes and trace rings.
fn traced_run(kv: &KvConfig, n: usize, trace: TraceConfig) -> (Vec<KvOutcome>, Vec<(CoreId, TraceRing)>) {
    let cfg = SccConfig {
        trace,
        ..SccConfig::default()
    };
    let cl = Cluster::new(cfg).expect("machine");
    let res = cl
        .run(n, |k| {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            run_kv(k, &mbx, &mut svm, kv)
        })
        .expect("kv service must not deadlock");
    res.into_iter()
        .map(|r| (r.result, (r.core, r.trace)))
        .unzip()
}

pub fn run(args: &Args) {
    let requests = args.iters.unwrap_or(if args.quick { 150 } else { 600 });
    let n = 8;
    let kv = KvConfig {
        servers: 2,
        partitions: vec![Strategy::Strong, Strategy::Lrc],
        keyspace_log2: 10,
        requests_per_client: requests,
        mean_interarrival: 30_000,
        zipf_theta: 0.9,
        get_pct: 60,
        scan_pct: 10,
        scan_len: 16,
        seed: 0x5CC4B,
        record_requests: true,
    };

    warn_if_untraced("rings stay empty; rebuild with `--features trace` to capture events");
    println!(
        "Tracing svm-kv (strong + LRC partitions, {n} cores, {} servers, \
         {requests} requests/client)...",
        kv.servers
    );
    let trace_cfg = TraceConfig {
        per_core_capacity: 1 << 17,
        mask: EventKind::default_mask(),
    };
    let (traced, rings) = traced_run(&kv, n, trace_cfg);
    let (shadow, _) = traced_run(&kv, n, TraceConfig::disabled());
    assert_eq!(traced, shadow, "tracing changed the kv run");
    println!("traced run identical to untraced (outcomes, records, clocks)");

    let events: usize = rings.iter().map(|(_, r)| r.len()).sum();
    let dropped: u64 = rings.iter().map(|(_, r)| r.overwritten()).sum();
    assert_eq!(dropped, 0, "ring too small: {dropped} events dropped");
    let kv_events: usize = rings
        .iter()
        .flat_map(|(_, r)| r.events())
        .filter(|e| matches!(e.kind, EventKind::KvReq | EventKind::KvResp))
        .count();
    assert!(
        !TraceRing::compiled_in() || kv_events > 0,
        "a traced kv run must mark its requests"
    );
    println!("captured {events} events ({kv_events} kv request/response marks)");

    // Every detector over the captured rings: the service's lock and
    // ownership discipline must be clean.
    let report = scc_checker::check_rings(rings.iter().map(|(c, r)| (*c, r)));
    assert!(
        report.findings.is_empty(),
        "svm-kv run must be finding-free, got: {}",
        report.render_text()
    );
    println!("svmcheck: 0 findings over the captured rings");

    export_trace("kv", &rings);
}
