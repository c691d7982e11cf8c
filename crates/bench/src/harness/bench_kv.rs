//! svm-kv service benchmark: throughput and tail latency of the
//! partitioned key-value store under deterministic open-loop traffic,
//! across the three per-partition consistency strategies (strong
//! ownership migration, lock-guarded lazy release, sealed read-only
//! snapshots), two mesh sizes (the paper's 48-core die and the 128-core
//! 8x8 mesh) and two key skews (uniform and Zipf 0.99). Emits
//! `BENCH_kv.json`.
//!
//! All figures are **simulated**: throughput is sent requests over the
//! virtual make-span, latencies are virtual-time microseconds measured
//! from each request's *scheduled* open-loop arrival (so queueing delay
//! under overload stays in the tail — see `scc_kv::gen`). The same seed
//! reproduces every number bit for bit; reps are pointless and there are
//! none.
//!
//! The refuse-to-clobber guard mirrors `BENCH_parallel.json`'s: a
//! `--quick` rerun will not silently overwrite a recorded full-size
//! result (pass `--force` to do it anyway).
//!
//! Usage: `svmbench bench_kv [--quick] [--iters REQUESTS_PER_CLIENT]
//! [--force]`

use super::{refuse_clobber, write_result, Args};
use crate::Table;
use metalsvm::{install as svm_install, SvmConfig};
use scc_checker::json::Json;
use scc_hw::{SccConfig, Topology};
use scc_kernel::Cluster;
use scc_kv::{run_kv, KvConfig, KvOutcome, LatencyHistogram, Strategy};
use scc_mailbox::{install as mbx_install, Notify};

/// Machine for one mesh shape: room for the mailbox rows of 128
/// receivers plus the SVM window.
fn kv_machine(topo: Topology) -> SccConfig {
    SccConfig {
        private_bytes_per_core: 256 * 1024,
        shared_bytes: 32 * 1024 * 1024,
        ..SccConfig::default_with(topo)
    }
}

/// One full service run, as its table row and its `BENCH_kv.json` row;
/// everything reported is simulated and deterministic in (topology,
/// strategy, theta, requests).
fn run_one(
    topo_name: &'static str,
    topo: Topology,
    strategy: Strategy,
    theta: f64,
    requests_per_client: usize,
) -> (Vec<String>, Vec<(&'static str, Json)>) {
    let cfg = kv_machine(topo);
    let mhz = cfg.timing.core_mhz as f64;
    let n = topo.num_cores();
    let servers = (n / 8).max(2);
    let kv = KvConfig {
        servers,
        partitions: vec![strategy; 6],
        keyspace_log2: 12,
        requests_per_client,
        mean_interarrival: 40_000,
        zipf_theta: theta,
        get_pct: 70,
        scan_pct: 10,
        scan_len: 16,
        seed: 0x5CC4B,
        record_requests: false,
    };
    let cl = Cluster::new(cfg).expect("machine");
    let outs: Vec<KvOutcome> = cl
        .run(n, |k| {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            run_kv(k, &mbx, &mut svm, &kv)
        })
        .expect("kv service must not deadlock")
        .into_iter()
        .map(|r| r.result)
        .collect();

    let sent: u64 = outs.iter().map(|o| o.gets + o.puts + o.scans).sum();
    let served: u64 = outs.iter().map(|o| o.served).sum();
    let rejected: u64 = outs.iter().map(|o| o.rejected).sum();
    assert_eq!(sent, served, "every sent request must be served");
    let mut hist = LatencyHistogram::new();
    for o in &outs {
        hist.merge(&o.hist);
    }
    // Make-span over the serving/generating phase only (setup excluded).
    let start = outs.iter().map(|o| o.start_clock).min().unwrap();
    let end = outs.iter().map(|o| o.end_clock).max().unwrap();
    let span_cycles = (end - start).max(1);
    let span_s = span_cycles as f64 / (mhz * 1e6);
    let kreq_per_s = sent as f64 / span_s / 1e3;
    let us = |cycles: f64| cycles / mhz;
    let (p50, p99, p999) = (
        us(hist.p50() as f64),
        us(hist.p99() as f64),
        us(hist.p999() as f64),
    );
    let table = vec![
        topo_name.to_string(),
        format!("{n}"),
        strategy.name().to_string(),
        format!("{theta:.2}"),
        format!("{sent}"),
        format!("{rejected}"),
        format!("{kreq_per_s:9.1}"),
        format!("{p50:8.2}"),
        format!("{p99:8.2}"),
        format!("{p999:8.2}"),
    ];
    let json = vec![
        ("mesh", topo_name.into()),
        ("cores", n.into()),
        ("servers", servers.into()),
        ("strategy", strategy.name().into()),
        ("zipf_theta", Json::fixed(theta, 2)),
        ("sent", sent.into()),
        ("served", served.into()),
        ("rejected", rejected.into()),
        ("sim_ms", Json::fixed(span_s * 1e3, 3)),
        ("kreq_per_s", Json::fixed(kreq_per_s, 2)),
        ("p50_us", Json::fixed(p50, 3)),
        ("p99_us", Json::fixed(p99, 3)),
        ("p999_us", Json::fixed(p999, 3)),
        ("mean_us", Json::fixed(us(hist.mean()), 3)),
        ("max_us", Json::fixed(us(hist.max() as f64), 3)),
    ];
    (table, json)
}

pub fn run(args: &Args) {
    let out = "BENCH_kv.json";
    // Guard the recorded result: a full-size sweep is the meaningful one;
    // a --quick rerun must not silently clobber it.
    if args.quick
        && refuse_clobber(args, out, "quick", |v| {
            (v == "false")
                .then(|| format!("{out} holds a full-size result; this is a --quick run."))
        })
    {
        return;
    }
    let requests = args.iters.unwrap_or(if args.quick { 150 } else { 1000 });

    let topos = [
        ("scc48", Topology::scc48()),
        ("mesh8x8", Topology::mesh8x8()),
    ];
    let thetas = [0.0, 0.99];
    let strategies = [Strategy::Strong, Strategy::Lrc, Strategy::Sealed];

    println!(
        "svm-kv benchmark — {} requests/client, strategies {:?}, meshes {:?}, \
         Zipf thetas {thetas:?}",
        requests,
        strategies.map(Strategy::name),
        topos.map(|(name, _)| name),
    );
    let mut t = Table::new(&[
        "mesh",
        "cores",
        "strategy",
        "zipf",
        "sent",
        "rejected",
        "kreq/s",
        "p50 (us)",
        "p99 (us)",
        "p999 (us)",
    ]);
    let mut rows = Vec::new();
    for (topo_name, topo) in topos {
        for theta in thetas {
            for strategy in strategies {
                let (cells, row) = run_one(topo_name, topo, strategy, theta, requests);
                t.row(&cells);
                rows.push(row);
            }
        }
    }
    println!("\n{}", t.render());

    write_result(
        out,
        &[
            ("bench", "kv".into()),
            ("quick", args.quick.into()),
            ("requests_per_client", requests.into()),
            ("results", Json::Rows(rows)),
        ],
    );
}
