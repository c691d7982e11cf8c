//! `kv128`: svm-kv on the 128-core mesh8x8 machine. 16 servers and 112
//! open-loop clients, each with one request outstanding; six partitions
//! alternating Strong and LRC; Zipf θ=0.99 keys; 70% GET, 20% PUT,
//! 10% SCAN. One run at `bench_kv`'s nominal rate (mean gap 40 000
//! cycles per client), then a fixed ladder of lower rates for capacity.
//!
//! Sealed partitions are left out: their refused PUTs count as failures,
//! and every rate would then miss the latency limit.

use crate::cell::Runner;
use metalsvm::{install as svm_install, SvmConfig};
use scc_hw::{CollMode, CoreId, SccConfig, Topology};
use scc_kv::{initial_value, run_kv, KvConfig, KvOutcome, Op, ReqRecord, Strategy};
use scc_mailbox::{install as mbx_install, Notify};
use std::collections::HashSet;

pub const SERVERS: usize = 16;
/// Open-loop requests per client and run.
pub const REQUESTS_PER_CLIENT: usize = 100;
/// Mean inter-arrival gap per client at `bench_kv`'s nominal rate.
pub const NOMINAL_GAP: u64 = 40_000;
/// The capacity ladder: lower rates, as mean gaps in cycles.
pub const LADDER_GAPS: [u64; 4] = [50_000, 60_000, 80_000, 120_000];
/// Latency limit on p99 for the capacity search, simulated µs.
pub const P99_LIMIT_US: f64 = 1000.0;

/// The `bench_kv` machine on mesh8x8.
pub fn machine() -> SccConfig {
    SccConfig {
        private_bytes_per_core: 256 * 1024,
        shared_bytes: 32 * 1024 * 1024,
        coll: CollMode::Tree,
        ..SccConfig::default_with(Topology::mesh8x8())
    }
}

pub fn config(gap: u64, seed: u64) -> KvConfig {
    KvConfig {
        servers: SERVERS,
        partitions: [Strategy::Strong, Strategy::Lrc].repeat(3),
        keyspace_log2: 12,
        requests_per_client: REQUESTS_PER_CLIENT,
        mean_interarrival: gap,
        zipf_theta: 0.99,
        get_pct: 70,
        scan_pct: 10,
        scan_len: 16,
        seed,
        record_requests: true,
    }
}

/// Nearest-rank quantile of `v` (sorted in place); refusals are
/// `f64::INFINITY`, so they miss any limit.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let i = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[i]
}

fn clients(outs: &[KvOutcome]) -> impl Iterator<Item = &KvOutcome> {
    outs.iter().filter(|o| !o.is_server)
}

/// Latency of a record from its scheduled arrival, in cycles; refused
/// requests are infinitely late.
fn latency(r: &ReqRecord) -> f64 {
    if r.done == 0 {
        f64::INFINITY
    } else {
        (r.done - r.sched) as f64
    }
}

/// Generator lateness of every request: how far the client's previous
/// completion ran past this request's scheduled arrival (0 if on time),
/// in cycles, with the request's index in its client's sequence.
fn lateness(outs: &[KvOutcome]) -> Vec<(usize, f64)> {
    let mut v = Vec::new();
    for o in clients(outs) {
        let mut prev_done = 0u64;
        for (i, r) in o.records.iter().enumerate() {
            v.push((i, prev_done.saturating_sub(r.sched) as f64));
            prev_done = prev_done.max(r.done);
        }
    }
    v
}

/// Run the service once at mean gap `gap`; checks its outputs and returns
/// every core's outcome.
fn run_rate(r: &mut Runner, gap: u64, seed: u64) -> Option<Vec<KvOutcome>> {
    let kv = config(gap, seed);
    let cores: Vec<CoreId> = (0..Topology::mesh8x8().num_cores())
        .map(CoreId::from_raw)
        .collect();
    // Requests, not cells, are this workload's unit of work.
    r.units_per_cell = ((cores.len() - SERVERS) * REQUESTS_PER_CLIENT) as u64;
    let res = r.cell(&format!("kv.gap{gap}"), machine(), &cores, |k, c| {
        let mbx = c.span(k, "mailbox.install", |k| mbx_install(k, Notify::Ipi));
        let mut svm = c.span(k, "svm.install", |k| {
            svm_install(k, &mbx, SvmConfig::default())
        });
        c.ready();
        let out = c.span(k, "kv.run_kv", |k| run_kv(k, &mbx, &mut svm, &kv));
        c.count(mbx.stats());
        if k.rank() == 0 {
            c.count(&svm.shared().stats);
        }
        out
    })?;
    let outs: Vec<KvOutcome> = res.into_iter().map(|x| x.result).collect();
    let failed = check(&outs, r);
    r.out.failed += failed;
    Some(outs)
}

/// Output checks of one run; returns the requests not answered OK.
fn check(outs: &[KvOutcome], r: &mut Runner) -> u64 {
    let sent: u64 = clients(outs).map(|o| o.gets + o.puts + o.scans).sum();
    let served: u64 = outs.iter().map(|o| o.served).sum();
    r.out.check(sent == served, || {
        format!("kv: {sent} requests sent but {served} served")
    });
    // Every PUT value a GET may legitimately observe.
    let puts: HashSet<(u32, u64)> = clients(outs)
        .flat_map(|o| o.records.iter())
        .filter(|x| x.op == Op::Put as u8)
        .map(|x| (x.key, initial_value(x.key) ^ u64::from(x.corr)))
        .collect();
    let mut failed = 0u64;
    for o in clients(outs) {
        if o.records.len() != REQUESTS_PER_CLIENT {
            r.out.errors.push(format!(
                "kv: a client kept {} records, expected {REQUESTS_PER_CLIENT}",
                o.records.len()
            ));
            failed += REQUESTS_PER_CLIENT.abs_diff(o.records.len()) as u64;
        }
        for (i, x) in o.records.iter().enumerate() {
            // Answered with its own correlation id, in the order sent, or
            // counted as refused (no refusals without sealed partitions).
            let answered = x.corr as usize == i && x.done >= x.sched && x.done != 0;
            let get_ok = x.op != Op::Get as u8
                || x.val == initial_value(x.key)
                || puts.contains(&(x.key, x.val));
            if !answered || !get_ok {
                failed += 1;
            }
        }
        failed += o.rejected;
    }
    r.out.check(failed == 0, || {
        format!("kv: {failed} requests not answered with their own id and a valid value")
    });
    failed
}

/// One pass of the workload.
pub fn pass(r: &mut Runner, seed: u64) {
    let mhz = machine().timing.core_mhz as f64;
    let nclients = (Topology::mesh8x8().num_cores() - SERVERS) as f64;
    let kreq_s = |gap: u64| nclients * mhz * 1e3 / gap as f64;
    let wall0 = r.out.wall;
    let mut capacity = 0.0f64;
    let mut served = 0u64;
    for gap in std::iter::once(NOMINAL_GAP).chain(LADDER_GAPS) {
        let Some(outs) = run_rate(r, gap, seed) else {
            continue;
        };
        served += outs.iter().map(|o| o.served).sum::<u64>();
        let recs = || clients(&outs).flat_map(|o| o.records.iter());
        let mut all: Vec<f64> = recs().map(latency).collect();
        let p99 = quantile(&mut all, 0.99) / mhz;
        let late = lateness(&outs);
        let quarter = REQUESTS_PER_CLIENT / 4;
        let mean = |sel: &dyn Fn(usize) -> bool| {
            let v: Vec<f64> = late.iter().filter(|(i, _)| sel(*i)).map(|x| x.1).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let growing = mean(&|i| i >= REQUESTS_PER_CLIENT - quarter) > mean(&|i| i < quarter);
        r.out.sim(format!("kv.gap{gap}_p99_us"), p99, "sim_us");
        if p99 <= P99_LIMIT_US && !growing {
            capacity = capacity.max(kreq_s(gap));
        }
        if gap != NOMINAL_GAP {
            continue;
        }
        r.out
            .sim("kv_p50_us", quantile(&mut all, 0.50) / mhz, "sim_us");
        r.out.sim("kv_p99_us", p99, "sim_us");
        for (name, op) in [
            ("kv.get_p99_us", Op::Get),
            ("kv.put_p99_us", Op::Put),
            ("kv.scan_p99_us", Op::Scan),
        ] {
            let mut v: Vec<f64> = recs().filter(|x| x.op == op as u8).map(latency).collect();
            r.out.sim(name, quantile(&mut v, 0.99) / mhz, "sim_us");
        }
        let parts = config(gap, seed).partitions;
        for (name, strategy) in [
            ("kv.strong_p99_us", Strategy::Strong),
            ("kv.lrc_p99_us", Strategy::Lrc),
        ] {
            let mut v: Vec<f64> = recs()
                .filter(|x| parts[x.key as usize % parts.len()] == strategy)
                .map(latency)
                .collect();
            r.out.sim(name, quantile(&mut v, 0.99) / mhz, "sim_us");
        }
        let late_share = late.iter().filter(|x| x.1 > 0.0).count() as f64 / late.len() as f64;
        let mut lv: Vec<f64> = late.iter().map(|x| x.1).collect();
        r.out.sim("kv.late_share", late_share, "ratio");
        r.out
            .sim("kv.late_p99_us", quantile(&mut lv, 0.99) / mhz, "sim_us");
    }
    r.out.sim("kv_capacity_kreq_s", capacity, "sim_kreq/s");
    r.out.sim("kv.served", served as f64, "count");
    let host = (r.out.wall - wall0).as_secs_f64();
    r.out.host(
        "kv.host_us_per_req",
        host * 1e6 / served.max(1) as f64,
        "us",
    );
}
