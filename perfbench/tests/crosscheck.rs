//! The benchmark's simulated figures against the repository's own
//! harnesses: each must come out exactly as the harness computes it for
//! the same configuration.

use metalsvm::{Consistency, ScratchLocation};
use perfbench::cell::Runner;
use perfbench::paper48::{self, Variant};
use perfbench::probes;
use perfbench::span::SpanLog;
use scc_apps::laplace::LaplaceParams;
use scc_bench::pingpong::Background;
use scc_bench::{laplace_run, pingpong_latency_us, svm_overhead, LaplaceVariant, PingPongSetup};
use scc_hw::{CoreId, Topology};
use scc_mailbox::Notify;

fn runner(log: &mut SpanLog) -> Runner<'_> {
    Runner::new(log, 0)
}

#[test]
fn table1_equals_svm_overhead() {
    let mut log = SpanLog::new(false);
    let mut r = runner(&mut log);
    for model in [Consistency::Strong, Consistency::LazyRelease] {
        let (alloc, frame, map, retrieve) = paper48::table1(&mut r, model).expect("table 1 runs");
        let h = svm_overhead(model, ScratchLocation::Mpb);
        assert_eq!(alloc, h.alloc_4mib_us, "{model:?} allocation");
        assert_eq!(frame, h.physical_alloc_us, "{model:?} frame");
        assert_eq!(map, h.map_us, "{model:?} mapping");
        assert_eq!(retrieve, h.retrieve_us, "{model:?} retrieval");
    }
    assert!(r.out.errors.is_empty(), "{:?}", r.out.errors);
}

#[test]
fn fig6_and_fig7_points_equal_pingpong_latency() {
    let mut log = SpanLog::new(false);
    let mut r = runner(&mut log);
    let topo = Topology::scc48();
    let origin = CoreId::from_raw(0);
    let cfg = paper48::pingpong_machine();
    for hops in [0, 8] {
        let b = topo.core_at_distance(origin, hops).expect("partner exists");
        for notify in [Notify::Poll, Notify::Ipi] {
            let pair = [origin, b];
            let (us, _) = probes::pingpong(
                &mut r,
                "fig6",
                cfg.clone(),
                pair,
                &pair,
                notify,
                paper48::FIG6_ROUNDS,
            )
            .expect("fig 6 point runs");
            let h = pingpong_latency_us(&PingPongSetup::pair(
                origin,
                b,
                notify,
                paper48::FIG6_ROUNDS,
            ));
            assert_eq!(us, h, "fig 6 at {hops} hops, {notify:?}");
        }
    }
    let active = paper48::fig7_active(48);
    let pair = [CoreId::new(0), CoreId::new(30)];
    for notify in [Notify::Poll, Notify::Ipi] {
        let (us, _) = probes::pingpong(
            &mut r,
            "fig7",
            cfg.clone(),
            pair,
            &active,
            notify,
            paper48::FIG7_ROUNDS,
        )
        .expect("fig 7 point runs");
        let h = pingpong_latency_us(&PingPongSetup {
            a: pair[0],
            b: pair[1],
            active: active.clone(),
            notify,
            background: Background::Idle,
            rounds: paper48::FIG7_ROUNDS,
        });
        assert_eq!(us, h, "fig 7 at 48 cores, {notify:?}");
    }
}

#[test]
fn fig9_cells_equal_laplace_run() {
    let p = LaplaceParams::paper(paper48::LAPLACE_ITERS);
    let mut log = SpanLog::new(false);
    let mut r = runner(&mut log);
    for (v, hv) in [
        (Variant::Ircce, LaplaceVariant::Ircce),
        (Variant::Strong, LaplaceVariant::SvmStrong),
        (Variant::Lazy, LaplaceVariant::SvmLazy),
    ] {
        let (sum, ms) = paper48::laplace(&mut r, v, 48, p).expect("fig 9 cell runs");
        let h = laplace_run(hv, 48, p);
        assert_eq!(sum, h.checksum, "{v:?} checksum");
        assert_eq!(ms, h.sim_ms, "{v:?} simulated ms");
    }
}

/// `field` of the mesh16x32 row of the committed `BENCH_scale.json`.
fn bench_scale(field: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_scale.json");
    let text = std::fs::read_to_string(path).expect("BENCH_scale.json is committed");
    let header = |key: &str| -> f64 {
        let tail = text
            .split(&format!("\"{key}\":"))
            .nth(1)
            .expect("header field");
        tail.split([',', '\n'])
            .next()
            .unwrap()
            .trim()
            .parse()
            .expect("number")
    };
    assert_eq!(header("barriers"), f64::from(probes::BARRIERS));
    assert_eq!(
        header("migration_rounds"),
        f64::from(probes::MIGRATION_ROUNDS)
    );
    let row = text
        .lines()
        .find(|l| l.contains("\"preset\": \"mesh16x32\"") && l.contains("migration_us"))
        .expect("mesh16x32 row");
    let tail = row
        .split(&format!("\"{field}\":"))
        .nth(1)
        .expect("row field");
    tail.split([',', '}'])
        .next()
        .unwrap()
        .trim()
        .parse()
        .expect("number")
}

#[test]
fn mesh512_barrier_and_migration_equal_bench_scale() {
    let topo = Topology::mesh16x32();
    let mut log = SpanLog::new(false);
    let mut r = runner(&mut log);
    let (barrier_us, _) = probes::barrier(&mut r, topo).expect("barrier loop runs");
    let (migration_us, _) = probes::migration(&mut r, topo, 1).expect("migration loop runs");
    // bench_scale records four decimals.
    let round4 = |v: f64| (v * 1e4).round() / 1e4;
    assert_eq!(round4(barrier_us), bench_scale("barrier_tree_us"));
    assert_eq!(round4(migration_us), bench_scale("migration_us"));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut log = SpanLog::new(true);
    let t0 = log.epoch();
    let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
    let root = log.push("root".into(), None, 0, (at(0), at(100)), None);
    // Overlapping children cover [10, 60) once, not twice.
    log.push("a".into(), Some(root), 0, (at(10), at(50)), None);
    log.push("b".into(), Some(root), 0, (at(30), at(60)), None);
    let selfs = log.self_ns();
    assert_eq!(selfs[0], 50_000_000);
    assert_eq!(selfs[1], 40_000_000);
}
