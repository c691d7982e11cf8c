//! Tests of the unified instrumentation layer: the one metrics registry
//! (always on) and the structured-event trace (`--features trace`).
//!
//! The trace shadow tests mirror the host fast-path shadow tests: turning
//! event recording on must leave every simulated clock bit-identical,
//! because `CoreCtx::trace` only reads the virtual clock, never advances
//! it.

use metalsvm::{install as svm_install, Consistency, SvmArray, SvmConfig};
use scc_apps::laplace::LaplaceParams;
use scc_bench::{laplace_run, LaplaceVariant};
use scc_hw::{MetricsSnapshot, MetricsSource, SccConfig};
use scc_kernel::Cluster;
use scc_mailbox::{install as mbx_install, Notify};

#[test]
fn one_registry_reaches_every_layer() {
    let p = LaplaceParams::tiny();
    let run = laplace_run(LaplaceVariant::SvmStrong, 2, p);
    let m = &run.metrics;
    // Hardware, executor, kernel, SVM protocol and mailbox counters all
    // arrive through the single snapshot — no bespoke structs needed.
    for label in [
        "hw.l1_hits",
        "hw.ram_reads",
        "hw.wcb_flushes",
        "exec.yields",
        "kernel.tlb_hits",
        "svm.faults",
        "svm.ownership_transfers",
        "mbx.sent",
        "mbx.received",
    ] {
        assert!(
            m.get(label) > 0,
            "label {label} must be live in a strong-model run:\n{}",
            m.render()
        );
    }
    // The strong model maps pages exclusively; a 2-core run must have
    // transferred ownership at least once per halo exchange.
    assert!(m.get("svm.ownership_transfers") >= 1);
    assert_eq!(
        m.get("mbx.sent"),
        m.get("mbx.received"),
        "every mail sent must be received"
    );
}

#[test]
fn all_three_legacy_snapshots_flow_through_the_registry() {
    // PerfCounters, TlbSnapshot and SvmStatsSnapshot — formerly three
    // bespoke printing paths — are all MetricsSources now.
    let cl = Cluster::new(SccConfig::small()).unwrap();
    let res = cl
        .run(2, |k| {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            // Strong model: the remote read forces an ownership request,
            // so the mailbox sees real traffic.
            let r = svm.alloc(k, 8192, Consistency::Strong);
            let a = SvmArray::<u64>::new(r, 16);
            if k.rank() == 0 {
                a.set(k, 0, 9);
            }
            svm.barrier(k);
            assert_eq!(a.get(k, 0), 9);
            svm.barrier(k);

            let mut m = MetricsSnapshot::new();
            k.tlb_snapshot().metrics_into(&mut m);
            mbx.stats().metrics_into(&mut m);
            if k.rank() == 0 {
                svm.shared().stats.metrics_into(&mut m);
            }
            m
        })
        .unwrap();
    let mut total = MetricsSnapshot::new();
    for r in &res {
        r.perf.metrics_into(&mut total); // hw.* / exec.* / kernel.*
        total.merge(&r.result);
    }
    assert!(total.get("kernel.tlb_live_entries") > 0);
    assert!(total.get("svm.first_touch_allocs") >= 1);
    assert!(total.get("mbx.checks") > 0);
    assert!(total.get("hw.l1_hits") > 0);
    // diff() measures an interval: against itself everything is zero but
    // every label survives.
    let d = total.diff(&total);
    assert_eq!(d.len(), total.len());
    assert!(d.iter().all(|(_, v)| v == 0));
}

#[cfg(feature = "trace")]
mod traced {
    use super::*;
    use scc_bench::{laplace_config, laplace_run_on, LaplaceCoreObs};
    use scc_hw::instr::{chrome_trace_json, protocol_log, EventKind, TraceConfig};
    use scc_hw::TraceRing;

    #[test]
    fn event_times_are_monotone_per_core() {
        assert!(TraceRing::compiled_in());
        let p = LaplaceParams::tiny();
        let cfg = SccConfig {
            trace: TraceConfig::default(),
            ..laplace_config(4, p)
        };
        let svm = SvmConfig::default();
        let (_, rings) = laplace_run_on(cfg, LaplaceVariant::SvmStrong, 4, p, Notify::Ipi, svm);
        let mut total = 0usize;
        for LaplaceCoreObs { core, trace, .. } in &rings {
            let events = trace.events();
            total += events.len();
            for w in events.windows(2) {
                assert!(
                    w[0].t <= w[1].t,
                    "core {core:?}: events out of order ({} > {})",
                    w[0].t,
                    w[1].t
                );
            }
        }
        assert!(total > 0, "a traced run must record events");
    }

    #[test]
    fn protocol_events_reach_the_exporters() {
        let p = LaplaceParams::tiny();
        let cfg = SccConfig {
            trace: TraceConfig::default(),
            ..laplace_config(4, p)
        };
        let svm = SvmConfig::default();
        let (_, rings) = laplace_run_on(cfg, LaplaceVariant::SvmStrong, 4, p, Notify::Ipi, svm);
        let kinds: std::collections::HashSet<EventKind> = rings
            .iter()
            .flat_map(|o| o.trace.events())
            .map(|e| e.kind)
            .collect();
        // The five-step ownership migration (Figure 5)...
        for k in [
            EventKind::PageFault,
            EventKind::OwnRequest,
            EventKind::OwnGrant,
            EventKind::OwnAck,
            EventKind::OwnAcquired,
            // ...rides on the mailbox...
            EventKind::MailSend,
            EventKind::MailRecv,
            // ...and the consistency hooks flush and invalidate.
            EventKind::WcbFlush,
            EventKind::Cl1Invmb,
            EventKind::Barrier,
        ] {
            assert!(kinds.contains(&k), "missing {k:?}; captured {kinds:?}");
        }

        let mhz = SccConfig::default().timing.core_mhz;
        let json = chrome_trace_json(rings.iter().map(|o| (o.core, &o.trace)), mhz);
        for needle in ["own_request", "own_grant", "mail_send", "wcb_flush", "cl1invmb"] {
            assert!(json.contains(needle), "chrome trace must mention {needle}");
        }
        assert!(json.trim_start().starts_with('['), "must be a JSON array");
        assert!(json.trim_end().ends_with(']'));

        let log = protocol_log(rings.iter().map(|o| (o.core, &o.trace)));
        assert!(log.lines().count() > 10);
        assert!(log.contains("svm.own_request"));
    }

    #[test]
    fn lock_events_capture_acquire_and_release() {
        let cfg = SccConfig {
            trace: TraceConfig::full(1 << 12),
            ..SccConfig::small()
        };
        let cl = Cluster::new(cfg).unwrap();
        let res = cl
            .run(2, |k| {
                let mbx = mbx_install(k, Notify::Ipi);
                let mut svm = svm_install(k, &mbx, SvmConfig::default());
                let r = svm.alloc(k, 4096, Consistency::LazyRelease);
                let a = SvmArray::<u64>::new(r, 8);
                let lock = svm.lock_new(k);
                for _ in 0..4 {
                    lock.with(k, |k| {
                        let v = a.get(k, 0);
                        a.set(k, 0, v + 1);
                    });
                }
                svm.barrier(k);
                assert_eq!(a.get(k, 0), 8);
                svm.barrier(k);
            })
            .unwrap();
        for r in &res {
            let kinds: Vec<EventKind> = r.trace.events().iter().map(|e| e.kind).collect();
            let acquires = kinds.iter().filter(|k| **k == EventKind::AcquireInv).count();
            let releases = kinds.iter().filter(|k| **k == EventKind::ReleaseFlush).count();
            assert_eq!(acquires, 4, "core {:?}: {kinds:?}", r.core);
            assert_eq!(releases, 4);
            // Acquire must precede its release in program (= time) order.
            let first_acq = kinds.iter().position(|k| *k == EventKind::AcquireInv);
            let first_rel = kinds.iter().position(|k| *k == EventKind::ReleaseFlush);
            assert!(first_acq < first_rel);
        }
    }

    #[test]
    fn tracing_never_perturbs_simulated_clocks() {
        // The trace analogue of the fast-path shadow tests, on the full
        // stack: identical per-core final clocks with recording on, off at
        // runtime (capacity 0), and fully masked.
        let run = |trace: TraceConfig| {
            let cfg = SccConfig {
                trace,
                ..SccConfig::small()
            };
            let cl = Cluster::new(cfg).unwrap();
            cl.run(4, |k| {
                let mbx = mbx_install(k, Notify::Ipi);
                let mut svm = svm_install(k, &mbx, SvmConfig::default());
                let r = svm.alloc(k, 16384, Consistency::Strong);
                let a = SvmArray::<u64>::new(r, 64);
                for round in 0..6u64 {
                    if k.rank() == (round % 4) as usize {
                        let v = a.get(k, 0);
                        a.set(k, 0, v + round);
                    }
                    svm.barrier(k);
                }
                a.get(k, 0)
            })
            .unwrap()
            .into_iter()
            .map(|r| (r.result, r.clock.as_u64()))
            .collect::<Vec<_>>()
        };
        let traced = run(TraceConfig::full(1 << 12));
        let disabled = run(TraceConfig::disabled());
        let masked = run(TraceConfig {
            per_core_capacity: 1 << 12,
            mask: 0,
        });
        assert_eq!(traced, disabled, "recording must not move virtual time");
        assert_eq!(traced, masked);
    }

    #[test]
    fn traced_laplace_matches_untraced_bit_for_bit() {
        let p = LaplaceParams::tiny();
        let run_with = |trace| {
            let cfg = SccConfig {
                trace,
                ..laplace_config(4, p)
            };
            let svm = SvmConfig::default();
            laplace_run_on(cfg, LaplaceVariant::SvmLazy, 4, p, Notify::Ipi, svm)
        };
        let (traced, rings) = run_with(TraceConfig::default());
        let (shadow, empty) = run_with(TraceConfig::disabled());
        assert_eq!(traced.checksum, shadow.checksum);
        assert_eq!(traced.sim_ms, shadow.sim_ms);
        assert_eq!(traced.metrics, shadow.metrics);
        assert!(rings.iter().any(|o| !o.trace.is_empty()));
        assert!(empty.iter().all(|o| o.trace.is_empty()));
    }
}
