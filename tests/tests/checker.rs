//! Integration tests for the `svm-check` consistency-checker subsystem.
//!
//! Three contracts, matching the checker's spec:
//!
//! 1. **Clean apps are finding-free** — every application workload, run
//!    under both the strong and the lazy release model (forced via
//!    `SvmConfig::model_override`), produces zero findings.
//! 2. **Planted bugs are found exactly** — each fixture kernel yields
//!    exactly one finding, from the right detector, with the right slug,
//!    page and cores.
//! 3. **Online == offline** — checking the merged rings directly and
//!    re-parsing the exported protocol log / Chrome trace produce
//!    identical findings.
//!
//! Without the `trace` feature the whole subsystem must be a no-op.

#[cfg(feature = "trace")]
mod traced {
    use metalsvm::{install as svm_install, Consistency, SvmConfig, SvmCtx};
    use scc_apps::fixtures::{fixture, run_fixture_traced, FIXTURES};
    use scc_apps::histogram::HistParams;
    use scc_apps::laplace::LaplaceParams;
    use scc_checker::parse::{self, chrome_trace_json, protocol_log};
    use scc_checker::{check_rings, Stream};
    use scc_hw::instr::{EventKind, TraceConfig};
    use scc_hw::{CoreId, SccConfig, TraceRing};
    use scc_kernel::{Cluster, Kernel};
    use scc_mailbox::{install as mbx_install, Mailbox, Notify};

    fn trace_cfg() -> TraceConfig {
        TraceConfig {
            per_core_capacity: 1 << 16,
            mask: EventKind::default_mask(),
        }
    }

    /// Run an SPMD closure on `n` cores of a small machine with tracing
    /// on, returning the per-core rings.
    fn run_traced(
        n: usize,
        svm_cfg: SvmConfig,
        f: impl Fn(&mut Kernel<'_>, &Mailbox, &mut SvmCtx) + Send + Sync + 'static,
    ) -> Vec<(CoreId, TraceRing)> {
        let cfg = SccConfig {
            trace: trace_cfg(),
            ..SccConfig::small()
        };
        let cl = Cluster::new(cfg).unwrap();
        let res = cl
            .run(n, move |k| {
                let mbx = mbx_install(k, Notify::Ipi);
                let mut svm = svm_install(k, &mbx, svm_cfg);
                f(k, &mbx, &mut svm);
            })
            .unwrap();
        let rings: Vec<(CoreId, TraceRing)> =
            res.into_iter().map(|r| (r.core, r.trace)).collect();
        assert!(
            rings.iter().all(|(_, r)| r.overwritten() == 0),
            "ring wrapped — grow per_core_capacity so absence checks stay sound"
        );
        rings
    }

    #[test]
    fn clean_apps_are_finding_free_under_both_models() {
        for model in [Consistency::Strong, Consistency::LazyRelease] {
            let cfg = SvmConfig::builder()
                .model_override(model)
                .build()
                .expect("valid config");
            let apps: Vec<(&str, Vec<(CoreId, TraceRing)>)> = vec![
                (
                    "dotprod",
                    run_traced(4, cfg, |k, _m, svm| {
                        scc_apps::dotprod::dotprod(k, svm, 512, 2);
                    }),
                ),
                (
                    "histogram",
                    run_traced(4, cfg, |k, _m, svm| {
                        scc_apps::histogram::histogram(k, svm, HistParams::tiny());
                    }),
                ),
                (
                    "laplace",
                    run_traced(4, cfg, move |k, _m, svm| {
                        scc_apps::laplace::laplace_svm(k, svm, model, LaplaceParams::tiny());
                    }),
                ),
                (
                    "matmul",
                    run_traced(4, cfg, |k, _m, svm| {
                        scc_apps::matmul::matmul(k, svm, 12);
                    }),
                ),
                (
                    "pipeline",
                    run_traced(3, cfg, |k, mbx, _svm| {
                        scc_apps::pipeline::pipeline(k, mbx, 16);
                    }),
                ),
            ];
            for (name, rings) in apps {
                let rep = check_rings(rings.iter().map(|(c, r)| (*c, r)));
                assert!(rep.events > 0, "{name}: trace must not be empty");
                assert!(!rep.truncated, "{name}: stream must be complete");
                assert!(
                    rep.findings.is_empty(),
                    "{name} under {model:?} must be clean:\n{}",
                    rep.render_text()
                );
            }
        }
    }

    #[test]
    fn each_fixture_yields_exactly_its_planted_finding() {
        for f in FIXTURES {
            let rings = run_fixture_traced(f, trace_cfg());
            let rep = check_rings(rings.iter().map(|(c, r)| (*c, r)));
            assert_eq!(
                rep.findings.len(),
                1,
                "{} must yield exactly one finding:\n{}",
                f.name,
                rep.render_text()
            );
            let found = &rep.findings[0];
            assert_eq!(found.slug, f.expect, "{}: wrong finding kind", f.name);
            assert_eq!(
                found.detector.name(),
                f.detector,
                "{}: wrong detector",
                f.name
            );
            // The rings come back in rank order; fixture docs fix the core
            // roles (rank 0 writer/owner, rank 1 reader/forger).
            let ids: Vec<usize> = rings.iter().map(|(c, _)| c.idx()).collect();
            assert_eq!(
                &found.cores[..],
                &ids[..f.cores],
                "{}: wrong cores",
                f.name
            );
            // Page-scoped findings must name the page the fixture allocated.
            if f.cores == 2 {
                let log = protocol_log(&Stream::from_rings(rings.iter().map(|(c, r)| (*c, r))));
                let page: u32 = log
                    .lines()
                    .find(|l| l.contains("svm.region_alloc"))
                    .and_then(|l| l.split("page=").nth(1))
                    .and_then(|s| s.split_whitespace().next())
                    .expect("fixture must allocate a region")
                    .parse()
                    .unwrap();
                assert_eq!(found.page, Some(page), "{}: wrong page", f.name);
            } else {
                assert_eq!(found.page, None, "{}: lint findings are page-free", f.name);
            }
        }
    }

    #[test]
    fn online_sink_and_offline_replay_agree() {
        let mhz = SccConfig::small().timing.core_mhz;
        let stale = run_fixture_traced(fixture("stale_read").unwrap(), trace_cfg());
        let clean = run_traced(4, SvmConfig::default(), |k, _m, svm| {
            scc_apps::laplace::laplace_svm(k, svm, Consistency::Strong, LaplaceParams::tiny());
        });
        for (name, rings) in [("stale_read", stale), ("laplace_strong", clean)] {
            let stream = Stream::from_rings(rings.iter().map(|(c, r)| (*c, r)));
            let online = stream.check();

            let log = protocol_log(&stream);
            let from_log = parse::parse_protocol_log(&log).unwrap().check();

            let json = chrome_trace_json(&stream, mhz);
            let from_chrome = parse::parse_chrome_trace(&json, mhz).unwrap().check();

            // The protocol log carries every event; the Chrome trace folds
            // scheduler block pairs into slices — but findings must be
            // identical on all three paths.
            assert_eq!(online.events, from_log.events, "{name}: log must be lossless");
            assert_eq!(
                online.findings, from_log.findings,
                "{name}: protocol-log replay diverged"
            );
            assert_eq!(
                online.findings, from_chrome.findings,
                "{name}: chrome-trace replay diverged"
            );
        }
    }
}

#[cfg(not(feature = "trace"))]
mod untraced {
    use scc_apps::fixtures::{fixture, run_fixture_traced};
    use scc_checker::check_rings;
    use scc_hw::instr::{EventKind, TraceConfig};
    use scc_hw::TraceRing;

    #[test]
    fn without_the_trace_feature_the_checker_is_a_no_op() {
        assert!(
            !TraceRing::compiled_in(),
            "this test only runs without the trace feature"
        );
        let f = fixture("stale_read").unwrap();
        let rings = run_fixture_traced(
            f,
            TraceConfig {
                per_core_capacity: 1 << 16,
                mask: EventKind::default_mask(),
            },
        );
        let rep = check_rings(rings.iter().map(|(c, r)| (*c, r)));
        assert_eq!(rep.events, 0, "no events may be recorded");
        assert!(rep.findings.is_empty(), "no events, no findings");
        assert!(!rep.truncated);
    }
}
