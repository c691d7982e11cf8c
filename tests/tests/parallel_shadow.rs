//! Shadow-mode determinism for the parallel conservative executor.
//!
//! `host_fast.parallel` runs the simulated cores on concurrent host
//! threads, serialising only at globally visible operations (DESIGN.md
//! §8). It is a host-performance mode only: simulated virtual time, every
//! per-core trace, and the global order of visible operations must be
//! bit-identical to the serial baton executor. These tests run the same
//! workloads under both executors and compare exactly.
//!
//! Run under both the default build and `--features trace` (ci/check.sh
//! does): with tracing compiled in, the per-core event rings are compared
//! event for event.

use metalsvm::SvmConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scc_apps::laplace::LaplaceParams;
use scc_bench::{laplace_config, laplace_run_on, LaplaceVariant};
use scc_hw::instr::TraceConfig;
use scc_hw::{CoreId, HostFastPaths, HwError, Machine, MemAttr, SccConfig, TraceRing};
use scc_mailbox::Notify;
use std::sync::{Arc, Mutex};

fn both_modes() -> [(&'static str, HostFastPaths); 2] {
    [
        ("serial", HostFastPaths::default()),
        ("parallel", HostFastPaths::parallel()),
    ]
}

/// The tentpole acceptance test: the 48-core Laplace run of Figure 9, all
/// three variants, must produce bit-identical checksums, per-core virtual
/// clocks and (with the `trace` feature) per-core event traces with the
/// parallel executor on vs off. The parallel executor does not support
/// IPIs, so both sides use polling-mode mailbox notification.
#[test]
fn laplace_48core_bit_identical_parallel_vs_serial() {
    let p = LaplaceParams {
        width: 64,
        height: 96,
        iters: 2,
    };
    let trace = if TraceRing::compiled_in() {
        TraceConfig::full(1 << 14)
    } else {
        TraceConfig::disabled()
    };
    for variant in [
        LaplaceVariant::Ircce,
        LaplaceVariant::SvmStrong,
        LaplaceVariant::SvmLazy,
    ] {
        let (ser_run, ser_obs) = laplace_run_on(
            SccConfig {
                host_fast: HostFastPaths::default(),
                trace,
                ..laplace_config(48, p)
            },
            variant,
            48,
            p,
            Notify::Poll,
            SvmConfig::default(),
        );
        let (par_run, par_obs) = laplace_run_on(
            SccConfig {
                host_fast: HostFastPaths::parallel(),
                trace,
                ..laplace_config(48, p)
            },
            variant,
            48,
            p,
            Notify::Poll,
            SvmConfig::default(),
        );
        assert_eq!(
            ser_run.checksum,
            par_run.checksum,
            "checksum diverged ({})",
            variant.label()
        );
        assert_eq!(
            ser_run.sim_ms,
            par_run.sim_ms,
            "simulated time diverged ({})",
            variant.label()
        );
        assert_eq!(ser_obs.len(), 48);
        for (s, q) in ser_obs.iter().zip(&par_obs) {
            assert_eq!(s.core, q.core);
            assert_eq!(
                s.clock,
                q.clock,
                "virtual clock of {:?} diverged ({})",
                s.core,
                variant.label()
            );
            if TraceRing::compiled_in() {
                assert!(!s.trace.is_empty(), "trace build must record events");
                assert_eq!(
                    s.trace.events(),
                    q.trace.events(),
                    "event trace of {:?} diverged ({})",
                    s.core,
                    variant.label()
                );
            }
        }
        // The parallel engine must actually have exercised its machinery
        // (windows retired, visible ops ordered) and surface it in the
        // unified metrics registry.
        assert!(par_run.metrics.get("exec.par.windows") > 0);
        assert!(par_run.metrics.get("exec.par.visible_ops") > 0);
        assert_eq!(ser_run.metrics.get("exec.par.windows"), 0);
        // The epoch machinery must have demoted the bulk of the order
        // points lock-free: every visible op is either demoted or a
        // conflict, and real workloads must be demotion-dominated.
        let visible = par_run.metrics.get("exec.par.visible_ops");
        let demoted = par_run.metrics.get("exec.par.demoted_ops");
        let conflicts = par_run.metrics.get("exec.par.conflicts");
        assert_eq!(demoted + conflicts, visible, "{}", variant.label());
        assert!(demoted > 0, "no demoted ops ({})", variant.label());
        assert!(par_run.metrics.get("exec.par.epochs") > 0);
        assert!(
            demoted >= 10 * conflicts.max(1),
            "demotion must dominate: {demoted} demoted vs {conflicts} \
             conflicts ({})",
            variant.label()
        );
    }
}

/// One seeded wave workload at the bare-machine level. Core 0 publishes
/// wave numbers; the others wait for each wave, burn a random amount of
/// virtual time, take a TAS lock now and then, and perform a visible
/// uncached write. Returns the final per-core clocks and the *global*
/// order of visible operations: the log push happens right after the
/// visible write, while the writer still holds the safe window (parallel)
/// or the baton (serial), so the log order equals the election order and
/// is comparable across modes.
fn wave_obs(
    ncores: usize,
    quantum: u64,
    seed: u64,
    host_fast: HostFastPaths,
) -> (Vec<u64>, Vec<(usize, u64)>) {
    const WAVES: u64 = 6;
    let cfg = SccConfig {
        quantum_cycles: quantum,
        host_fast,
        ..SccConfig::small()
    };
    let m = Machine::new(cfg).unwrap();
    let shared = m.inner().map.shared_base();
    let log: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
    let res = m
        .run(ncores, |c| {
            let slot = c.id().idx();
            let mut rng = StdRng::seed_from_u64(seed ^ ((slot as u64) << 8));
            let reg = CoreId::new(0);
            for wave in 1..=WAVES {
                c.advance(50 + rng.gen_range_u64(7_950));
                if slot == 0 {
                    // Publish the wave under the TAS lock (covers the
                    // lock/unlock paths under contention).
                    c.tas_lock(reg);
                    c.write(shared, 4, wave, MemAttr::UNCACHED);
                    log.lock().unwrap().push((slot, c.now()));
                    c.tas_unlock(reg);
                } else {
                    let mach = Arc::clone(c.machine());
                    c.wait_until("the next wave", move || {
                        let v = mach.ram.read(shared, 4);
                        (v >= wave).then_some(((), 0))
                    });
                    if rng.gen_range_u64(10) < 4 {
                        c.tas_lock(reg);
                        c.advance(10 + rng.gen_range_u64(490));
                        c.tas_unlock(reg);
                    }
                    c.write(shared + 64 * slot as u32, 4, wave, MemAttr::UNCACHED);
                    log.lock().unwrap().push((slot, c.now()));
                }
            }
            c.now()
        })
        .unwrap();
    (
        res.iter().map(|r| r.clock.as_u64()).collect(),
        log.into_inner().unwrap(),
    )
}

/// Seeded randomized stress: wave workloads over varying core counts and
/// scheduling quanta. The global visible-operation order and every final
/// clock must match the serial oracle exactly.
#[test]
fn randomized_waves_global_order_identical() {
    for &ncores in &[2usize, 5, 8] {
        for &quantum in &[1_000u64, 20_000] {
            for seed in 1..=3u64 {
                let (ser_clocks, ser_log) =
                    wave_obs(ncores, quantum, seed, HostFastPaths::default());
                let (par_clocks, par_log) =
                    wave_obs(ncores, quantum, seed, HostFastPaths::parallel());
                assert_eq!(
                    ser_clocks, par_clocks,
                    "clocks diverged (n={ncores}, q={quantum}, seed={seed})"
                );
                assert_eq!(
                    ser_log, par_log,
                    "visible-op order diverged (n={ncores}, q={quantum}, seed={seed})"
                );
            }
        }
    }
}

/// Deadlock detection must fire under both executors with the same report:
/// same waiting set, same reasons, same "<finished>" markers.
#[test]
fn deadlock_reports_equivalent() {
    let report = |host_fast: HostFastPaths| {
        let cfg = SccConfig {
            host_fast,
            ..SccConfig::small()
        };
        let m = Machine::new(cfg).unwrap();
        m.run(3, |c| match c.id().idx() {
            0 => c.advance(500), // finishes normally
            1 => c.wait_until("a flag that never rises", || None::<((), u64)>),
            _ => {
                c.advance(100);
                c.wait_until("a mail that never arrives", || None::<((), u64)>)
            }
        })
        .unwrap_err()
    };
    let ser = report(HostFastPaths::default());
    let par = report(HostFastPaths::parallel());
    match (&ser, &par) {
        (HwError::Deadlock { waiting: a }, HwError::Deadlock { waiting: b }) => {
            assert_eq!(a, b, "deadlock reports must match the serial oracle");
            assert_eq!(a[0].1, "<finished>");
            assert!(a[1].1.contains("never rises"));
            assert!(a[2].1.contains("never arrives"));
        }
        other => panic!("expected two deadlock reports, got {other:?}"),
    }
}

/// Sending an IPI under the parallel executor is a configuration error and
/// must surface as a typed [`HwError::ParUnsupported`] the program can
/// handle, not corrupt determinism silently (and not a panic, as before).
#[test]
fn parallel_rejects_ipis() {
    let cfg = SccConfig {
        host_fast: HostFastPaths::parallel(),
        ..SccConfig::small()
    };
    let m = Machine::new(cfg).unwrap();
    let errs: Vec<Option<String>> = m
        .run(2, |c| {
            if c.id().idx() == 0 {
                match c.send_ipi(CoreId::new(1)) {
                    Err(HwError::ParUnsupported { what }) => Some(what),
                    other => panic!("expected ParUnsupported, got {other:?}"),
                }
            } else {
                c.advance(10);
                None
            }
        })
        .unwrap()
        .into_iter()
        .map(|r| r.result)
        .collect();
    let what = errs[0].as_deref().expect("core 0 must get the typed error");
    assert!(what.contains("send_ipi"), "error names the operation: {what}");
    assert!(errs[1].is_none());

    // The serial executor still delivers the same IPI fine.
    let m = Machine::new(SccConfig::small()).unwrap();
    m.run(2, |c| {
        if c.id().idx() == 0 {
            c.send_ipi(CoreId::new(1)).unwrap();
        } else {
            let mach = Arc::clone(c.machine());
            let id = c.id();
            c.wait_until("the doorbell", move || {
                mach.gic.has_pending(id).then_some(((), 0))
            });
        }
    })
    .unwrap();
}

/// Both executor modes agree even when nothing ever blocks: pure compute
/// with quantum yields (the maximal run-ahead case).
#[test]
fn pure_compute_clocks_identical() {
    for (_, host_fast) in both_modes() {
        let cfg = SccConfig {
            host_fast,
            ..SccConfig::small()
        };
        let m = Machine::new(cfg).unwrap();
        let clocks: Vec<u64> = m
            .run(6, |c| {
                for i in 0..400u64 {
                    c.advance(37 + (i % 11) * 3);
                }
                c.now()
            })
            .unwrap()
            .iter()
            .map(|r| r.clock.as_u64())
            .collect();
        let expect: u64 = (0..400u64).map(|i| 37 + (i % 11) * 3).sum();
        assert_eq!(clocks, vec![expect; 6]);
    }
}
