//! `paper48`: the paper's evaluation on the 48-core SCC, with modelled
//! caches starting empty on every fresh machine as in the paper. Table 1
//! (both consistency models), Fig 6 at 0 and 8 hops, Fig 7 at 48 active
//! cores, and Fig 9's Laplace at 48 cores on the 1024x512 grid for iRCCE,
//! SVM strong and SVM lazy (IPI notification).
//!
//! The inputs are the paper's fixed configuration: the seed changes
//! nothing here.

use crate::cell::{Core, Runner};
use crate::probes::pingpong;
use metalsvm::{install as svm_install, Consistency, ScratchLocation, SvmConfig};
use rcce::RcceComm;
use scc_apps::laplace::{laplace_ircce, laplace_reference, laplace_svm, LaplaceParams, ROW_PAD};
use scc_hw::{CollMode, CoreId, SccConfig, Topology};
use scc_kernel::Kernel;
use scc_mailbox::{install as mbx_install, Notify};

/// Laplace iterations per Fig 9 cell.
pub const LAPLACE_ITERS: usize = 8;
/// Round trips per Fig 6 point (the `fig6` harness's full size).
pub const FIG6_ROUNDS: u64 = 400;
/// Round trips per Fig 7 point (the `fig7` harness's full size).
pub const FIG7_ROUNDS: u64 = 200;

/// Table 1 of the paper (µs), in the order the benchmark reports them:
/// allocation strong/lazy, frame strong/lazy, mapping strong/lazy,
/// retrieval strong. The lazy model has no retrieval step. Unsuffixed
/// allocation and frame names are the strong model's.
pub const TABLE1_PAPER: [(&str, f64); 7] = [
    ("svm.t1_alloc_us", 741.0),
    ("svm.t1_alloc_lazy_us", 741.0),
    ("svm.t1_frame_us", 112.301),
    ("svm.t1_frame_lazy_us", 112.296),
    ("svm.t1_map_strong_us", 10.198),
    ("svm.t1_map_lazy_us", 2.418),
    ("svm.t1_retrieve_us", 8.990),
];

fn base(topo: Topology) -> SccConfig {
    SccConfig {
        coll: CollMode::Tree,
        ..SccConfig::default_with(topo)
    }
}

/// One Table 1 column: (alloc, frame, map, retrieve) in simulated µs,
/// measured between cores 0 and 30 exactly as `scc_bench::svm_overhead`.
pub fn table1(r: &mut Runner, model: Consistency) -> Option<(f64, f64, f64, Option<f64>)> {
    let cfg = SccConfig {
        private_bytes_per_core: 256 * 1024,
        shared_bytes: 16 * 1024 * 1024,
        ..base(Topology::scc48())
    };
    let mhz = cfg.timing.core_mhz as f64;
    let bytes: u32 = 4 * 1024 * 1024;
    let pages = bytes / 4096;
    let name = match model {
        Consistency::Strong => "table1.strong",
        _ => "table1.lazy",
    };
    let res = r.cell(name, cfg, &[CoreId::new(0), CoreId::new(30)], |k, c| {
        let mbx = c.span(k, "mailbox.install", |k| mbx_install(k, Notify::Ipi));
        let mut svm = c.span(k, "svm.install", |k| {
            let cfg = SvmConfig::builder()
                .scratch(ScratchLocation::Mpb)
                .build()
                .expect("the Table 1 SVM configuration is valid");
            svm_install(k, &mbx, cfg)
        });
        c.ready();
        let us = |cycles: u64| cycles as f64 / mhz;
        let t0 = k.hw.now();
        let region = c.span(k, "svm.alloc", |k| svm.alloc(k, bytes, model));
        let alloc = us(k.hw.now() - t0);
        let touch = |k: &mut Kernel<'_>, c: &mut Core, v: u64| {
            let t0 = k.hw.now();
            c.span(k, "svm.touch_pages", |k| {
                for p in 0..pages {
                    k.vwrite(
                        region.va + p * 4096,
                        4,
                        if v == 0 { 0 } else { u64::from(p) + v },
                    );
                }
                k.hw.flush_wcb();
            });
            us(k.hw.now() - t0) / f64::from(pages)
        };
        let (mut frame, mut map, mut retrieve) = (0.0, 0.0, None);
        if k.rank() == 0 {
            frame = touch(k, c, 1);
        }
        svm.barrier(k);
        if k.rank() == 1 {
            map = touch(k, c, 100);
        }
        svm.barrier(k);
        if k.rank() == 0 && model == Consistency::Strong {
            retrieve = Some(touch(k, c, 0));
        }
        svm.barrier(k);
        c.count(mbx.stats());
        if k.rank() == 0 {
            c.count(&svm.shared().stats);
        }
        (alloc, frame, map, retrieve)
    })?;
    let (a, b) = (res[0].result, res[1].result);
    let alloc = if a.0 == 0.0 { b.0 } else { a.0 };
    Some((alloc, a.1, b.2, a.3))
}

/// Fig 7's activated core set: the first `n` cores, always with 0 and 30.
pub fn fig7_active(n: usize) -> Vec<CoreId> {
    let mut v = vec![CoreId::new(0), CoreId::new(30)];
    let mut next = 1;
    while v.len() < n {
        if next != 30 {
            v.push(CoreId::new(next));
        }
        next += 1;
    }
    v
}

/// The machine `scc_bench::pingpong_latency_us` builds.
pub fn pingpong_machine() -> SccConfig {
    SccConfig {
        private_bytes_per_core: 256 * 1024,
        shared_bytes: 4 * 1024 * 1024,
        ..base(Topology::scc48())
    }
}

/// The machine `scc_bench::laplace_config` builds for `n` cores.
pub fn laplace_machine(n: usize, p: LaplaceParams) -> SccConfig {
    let block_bytes = (p.height / n + 2) * (p.width + ROW_PAD) * 8 * 2;
    SccConfig {
        private_bytes_per_core: (block_bytes + 2 * 1024 * 1024).next_multiple_of(4096),
        shared_bytes: 64 * 1024 * 1024,
        ..base(Topology::scc48())
    }
}

/// Which Fig 9 implementation runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Variant {
    Ircce,
    Strong,
    Lazy,
}

impl Variant {
    pub fn key(self) -> &'static str {
        match self {
            Variant::Ircce => "ircce",
            Variant::Strong => "strong",
            Variant::Lazy => "lazy",
        }
    }
}

/// One Fig 9 cell on `n` cores: (checksum, simulated ms), measured as
/// `scc_bench::laplace_run` measures it.
pub fn laplace(r: &mut Runner, v: Variant, n: usize, p: LaplaceParams) -> Option<(f64, f64)> {
    let cfg = laplace_machine(n, p);
    let mhz = cfg.timing.core_mhz as f64;
    let cores: Vec<CoreId> = (0..n).map(CoreId::from_raw).collect();
    let name = match v {
        Variant::Ircce => "fig9.ircce",
        Variant::Strong => "fig9.strong",
        Variant::Lazy => "fig9.lazy",
    };
    let res = r.cell(name, cfg, &cores, |k, c| match v {
        Variant::Ircce => {
            let mut comm = c.span(k, "rcce.init", RcceComm::init);
            c.ready();
            c.span(k, "apps.laplace_ircce", |k| laplace_ircce(k, &mut comm, p))
        }
        Variant::Strong | Variant::Lazy => {
            let mbx = c.span(k, "mailbox.install", |k| mbx_install(k, Notify::Ipi));
            let mut svm = c.span(k, "svm.install", |k| {
                svm_install(k, &mbx, SvmConfig::default())
            });
            c.ready();
            let model = if v == Variant::Strong {
                Consistency::Strong
            } else {
                Consistency::LazyRelease
            };
            let out = c.span(k, "apps.laplace_svm", |k| {
                laplace_svm(k, &mut svm, model, p)
            });
            c.count(mbx.stats());
            if k.rank() == 0 {
                c.count(&svm.shared().stats);
            }
            out
        }
    })?;
    let max_cycles = res.iter().map(|x| x.result.cycles).max()?;
    Some((res[0].result.checksum, max_cycles as f64 / mhz / 1000.0))
}

/// One pass of the workload.
pub fn pass(r: &mut Runner) {
    let mut t1 = Vec::new();
    for model in [Consistency::Strong, Consistency::LazyRelease] {
        let Some((alloc, frame, map, retrieve)) = table1(r, model) else {
            continue;
        };
        let (m, suffix) = if model == Consistency::Strong {
            ("strong", "")
        } else {
            ("lazy", "_lazy")
        };
        t1.push((format!("svm.t1_alloc{suffix}_us"), alloc));
        t1.push((format!("svm.t1_frame{suffix}_us"), frame));
        t1.push((format!("svm.t1_map_{m}_us"), map));
        if let Some(ret) = retrieve {
            t1.push(("svm.t1_retrieve_us".to_string(), ret));
        }
        r.out
            .check((model == Consistency::Strong) == retrieve.is_some(), || {
                format!("table 1: retrieval step present under the {m} model")
            });
    }
    // Sort into the paper's order before reporting.
    let mut errs = Vec::new();
    for (name, paper) in TABLE1_PAPER {
        if let Some((_, v)) = t1.iter().find(|(n, _)| n == name) {
            r.out.sim(name, *v, "sim_us");
            errs.push((v - paper).abs() / paper);
        }
    }
    if errs.len() == TABLE1_PAPER.len() {
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        r.out.sim("table1_err_pct", 100.0 * mean, "%");
    }

    let cfg = pingpong_machine();
    let topo = Topology::scc48();
    let origin = CoreId::from_raw(0);
    for hops in [0, 8] {
        let partner = topo
            .core_at_distance(origin, hops)
            .expect("scc48 has cores at 0 and 8 hops from core 0");
        for (mode, notify) in [("poll", Notify::Poll), ("ipi", Notify::Ipi)] {
            let pair = [origin, partner];
            let name = format!("mbx.fig6_{mode}_{hops}hop_us");
            if let Some((us, _)) = pingpong(r, &name, cfg.clone(), pair, &pair, notify, FIG6_ROUNDS)
            {
                r.out.sim(name, us, "sim_us");
            }
        }
    }
    let active = fig7_active(48);
    for (mode, notify) in [("poll", Notify::Poll), ("ipi", Notify::Ipi)] {
        let name = format!("mbx.fig7_{mode}_48_us");
        let pair = [CoreId::new(0), CoreId::new(30)];
        if let Some((us, _)) = pingpong(r, &name, cfg.clone(), pair, &active, notify, FIG7_ROUNDS) {
            r.out.sim(name, us, "sim_us");
        }
    }

    let p = LaplaceParams::paper(LAPLACE_ITERS);
    let mut sums = Vec::new();
    for v in [Variant::Ircce, Variant::Strong, Variant::Lazy] {
        let wall0 = r.out.wall;
        if let Some((sum, ms)) = laplace(r, v, 48, p) {
            r.out.sim(format!("fig9_{}_ms", v.key()), ms, "sim_ms");
            let host = (r.out.wall - wall0).as_secs_f64();
            let name = match v {
                Variant::Ircce => "apps.laplace_ircce_host_s",
                Variant::Strong => "apps.laplace_strong_host_s",
                Variant::Lazy => "apps.laplace_lazy_host_s",
            };
            r.out.host(name, host, "s");
            sums.push((v, sum));
        }
    }
    let want = laplace_reference(p);
    for (v, sum) in &sums {
        r.out.check(*sum == want, || {
            format!(
                "fig9 {}: checksum {sum} differs from the host reference {want}",
                v.key()
            )
        });
    }
}
