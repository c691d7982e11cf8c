//! Layer probes: one microloop per layer on a fresh machine of the given
//! shape, each warmed up once before timing. On `mesh16x32` these loops
//! are the `mesh512` workload; the traced runs of the other workloads run
//! them on their own machine shape for the per-layer figures.
//!
//! The all-core loops (barrier, allreduce) spend their host time in
//! executor elections and hand-offs over every core's thread; the
//! two-core and one-core loops (migration, lock pair, ping-pong, `vread`)
//! skip that fan-out. The barrier and migration loops compute their
//! simulated figures exactly as `bench_scale` does.

use crate::cell::{loop_host_ns, Runner};
use metalsvm::{install as svm_install, Consistency, SvmConfig};
use rcce::{allreduce_f64, RcceComm, ReduceOp};
use scc_hw::{CollMode, CoreId, SccConfig, Topology};
use scc_kernel::Kernel;
use scc_mailbox::{install as mbx_install, MailKind, Notify};
use std::time::Instant;

/// Timed tree barriers after the warm-up one (`bench_scale`'s full size).
pub const BARRIERS: u32 = 8;
/// Timed 8-double allreduces after the warm-up one.
pub const ALLREDUCES: u32 = 2;
/// Alternating migrating writes (`bench_scale`'s full size).
pub const MIGRATION_ROUNDS: u32 = 16;
/// Alternating lock acquire+write+release rounds.
pub const LOCK_ROUNDS: u32 = 16;
/// Mailbox round trips per ping-pong after the warm-up one.
pub const PINGPONG_ROUNDS: u64 = 200;
/// TLB-hit `vread`s after the warm-up one.
pub const VREADS: u64 = 1 << 20;

/// `bench_scale`'s machine: room for the mailbox rows of 512 receivers
/// plus the SVM window, modest private memory, the tree collectives.
pub fn machine(topo: Topology) -> SccConfig {
    SccConfig {
        private_bytes_per_core: 256 * 1024,
        shared_bytes: 32 * 1024 * 1024,
        coll: CollMode::Tree,
        ..SccConfig::default_with(topo)
    }
}

fn mhz(topo: Topology) -> f64 {
    machine(topo).timing.core_mhz as f64
}

/// All-core tree barrier: simulated µs per barrier, maximised over the
/// cores, and host ms per barrier.
pub fn barrier(r: &mut Runner, topo: Topology) -> Option<(f64, f64)> {
    let cores: Vec<CoreId> = (0..topo.num_cores()).map(CoreId::from_raw).collect();
    let res = r.cell("barrier", machine(topo), &cores, |k, c| {
        c.ready();
        c.span(k, "kernel.ram_barrier.warmup", |k| {
            scc_kernel::ram_barrier(k, "bench.scale.warmup")
        });
        let h0 = Instant::now();
        let t0 = k.hw.now();
        c.span(k, "kernel.ram_barrier.loop", |k| {
            for _ in 0..BARRIERS {
                scc_kernel::ram_barrier(k, "bench.scale");
            }
        });
        (k.hw.now() - t0, (h0, Instant::now()))
    })?;
    let max_cycles = res.iter().map(|x| x.result.0).max()?;
    let sim_us = max_cycles as f64 / f64::from(BARRIERS) / mhz(topo);
    let host_ms = loop_host_ns(res.iter().map(|x| x.result.1)) / 1e6 / f64::from(BARRIERS);
    Some((sim_us, host_ms))
}

/// All-core 8-double RCCE allreduce: simulated µs per op (max over cores)
/// and host ms per op. Inputs derive from `seed`; the sums are checked.
pub fn allreduce(r: &mut Runner, topo: Topology, seed: u64) -> Option<(f64, f64)> {
    let n = topo.num_cores();
    let cores: Vec<CoreId> = (0..n).map(CoreId::from_raw).collect();
    let base = (seed % 1000) as f64;
    let res = r.cell("allreduce", machine(topo), &cores, |k, c| {
        let mut comm = c.span(k, "rcce.init", RcceComm::init);
        let va = k.kalloc_pages(1);
        c.ready();
        for i in 0..8u32 {
            k.vwrite_f64(va + i * 8, k.rank() as f64 + f64::from(i) + base);
        }
        c.span(k, "rcce.allreduce.warmup", |k| {
            allreduce_f64(k, &mut comm, va, 8, ReduceOp::Sum)
        });
        let h0 = Instant::now();
        let t0 = k.hw.now();
        c.span(k, "rcce.allreduce.loop", |k| {
            for _ in 0..ALLREDUCES {
                allreduce_f64(k, &mut comm, va, 8, ReduceOp::Max);
            }
        });
        let dt = k.hw.now() - t0;
        let h1 = Instant::now();
        let got: Vec<f64> = (0..8u32).map(|i| k.vread_f64(va + i * 8)).collect();
        (dt, (h0, h1), got)
    })?;
    // Σ over ranks of (rank + i + base); the Max rounds keep the sum.
    let nf = n as f64;
    for x in &res {
        for (i, &v) in x.result.2.iter().enumerate() {
            let want = nf * (nf - 1.0) / 2.0 + nf * (i as f64 + base);
            if v != want {
                r.out.errors.push(format!(
                    "allreduce: core {} element {i} is {v}, expected {want}",
                    x.core.idx()
                ));
                return None;
            }
        }
    }
    let max_cycles = res.iter().map(|x| x.result.0).max()?;
    let sim_us = max_cycles as f64 / f64::from(ALLREDUCES) / mhz(topo);
    let host_ms = loop_host_ns(res.iter().map(|x| x.result.1)) / 1e6 / f64::from(ALLREDUCES);
    Some((sim_us, host_ms))
}

/// Core 0 and the core at the mesh diameter.
fn far_pair(topo: Topology) -> [CoreId; 2] {
    let origin = CoreId::from_raw(0);
    let far = topo
        .core_at_distance(origin, topo.max_hops())
        .expect("a core sits at the mesh diameter");
    [origin, far]
}

/// Strong-model ownership migration between core 0 and the far corner:
/// simulated µs per migrating write (`bench_scale`'s figure) and host µs
/// per write. The first touch is the warm-up and is not counted.
pub fn migration(r: &mut Runner, topo: Topology, seed: u64) -> Option<(f64, f64)> {
    let res = r.cell("migration", machine(topo), &far_pair(topo), |k, c| {
        let mbx = c.span(k, "mailbox.install", |k| mbx_install(k, Notify::Poll));
        let mut svm = c.span(k, "svm.install", |k| {
            svm_install(k, &mbx, SvmConfig::default())
        });
        let region = c.span(k, "svm.alloc", |k| svm.alloc(k, 4096, Consistency::Strong));
        c.ready();
        if k.rank() == 0 {
            k.vwrite(region.va, 4, 1); // first touch, not counted
            k.hw.flush_wcb();
        }
        svm.barrier(k);
        let (mut cycles, mut writes) = (0u64, 0u64);
        let h0 = Instant::now();
        c.span(k, "svm.migration.loop", |k| {
            for round in 0..MIGRATION_ROUNDS {
                if round % 2 == k.rank() as u32 % 2 {
                    let t0 = k.hw.now();
                    k.vwrite(region.va, 4, u64::from(round) + 2 + seed % 1000);
                    k.hw.flush_wcb();
                    cycles += k.hw.now() - t0;
                    writes += 1;
                }
                svm.barrier(k);
            }
        });
        let h1 = Instant::now();
        let last = if k.rank() == 0 {
            k.vread(region.va, 4)
        } else {
            0
        };
        svm.barrier(k);
        c.count(mbx.stats());
        if k.rank() == 0 {
            c.count(&svm.shared().stats);
        }
        (cycles, writes, (h0, h1), last)
    })?;
    let want = u64::from(MIGRATION_ROUNDS - 1) + 2 + seed % 1000;
    if res[0].result.3 != want {
        r.out.errors.push(format!(
            "migration: read back {} after the loop, expected {want}",
            res[0].result.3
        ));
        return None;
    }
    let cycles: u64 = res.iter().map(|x| x.result.0).sum();
    let writes: u64 = res.iter().map(|x| x.result.1).sum();
    let sim_us = cycles as f64 / writes as f64 / mhz(topo);
    let host_us = loop_host_ns(res.iter().map(|x| x.result.2)) / 1e3 / writes as f64;
    Some((sim_us, host_us))
}

/// Lazy-release lock acquire + write + release, alternating between core
/// 0 and the far corner: simulated µs per pair and host µs per pair.
pub fn lock_pair(r: &mut Runner, topo: Topology, seed: u64) -> Option<(f64, f64)> {
    let res = r.cell("lock_pair", machine(topo), &far_pair(topo), |k, c| {
        let mbx = c.span(k, "mailbox.install", |k| mbx_install(k, Notify::Poll));
        let mut svm = c.span(k, "svm.install", |k| {
            svm_install(k, &mbx, SvmConfig::default())
        });
        let region = c.span(k, "svm.alloc", |k| {
            svm.alloc(k, 4096, Consistency::LazyRelease)
        });
        let lock = c.span(k, "svm.lock_new", |k| svm.lock_new(k));
        c.ready();
        let step = |k: &mut Kernel<'_>, v: u64| -> Result<(), metalsvm::SyncError> {
            lock.acquire(k)?;
            k.vwrite(region.va, 8, v);
            lock.release(k)
        };
        // Warm-up: both cores map the page and touch the lock once.
        let mut ok = step(k, 1).is_ok();
        svm.barrier(k);
        let (mut cycles, mut pairs) = (0u64, 0u64);
        let h0 = Instant::now();
        c.span(k, "svm.lock_pair.loop", |k| {
            for round in 0..LOCK_ROUNDS {
                if round % 2 == k.rank() as u32 % 2 {
                    let t0 = k.hw.now();
                    ok &= step(k, u64::from(round) + 2 + seed % 1000).is_ok();
                    cycles += k.hw.now() - t0;
                    pairs += 1;
                }
                svm.barrier(k);
            }
        });
        let h1 = Instant::now();
        let last = if k.rank() == 0 {
            ok &= lock.acquire(k).is_ok();
            let v = k.vread(region.va, 8);
            ok &= lock.release(k).is_ok();
            v
        } else {
            0
        };
        svm.barrier(k);
        c.count(mbx.stats());
        if k.rank() == 0 {
            c.count(&svm.shared().stats);
        }
        (cycles, pairs, (h0, h1), last, ok)
    })?;
    let want = u64::from(LOCK_ROUNDS - 1) + 2 + seed % 1000;
    if res.iter().any(|x| !x.result.4) || res[0].result.3 != want {
        r.out.errors.push(format!(
            "lock pair: a lock call failed or read back {} after the loop, expected {want}",
            res[0].result.3
        ));
        return None;
    }
    let cycles: u64 = res.iter().map(|x| x.result.0).sum();
    let pairs: u64 = res.iter().map(|x| x.result.1).sum();
    let sim_us = cycles as f64 / pairs as f64 / mhz(topo);
    let host_us = loop_host_ns(res.iter().map(|x| x.result.2)) / 1e3 / pairs as f64;
    Some((sim_us, host_us))
}

/// Mailbox ping-pong between `a` and `b`, with only those two cores
/// activated, measured as `scc_bench::pingpong_latency_us` measures it:
/// half round trip in simulated µs after one warm-up round. Also returns
/// host µs per round trip.
pub fn pingpong(
    r: &mut Runner,
    name: &str,
    cfg: SccConfig,
    pair: [CoreId; 2],
    active: &[CoreId],
    notify: Notify,
    rounds: u64,
) -> Option<(f64, f64)> {
    let mhz = cfg.timing.core_mhz as f64;
    let done = std::sync::atomic::AtomicBool::new(false);
    let res = r.cell(name, cfg, active, |k, c| {
        let mbx = c.span(k, "mailbox.install", |k| mbx_install(k, notify));
        c.ready();
        let me = k.id();
        let out = if me == pair[0] {
            mbx.send(k, pair[1], MailKind::USER, &[0]);
            let _ = mbx.recv_from(k, pair[1]);
            let h0 = Instant::now();
            let t0 = k.hw.now();
            c.span(k, "mailbox.pingpong.loop", |k| {
                for _ in 0..rounds {
                    mbx.send(k, pair[1], MailKind::USER, &[1]);
                    let _ = mbx.recv_from(k, pair[1]);
                }
            });
            let dt = k.hw.now() - t0;
            let h1 = Instant::now();
            done.store(true, std::sync::atomic::Ordering::Release);
            Some((dt, h1.saturating_duration_since(h0).as_nanos() as f64))
        } else if me == pair[1] {
            for _ in 0..=rounds {
                let _ = mbx.recv_from(k, pair[0]);
                mbx.send(k, pair[0], MailKind::USER, &[2]);
            }
            None
        } else {
            // Stay activated (the receiver keeps scanning our buffer)
            // until the measuring core is done.
            let done = &done;
            k.wait_event("benchmark end", move || {
                done.load(std::sync::atomic::Ordering::Acquire)
                    .then_some(((), 0))
            });
            None
        };
        c.count(mbx.stats());
        out
    })?;
    let (cycles, host_ns) = res.iter().find_map(|x| x.result)?;
    Some((
        cycles as f64 / (2 * rounds) as f64 / mhz,
        host_ns / 1e3 / rounds as f64,
    ))
}

/// Single-core TLB-hit `vread` loop: simulated cycles and host ns per
/// read. The value read back is checked.
pub fn vread(r: &mut Runner, topo: Topology, seed: u64) -> Option<(f64, f64)> {
    let val = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1;
    let res = r.cell("vread", machine(topo), &[CoreId::from_raw(0)], |k, c| {
        let va = k.kalloc_pages(1);
        c.ready();
        k.vwrite(va, 8, val);
        let _ = k.vread(va, 8);
        let h0 = Instant::now();
        let t0 = k.hw.now();
        let sum = c.span(k, "kernel.vread.loop", |k| {
            let mut sum = 0u64;
            for _ in 0..VREADS {
                sum = sum.wrapping_add(std::hint::black_box(k.vread(va, 8)));
            }
            sum
        });
        (k.hw.now() - t0, Instant::now() - h0, sum)
    })?;
    let (cycles, host, sum) = res[0].result;
    if sum != val.wrapping_mul(VREADS) {
        r.out.errors.push(format!(
            "vread: loop sum {sum}, expected {}",
            val.wrapping_mul(VREADS)
        ));
        return None;
    }
    Some((
        cycles as f64 / VREADS as f64,
        host.as_nanos() as f64 / VREADS as f64,
    ))
}

/// Every probe on `topo`, recorded into the pass: simulated results as
/// `sim`, host costs as `host`.
pub fn run_all(r: &mut Runner, topo: Topology, seed: u64) {
    let pair = far_pair(topo);
    let near = topo
        .core_at_distance(pair[0], 1)
        .expect("a core sits one hop away");
    let near = [pair[0], near];
    if let Some((sim, host)) = barrier(r, topo) {
        r.out.sim("kernel.barrier_sim_us", sim, "sim_us");
        r.out.host("kernel.barrier_host_ms", host, "ms");
    }
    if let Some((sim, host)) = allreduce(r, topo, seed) {
        r.out.sim("rcce.allreduce_sim_us", sim, "sim_us");
        r.out.host("rcce.allreduce_host_ms", host, "ms");
    }
    if let Some((sim, host)) = migration(r, topo, seed) {
        r.out.sim("svm.migration_sim_us", sim, "sim_us");
        r.out.host("svm.migration_host_us", host, "us");
    }
    if let Some((sim, host)) = lock_pair(r, topo, seed) {
        r.out.sim("svm.lrc_pair_sim_us", sim, "sim_us");
        r.out.host("svm.lrc_pair_host_us", host, "us");
    }
    let cfg = machine(topo);
    for (name, p, notify) in [
        ("mbx.poll_1hop_us", near, Notify::Poll),
        ("mbx.poll_diam_us", pair, Notify::Poll),
        ("mbx.ipi_1hop_us", near, Notify::Ipi),
        ("mbx.ipi_diam_us", pair, Notify::Ipi),
    ] {
        if let Some((sim, host)) = pingpong(r, name, cfg.clone(), p, &p, notify, PINGPONG_ROUNDS) {
            r.out.sim(name, sim, "sim_us");
            if name == "mbx.ipi_diam_us" {
                r.out.host("mbx.rtt_host_us", host, "us");
            }
        }
    }
    if let Some((sim, host)) = vread(r, topo, seed) {
        r.out.sim("hw.vread_sim_cycles", sim, "cycles");
        r.out.host("hw.vread_host_ns", host, "ns");
    }
}
