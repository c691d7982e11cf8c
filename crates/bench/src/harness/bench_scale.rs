//! Scaling benchmark over mesh sizes: how the costs the topology redesign
//! touches most — strong-model ownership migration and the collective
//! layer — grow from the paper's 48-core die to a 512-core mesh. Emits
//! `BENCH_scale.json`.
//!
//! Per shape:
//!
//! * **ownership migration**: a one-page strong-model region ping-ponged
//!   between core 0 and the far corner of the mesh (maximum hop
//!   distance). After the first touch every write faults, runs the
//!   five-step ownership-transfer protocol across the full mesh diagonal
//!   and remaps the page; the reported figure is the average simulated
//!   cost of one such migrating write.
//! * **barrier, flat vs tree**: every core of the mesh joins
//!   `ram_barrier` under both collective modes (`SCC_COLL=flat|tree`);
//!   the reported figures are the average simulated cost per barrier,
//!   maximised over the cores, plus the tree speedup. The flat rendezvous
//!   serialises on one off-die counter; the MPB-tree barrier combines
//!   in-tile, per quadrant, then at the root (DESIGN.md §12).
//! * **allreduce, flat vs tree**: an 8-double RCCE `allreduce_f64` over
//!   all cores under both modes — the linear root loop vs the log-depth
//!   collective tree.
//!
//! A final **checker** phase runs the traced Laplace cell on a subset of
//! the shapes under the tree collectives and feeds the rings through all
//! `svmcheck` detectors: the findings-vs-core-count curve of a clean run
//! must be identically zero. (Rings are empty without the `trace`
//! feature; the phase then only proves the no-op path.)
//!
//! All simulated figures are deterministic per shape — reps exist only
//! for the host wall-clock, not the results.
//!
//! Usage: `svmbench bench_scale [--quick]`, built with `--features trace`.

use super::{warn_if_untraced, write_result, Args};
use crate::{laplace_run_on, LaplaceVariant, Table};
use metalsvm::{install as svm_install, Consistency, SvmConfig};
use rcce::{allreduce_f64, RcceComm, ReduceOp};
use scc_apps::laplace::LaplaceParams;
use scc_checker::json::Json;
use scc_hw::instr::TraceConfig;
use scc_hw::{CollMode, CoreId, SccConfig, Topology, TraceRing};
use scc_kernel::Cluster;
use scc_mailbox::{install as mbx_install, Notify};

/// Machine for one mesh shape: enough shared memory for the mailbox slot
/// rows of 512 receivers plus the SVM window, modest private memory.
/// The collective mode is pinned explicitly — this harness compares the
/// modes, so the `SCC_COLL` escape hatch must not leak in.
fn config_for(topo: Topology, coll: CollMode) -> SccConfig {
    SccConfig {
        private_bytes_per_core: 256 * 1024,
        shared_bytes: 32 * 1024 * 1024,
        coll,
        ..SccConfig::default_with(topo)
    }
}

/// Average simulated cost (us) of one ownership-migrating write between
/// core 0 and the mesh's far corner, plus the hop distance covered.
fn migration_us(topo: Topology, rounds: u32) -> (f64, u32) {
    let cfg = config_for(topo, CollMode::Tree);
    let mhz = cfg.timing.core_mhz as f64;
    let hops = topo.max_hops();
    let origin = CoreId::from_raw(0);
    let far = topo
        .core_at_distance(origin, hops)
        .expect("the far corner exists");
    let cl = Cluster::new(cfg).expect("machine");
    let res = cl
        .run_on(&[origin, far], move |k| {
            let mbx = mbx_install(k, Notify::Poll);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            let region = svm.alloc(k, 4096, Consistency::Strong);
            if k.rank() == 0 {
                k.vwrite(region.va, 4, 1); // first touch, not counted
                k.hw.flush_wcb();
            }
            svm.barrier(k);
            // Alternate writers: every write below faults on a page the
            // peer owns and migrates it across the whole mesh diagonal.
            let mut mine = 0u64;
            let mut cycles = 0u64;
            for r in 0..rounds {
                if r % 2 == k.rank() as u32 % 2 {
                    let t0 = k.hw.now();
                    k.vwrite(region.va, 4, u64::from(r) + 2);
                    k.hw.flush_wcb();
                    cycles += k.hw.now() - t0;
                    mine += 1;
                }
                svm.barrier(k);
            }
            (cycles, mine)
        })
        .expect("migration ping-pong must not deadlock");
    let total: u64 = res.iter().map(|r| r.result.0).sum();
    let writes: u64 = res.iter().map(|r| r.result.1).sum();
    (total as f64 / writes as f64 / mhz, hops)
}

/// Average simulated cost (us) of one all-core barrier under `coll`,
/// maximised over the participating cores.
fn barrier_us(topo: Topology, barriers: u32, coll: CollMode) -> f64 {
    let cfg = config_for(topo, coll);
    let mhz = cfg.timing.core_mhz as f64;
    let n = topo.num_cores();
    let cl = Cluster::new(cfg).expect("machine");
    let res = cl
        .run(n, move |k| {
            // Warm-up: the first rendezvous pays service initialisation.
            scc_kernel::ram_barrier(k, "bench.scale.warmup");
            let t0 = k.hw.now();
            for _ in 0..barriers {
                scc_kernel::ram_barrier(k, "bench.scale");
            }
            k.hw.now() - t0
        })
        .expect("barrier loop must not deadlock");
    let max_cycles = res.iter().map(|r| r.result).max().unwrap();
    max_cycles as f64 / f64::from(barriers) / mhz
}

/// Average simulated cost (us) of one all-core 8-double RCCE allreduce
/// under `coll`, maximised over the participating cores.
fn allreduce_us(topo: Topology, reps: u32, coll: CollMode) -> f64 {
    let cfg = config_for(topo, coll);
    let mhz = cfg.timing.core_mhz as f64;
    let n = topo.num_cores();
    let cl = Cluster::new(cfg).expect("machine");
    let res = cl
        .run(n, move |k| {
            let mut comm = RcceComm::init(k);
            let va = k.kalloc_pages(1);
            for i in 0..8u32 {
                k.vwrite_f64(va + i * 8, k.rank() as f64 + i as f64);
            }
            // Warm-up rep pays the pipeline/flag initialisation.
            allreduce_f64(k, &mut comm, va, 8, ReduceOp::Sum);
            let t0 = k.hw.now();
            for _ in 0..reps {
                allreduce_f64(k, &mut comm, va, 8, ReduceOp::Max);
            }
            k.hw.now() - t0
        })
        .expect("allreduce must not deadlock");
    let max_cycles = res.iter().map(|r| r.result).max().unwrap();
    max_cycles as f64 / f64::from(reps) / mhz
}

/// Traced strong-model Laplace on `topo` under the tree collectives, fed
/// through every `svmcheck` detector. Returns (events, findings).
fn checker_pass(topo: Topology, p: LaplaceParams) -> (usize, usize) {
    let cfg = SccConfig {
        trace: if TraceRing::compiled_in() {
            TraceConfig::full(1 << 17)
        } else {
            TraceConfig::disabled()
        },
        ..config_for(topo, CollMode::Tree)
    };
    let n = topo.num_cores();
    let svm = SvmConfig::default();
    let (_, obs) = laplace_run_on(cfg, LaplaceVariant::SvmStrong, n, p, Notify::Ipi, svm);
    let rings: Vec<(CoreId, TraceRing)> = obs.into_iter().map(|o| (o.core, o.trace)).collect();
    let events: usize = rings.iter().map(|(_, r)| r.len()).sum();
    let report = scc_checker::check_rings(rings.iter().map(|(c, r)| (*c, r)));
    assert!(
        report.findings.is_empty(),
        "clean Laplace on {}x{} cores must be finding-free, got: {}",
        topo.mesh_x(),
        topo.mesh_y(),
        report.render_text()
    );
    (events, report.findings.len())
}

pub fn run(args: &Args) {
    let rounds = if args.quick { 8 } else { 16 };
    let barriers = if args.quick { 4 } else { 8 };
    let reduces = if args.quick { 2 } else { 4 };

    let shapes: [(&str, Topology); 4] = [
        ("scc48", Topology::scc48()),
        ("mesh8x8", Topology::mesh8x8()),
        ("mesh16x16", Topology::mesh16x16()),
        ("mesh16x32", Topology::mesh16x32()),
    ];

    println!(
        "Scaling benchmark — ownership migration ({rounds} rounds), flat-vs-tree \
         barrier ({barriers} barriers) and allreduce ({reduces} reps) per mesh\n"
    );
    let mut t = Table::new(&[
        "preset",
        "cores",
        "mesh",
        "hops",
        "migration (us)",
        "barrier flat (us)",
        "barrier tree (us)",
        "speedup",
        "allreduce flat (us)",
        "allreduce tree (us)",
    ]);
    let mut rows = Vec::new();
    for (name, topo) in shapes {
        // Progress heartbeat on stderr: the 512-core phases are minutes
        // of host time each on a small machine.
        eprintln!("[bench_scale] {name}: migration...");
        let (mig_us, hops) = migration_us(topo, rounds);
        eprintln!("[bench_scale] {name}: barrier flat...");
        let bar_flat = barrier_us(topo, barriers, CollMode::Flat);
        eprintln!("[bench_scale] {name}: barrier tree...");
        let bar_tree = barrier_us(topo, barriers, CollMode::Tree);
        eprintln!("[bench_scale] {name}: allreduce flat...");
        let red_flat = allreduce_us(topo, reduces, CollMode::Flat);
        eprintln!("[bench_scale] {name}: allreduce tree...");
        let red_tree = allreduce_us(topo, reduces, CollMode::Tree);
        let speedup = bar_flat / bar_tree;
        let mesh = format!(
            "{}x{}x{}:{}",
            topo.mesh_x(),
            topo.mesh_y(),
            topo.cores_per_tile(),
            topo.num_mcs()
        );
        t.row(&[
            name.to_string(),
            format!("{}", topo.num_cores()),
            mesh.clone(),
            format!("{hops}"),
            format!("{mig_us:10.3}"),
            format!("{bar_flat:10.3}"),
            format!("{bar_tree:10.3}"),
            format!("{speedup:6.2}x"),
            format!("{red_flat:10.3}"),
            format!("{red_tree:10.3}"),
        ]);
        println!("{}", t.render().lines().last().unwrap());
        rows.push(vec![
            ("preset", name.into()),
            ("cores", topo.num_cores().into()),
            ("mesh", mesh.into()),
            ("migration_hops", hops.into()),
            ("migration_us", Json::fixed(mig_us, 4)),
            ("barrier_flat_us", Json::fixed(bar_flat, 4)),
            ("barrier_tree_us", Json::fixed(bar_tree, 4)),
            ("barrier_tree_speedup", Json::fixed(speedup, 3)),
            ("allreduce_flat_us", Json::fixed(red_flat, 4)),
            ("allreduce_tree_us", Json::fixed(red_tree, 4)),
        ]);
    }

    println!("\n{}", t.render());
    println!(
        "shape: migration cost grows with the mesh diagonal (protocol mail \
         and the remap travel more hops); the flat barrier grows linearly \
         with the core count (one off-die counter), the MPB-tree barrier \
         logarithmically (in-tile, per-quadrant, root)."
    );

    // Checker curve: findings of a clean traced run vs core count.
    let checker_shapes: [(&str, Topology, LaplaceParams); 3] = [
        (
            "scc48",
            Topology::scc48(),
            LaplaceParams { width: 240, height: 240, iters: 2 },
        ),
        (
            "mesh8x8",
            Topology::mesh8x8(),
            LaplaceParams { width: 256, height: 256, iters: 2 },
        ),
        (
            "mesh16x32",
            Topology::mesh16x32(),
            LaplaceParams { width: 512, height: 512, iters: 2 },
        ),
    ];
    warn_if_untraced("checker rings stay empty and the findings curve only proves the no-op path");
    println!("\nchecker curve (traced Laplace strong, tree collectives):");
    let mut checker_rows = Vec::new();
    for (name, topo, p) in checker_shapes {
        eprintln!("[bench_scale] checker: {name}...");
        let (events, findings) = checker_pass(topo, p);
        println!(
            "  {name:>9} ({:3} cores): {events:8} events, {findings} findings",
            topo.num_cores()
        );
        checker_rows.push(vec![
            ("preset", name.into()),
            ("cores", topo.num_cores().into()),
            ("events", events.into()),
            ("findings", findings.into()),
        ]);
    }

    write_result(
        "BENCH_scale.json",
        &[
            ("bench", "scale".into()),
            ("migration_rounds", rounds.into()),
            ("barriers", barriers.into()),
            ("allreduces", reduces.into()),
            ("trace_compiled_in", TraceRing::compiled_in().into()),
            ("results", Json::Rows(rows)),
            ("checker", Json::Rows(checker_rows)),
        ],
    );
}
