//! Flat-vs-tree collective agreement (DESIGN.md §12).
//!
//! `SccConfig::coll` selects between the paper's flat collectives (one
//! off-die barrier counter, linear root loops) and the topology-aware
//! MPB-tree versions. The modes trade shape, not semantics: a
//! barrier-only application must produce bit-identical results under
//! either, and an f64 reduction may differ only by the rounding of its
//! fold order.

use metalsvm::SvmConfig;
use rcce::{allreduce_f64, RcceComm, ReduceOp};
use scc_apps::laplace::{laplace_reference, LaplaceParams};
use scc_bench::{laplace_run_on, LaplaceVariant};
use scc_hw::{CollMode, SccConfig, Topology};
use scc_kernel::Cluster;
use scc_mailbox::Notify;

fn cfg(coll: CollMode) -> SccConfig {
    SccConfig {
        coll,
        shared_bytes: 64 * 1024 * 1024,
        ..SccConfig::default()
    }
}

/// Laplace synchronises through barriers only (no f64 collectives), so
/// its checksum must not move by a single bit when the barrier shape
/// changes — under every variant, against the serial reference.
#[test]
fn laplace_results_identical_flat_vs_tree() {
    let p = LaplaceParams {
        width: 64,
        height: 32,
        iters: 4,
    };
    let want = laplace_reference(p);
    for variant in [
        LaplaceVariant::Ircce,
        LaplaceVariant::SvmStrong,
        LaplaceVariant::SvmLazy,
    ] {
        let run_mode = |coll| {
            laplace_run_on(cfg(coll), variant, 8, p, Notify::Ipi, SvmConfig::default())
                .0
                .checksum
        };
        let flat = run_mode(CollMode::Flat);
        let tree = run_mode(CollMode::Tree);
        assert_eq!(
            flat.to_bits(),
            tree.to_bits(),
            "{}: barrier-only app diverged between collective modes",
            variant.label()
        );
        assert_eq!(flat, want, "{}: deviates from the reference", variant.label());
    }
}

/// f64 sums fold in rank order (flat) vs tree order, so bit-identity is
/// not guaranteed — but the values must agree to rounding, and Max/Min
/// (order-insensitive) must agree exactly.
#[test]
fn allreduce_flat_vs_tree_within_rounding() {
    let run_mode = |coll: CollMode, op: ReduceOp| -> Vec<f64> {
        let cl = Cluster::new(cfg(coll)).unwrap();
        let res = cl
            .run(12, |k| {
                let mut comm = RcceComm::init(k);
                let va = k.kalloc_pages(1);
                for i in 0..8u32 {
                    // Non-dyadic values: the fold order is observable in
                    // the last ulps of a Sum.
                    k.vwrite_f64(va + i * 8, 1.0 / (comm.ue() + 1) as f64 + i as f64);
                }
                allreduce_f64(k, &mut comm, va, 8, op);
                (0..8u32).map(|i| k.vread_f64(va + i * 8)).collect::<Vec<f64>>()
            })
            .unwrap();
        // Allreduce leaves every UE with the same answer.
        for r in res.iter().skip(1) {
            assert_eq!(r.result, res[0].result, "allreduce not uniform across UEs");
        }
        res.into_iter().next().unwrap().result
    };
    for op in [ReduceOp::Max, ReduceOp::Min] {
        assert_eq!(run_mode(CollMode::Flat, op), run_mode(CollMode::Tree, op));
    }
    let flat = run_mode(CollMode::Flat, ReduceOp::Sum);
    let tree = run_mode(CollMode::Tree, ReduceOp::Sum);
    for (f, t) in flat.iter().zip(&tree) {
        let rel = (f - t).abs() / f.abs().max(1.0);
        assert!(
            rel < 1e-12,
            "flat {f} vs tree {t}: beyond rounding (rel {rel:e})"
        );
    }
}

/// The tree barrier must hold up on a big mesh in one dev-profile-sized
/// case: all 128 cores of mesh8x8, interleaving skewed arrivals.
#[test]
fn tree_barrier_128_cores_skewed_arrivals() {
    let cl = Cluster::new(SccConfig {
        coll: CollMode::Tree,
        ..SccConfig::small_with(Topology::mesh8x8())
    })
    .unwrap();
    cl.run(128, |k| {
        for round in 0..3u64 {
            k.hw.advance((k.rank() as u64 * 131 + round * 977) % 9_000);
            scc_kernel::ram_barrier(k, "test.skew");
        }
    })
    .unwrap();
}
