//! Ablation A4: affinity-on-first-touch vs round-robin frame placement.
//!
//! §6.3 places each page behind the memory controller of the first
//! toucher's quadrant, so the later (identical) access pattern stays
//! local. The baseline stripes pages over the controllers regardless of
//! the toucher.
//!
//! Usage: `svmbench ablation_affinity [--quick]`

use super::Args;
use crate::{laplace_config, laplace_run_on, LaplaceVariant, Table};
use metalsvm::{Placement, SvmConfig};
use scc_apps::laplace::LaplaceParams;
use scc_mailbox::Notify;

pub fn run(args: &Args) {
    let p = LaplaceParams {
        width: 512,
        height: 256,
        iters: if args.quick { 4 } else { 16 },
    };

    println!("Ablation A4 — first-touch affinity vs round-robin placement\n");
    println!("(lazy-release Laplace, {}x{}, {} iterations)\n", p.width, p.height, p.iters);
    let mut t = Table::new(&["cores", "first-touch (ms)", "round-robin (ms)"]);
    for &n in &[4usize, 8, 16, 48] {
        let run = |placement| {
            let svm = SvmConfig::builder().placement(placement).build();
            let svm = svm.expect("svm config");
            let cfg = laplace_config(n, p);
            laplace_run_on(cfg, LaplaceVariant::SvmLazy, n, p, Notify::Ipi, svm).0
        };
        let (near, rr) = (run(Placement::NearToucher), run(Placement::RoundRobin));
        assert_eq!(near.checksum, rr.checksum);
        t.row(&[
            format!("{n}"),
            format!("{:.3}", near.sim_ms),
            format!("{:.3}", rr.sim_ms),
        ]);
    }
    println!("{}", t.render());
    println!(
        "expected: first-touch placement keeps cache-miss traffic on the\n\
         local controller, shaving hop latency off every DDR3 access."
    );
}
