//! Ablation A3: read-only regions (§6.4) — L2-enabled sealed pages vs the
//! ordinary MPBT write-through path for read-mostly data.
//!
//! Usage: `svmbench ablation_readonly [--quick]`

use super::Args;
use crate::Table;
use metalsvm::{install as svm_install, SvmConfig};
use scc_apps::dotprod::dotprod_opt;
use scc_hw::SccConfig;
use scc_kernel::Cluster;
use scc_mailbox::{install as mbx_install, Notify};

fn dotprod_run(n: usize, len: usize, passes: usize, seal: bool) -> (f64, f64) {
    let cfg = SccConfig::small();
    let mhz = cfg.timing.core_mhz as f64;
    let cl = Cluster::new(cfg).unwrap();
    let res = cl
        .run(n, move |k| {
            let mbx = mbx_install(k, Notify::Ipi);
            let mut svm = svm_install(k, &mbx, SvmConfig::default());
            let t0 = k.hw.now();
            let dot = dotprod_opt(k, &mut svm, len, passes, seal);
            (dot, k.hw.now() - t0)
        })
        .unwrap();
    let max_cycles = res.iter().map(|r| r.result.1).max().unwrap();
    (res[0].result.0, max_cycles as f64 / mhz / 1000.0)
}

pub fn run(args: &Args) {
    let len = 32 * 1024;
    let passes = if args.quick { 3 } else { 8 };

    println!("Ablation A3 — read-only regions: sealed (L2) vs unsealed (MPBT)\n");
    println!("(dot product, {len} elements, {passes} passes)\n");
    let mut t = Table::new(&["cores", "unsealed (ms)", "sealed RO (ms)", "speedup"]);
    for &n in &[1usize, 4, 8] {
        let (d1, unsealed) = dotprod_run(n, len, passes, false);
        let (d2, sealed) = dotprod_run(n, len, passes, true);
        assert_eq!(d1, d2, "sealing must not change the result");
        t.row(&[
            format!("{n}"),
            format!("{unsealed:.3}"),
            format!("{sealed:.3}"),
            format!("{:.2}x", unsealed / sealed),
        ]);
    }
    println!("{}", t.render());
    println!(
        "expected: sealing wins whenever the working set exceeds the L1\n\
         but fits the L2 (8 KiB < set < 256 KiB per core)."
    );
}
