//! Ablation A1: first-touch scratch pad in the MPBs vs relocated to
//! off-die memory.
//!
//! §6.3: "To increase the memory size, we can relocate the scratch pad
//! into the off-die memory. However, this increases the number of memory
//! accesses, which in turn decreases the performance of our system."
//! This harness quantifies that trade-off on the Table 1 fault path and on
//! a lazy-release Laplace run.
//!
//! Usage: `svmbench ablation_scratchpad [--quick]`

use super::Args;
use crate::{fmt_us, laplace_config, laplace_run_on, svm_overhead, LaplaceVariant, Table};
use metalsvm::{Consistency, ScratchLocation, SvmConfig};
use scc_apps::laplace::LaplaceParams;
use scc_mailbox::Notify;

pub fn run(args: &Args) {
    println!("Ablation A1 — scratch pad location (MPB vs off-die)\n");
    let mut t = Table::new(&["fault path (lazy)", "MPB (us)", "off-die (us)"]);
    let mpb = svm_overhead(Consistency::LazyRelease, ScratchLocation::Mpb);
    let off = svm_overhead(Consistency::LazyRelease, ScratchLocation::OffDie);
    t.row(&[
        "physical allocation of a page frame".into(),
        fmt_us(mpb.physical_alloc_us),
        fmt_us(off.physical_alloc_us),
    ]);
    t.row(&[
        "mapping of a page frame".into(),
        fmt_us(mpb.map_us),
        fmt_us(off.map_us),
    ]);
    println!("{}", t.render());

    let p = LaplaceParams {
        width: 256,
        height: 128,
        iters: if args.quick { 4 } else { 16 },
    };
    let n = 8;
    let mut t = Table::new(&["laplace (lazy, 8 cores)", "MPB", "off-die"]);
    let run = |loc| {
        let svm = SvmConfig::builder().scratch(loc).build();
        let (cfg, svm) = (laplace_config(n, p), svm.expect("svm config"));
        laplace_run_on(cfg, LaplaceVariant::SvmLazy, n, p, Notify::Ipi, svm).0
    };
    let a = run(ScratchLocation::Mpb);
    let b = run(ScratchLocation::OffDie);
    t.row(&[
        "runtime (ms)".into(),
        format!("{:.3}", a.sim_ms),
        format!("{:.3}", b.sim_ms),
    ]);
    println!("{}", t.render());
    println!("expected: the off-die variant is slower on every fault path.");
}
