//! Ablation A2: mailbox notification strategy under SVM load.
//!
//! §5 argues for the event-driven (GIC IPI) design because tick-driven
//! polling both delays mail detection and wastes cycles scanning buffers.
//! This harness runs the strong-model Laplace solver — whose ownership
//! protocol rides on the mailbox system — under both strategies.
//!
//! Usage: `svmbench ablation_notify [--quick]`

use super::Args;
use crate::{laplace_config, laplace_run_on, LaplaceVariant, Table};
use metalsvm::SvmConfig;
use scc_apps::laplace::LaplaceParams;
use scc_mailbox::Notify;

pub fn run(args: &Args) {
    let p = LaplaceParams {
        width: 256,
        height: 128,
        iters: if args.quick { 4 } else { 16 },
    };

    println!("Ablation A2 — mailbox notification under the strong SVM model\n");
    let mut t = Table::new(&["cores", "polling (ms)", "IPI (ms)"]);
    for &n in &[2usize, 4, 8, 16] {
        let run = |notify| {
            let (cfg, svm) = (laplace_config(n, p), SvmConfig::default());
            laplace_run_on(cfg, LaplaceVariant::SvmStrong, n, p, notify, svm).0
        };
        let (poll, ipi) = (run(Notify::Poll), run(Notify::Ipi));
        assert_eq!(poll.checksum, ipi.checksum);
        t.row(&[
            format!("{n}"),
            format!("{:.3}", poll.sim_ms),
            format!("{:.3}", ipi.sim_ms),
        ]);
    }
    println!("{}", t.render());
    println!(
        "expected: IPI-driven notification wins, and the polling penalty\n\
         grows with the core count (more buffers per scan round)."
    );
}
