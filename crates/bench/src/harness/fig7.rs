//! Figure 7: average latency between cores 0 and 30 (5 hops) as the number
//! of activated cores grows.
//!
//! Three curves:
//! * **no-IPI** — the receiver scans every activated core's buffer, so the
//!   latency grows with the core count;
//! * **IPI** — the GIC names the sender, latency stays flat;
//! * **IPI + noise** — as before, while all other activated cores
//!   permanently exchange mails among themselves.
//!
//! Usage: `svmbench fig7 [--quick]`

use super::Args;
use crate::pingpong::{Background, PingPongSetup};
use crate::{fmt_us, Table};
use scc_hw::CoreId;
use scc_mailbox::Notify;

/// The first `n` activated cores, always containing 0 and 30.
fn active_set(n: usize) -> Vec<CoreId> {
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

pub fn run(args: &Args) {
    let rounds = if args.quick { 30 } else { 200 };
    let counts: &[usize] = if args.quick {
        &[2, 8, 16, 32, 48]
    } else {
        &[2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48]
    };

    println!("Figure 7 — average latency between core 0 and 30 (5 hops)");
    println!("(half round-trip, simulated us; {rounds} rounds per point)\n");
    let mut t = Table::new(&["cores", "no-IPI (us)", "IPI (us)", "IPI+noise (us)"]);
    for &n in counts {
        let active = active_set(n);
        let mk = |notify, background| PingPongSetup {
            a: CoreId::new(0),
            b: CoreId::new(30),
            active: active.clone(),
            notify,
            background,
            rounds,
        };
        let poll = crate::pingpong_latency_us(&mk(Notify::Poll, Background::Idle));
        let ipi = crate::pingpong_latency_us(&mk(Notify::Ipi, Background::Idle));
        let noise = crate::pingpong_latency_us(&mk(Notify::Ipi, Background::Noise));
        t.row(&[format!("{n}"), fmt_us(poll), fmt_us(ipi), fmt_us(noise)]);
    }
    println!("{}", t.render());
    println!(
        "paper shape: the no-IPI latency rises with the number of activated\n\
         cores (more buffers to check); both IPI curves stay nearly constant\n\
         and close to each other up to 48 cores."
    );
}
