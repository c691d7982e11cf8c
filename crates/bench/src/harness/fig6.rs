//! Figure 6: average mailbox latency according to mesh distance.
//!
//! Ping-pong between core 0 and a partner at hop distance 0..=8, with only
//! the two cores activated. Two curves: without IPI support (idle-loop
//! polling) and with IPI support (GIC doorbell). Reported values are half
//! round-trip times in simulated microseconds, as in the paper.
//!
//! Usage: `svmbench fig6 [--quick]`

use super::Args;
use crate::{fmt_us, PingPongSetup, Table};
use scc_hw::{CoreId, Topology};
use scc_mailbox::Notify;

pub fn run(args: &Args) {
    let rounds = if args.quick { 50 } else { 400 };
    let topo = Topology::from_env_or_scc48();
    let origin = CoreId::from_raw(0);

    println!("Figure 6 — average latency according to the distance");
    println!("(half round-trip, simulated us; {rounds} rounds per point)\n");
    let mut t = Table::new(&["hops", "no-IPI (us)", "IPI (us)"]);
    for hops in 0..=topo.max_hops() {
        let partner = topo
            .core_at_distance(origin, hops)
            .expect("partner exists up to the mesh diameter");
        let poll = crate::pingpong_latency_us(&PingPongSetup::pair(
            origin,
            partner,
            Notify::Poll,
            rounds,
        ));
        let ipi = crate::pingpong_latency_us(&PingPongSetup::pair(
            origin,
            partner,
            Notify::Ipi,
            rounds,
        ));
        t.row(&[format!("{hops}"), fmt_us(poll), fmt_us(ipi)]);
    }
    println!("{}", t.render());
    println!(
        "paper shape: both curves linear in the distance with a low gradient;\n\
         the IPI curve sits above the no-IPI curve (interrupt disruption)\n\
         because with two active cores only one buffer needs checking anyway."
    );
}
