//! Table 1: average overhead by using the SVM system (§7.2.1).
//!
//! Cores 0 and 30; a 4 MiB collective allocation; first touch by core 0;
//! first access by core 30; re-access by core 0. Strong vs lazy release.
//!
//! Usage: `svmbench table1`

use super::Args;
use crate::{fmt_us, svm_overhead, Table};
use metalsvm::{Consistency, ScratchLocation};

pub fn run(_args: &Args) {
    let strong = svm_overhead(Consistency::Strong, ScratchLocation::Mpb);
    let lazy = svm_overhead(Consistency::LazyRelease, ScratchLocation::Mpb);

    println!("Table 1 — average overhead by using the SVM system");
    println!("(simulated us; cores 0 and 30)\n");
    let mut t = Table::new(&["", "Strong", "Lazy Release"]);
    t.row(&[
        "allocation of 4 MByte (us)".into(),
        fmt_us(strong.alloc_4mib_us),
        fmt_us(lazy.alloc_4mib_us),
    ]);
    t.row(&[
        "physical allocation of a page frame (us)".into(),
        fmt_us(strong.physical_alloc_us),
        fmt_us(lazy.physical_alloc_us),
    ]);
    t.row(&[
        "mapping of a page frame (us)".into(),
        fmt_us(strong.map_us),
        fmt_us(lazy.map_us),
    ]);
    t.row(&[
        "retrieve the access permission (us)".into(),
        strong.retrieve_us.map(fmt_us).unwrap_or_default(),
        lazy.retrieve_us.map(fmt_us).unwrap_or_default(),
    ]);
    println!("{}", t.render());
    println!(
        "paper values: 741.0 / 741.0, 112.301 / 112.296, 10.198 / 2.418,\n\
         8.990 / (none). Shape to reproduce: equal allocation costs, the\n\
         physical allocation dominating, lazy mapping several times cheaper\n\
         than strong mapping, retrieval slightly below strong mapping."
    );
}
