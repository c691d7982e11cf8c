//! `svmbench` — one binary for every table, figure, ablation, benchmark
//! and trace harness (`DESIGN.md` §4 has the index).
//!
//! ```text
//! svmbench SUBCOMMAND [FLAGS]
//! ```
//!
//! Run it with `cargo run -p scc-bench --release --bin svmbench --
//! SUBCOMMAND [FLAGS]`; add `--features trace` for the `trace_*`
//! subcommands, `bench_checker` and `bench_scale`. Each subcommand
//! accepts only the flags its experiment reads (the table below); any
//! other argument prints the usage to stderr and exits with status 2.

use scc_bench::harness::*;
use std::process::ExitCode;

const QUICK: &[&str] = &["--quick"];
const QUICK_ITERS: &[&str] = &["--quick", "--iters"];

type Experiment = fn(&Args);

/// Each subcommand: its name, the flags it reads (`FIXTURE`: any number
/// of positional fixture names), and its experiment.
const COMMANDS: &[(&str, &[&str], Experiment)] = &[
    ("table1", &[], table1::run),
    ("fig6", QUICK, fig6::run),
    ("fig7", QUICK, fig7::run),
    ("fig9", QUICK_ITERS, fig9::run),
    ("ablation_affinity", QUICK, ablation_affinity::run),
    ("ablation_notify", QUICK, ablation_notify::run),
    ("ablation_readonly", QUICK, ablation_readonly::run),
    ("ablation_scratchpad", QUICK, ablation_scratchpad::run),
    (
        "bench_checker",
        &["--quick", "--iters", "--reps"],
        bench_checker::run,
    ),
    (
        "bench_fastpath",
        &["--quick", "--iters", "--reps", "--force"],
        bench_fastpath::run,
    ),
    (
        "bench_kv",
        &["--quick", "--iters", "--force"],
        bench_kv::run,
    ),
    ("bench_scale", QUICK, bench_scale::run),
    ("trace_fixture", &["FIXTURE"], trace_fixture::run),
    ("trace_kv", QUICK_ITERS, trace_kv::run),
    ("trace_laplace", QUICK_ITERS, trace_laplace::run),
];

fn usage() -> String {
    let mut out = String::from("usage: svmbench SUBCOMMAND [FLAGS]\n\nsubcommands:\n");
    for (name, flags, _) in COMMANDS {
        let flags: Vec<String> = flags
            .iter()
            .map(|&f| match f {
                "--iters" | "--reps" => format!("[{f} N]"),
                "FIXTURE" => "[FIXTURE ...]".into(),
                _ => format!("[{f}]"),
            })
            .collect();
        out.push_str(format!("  {name:<20} {}", flags.join(" ")).trim_end());
        out.push('\n');
    }
    out
}

fn parse(argv: &[String]) -> Result<(Experiment, Args), String> {
    let name = argv.first().ok_or("no subcommand given")?;
    let &(name, flags, run) = COMMANDS
        .iter()
        .find(|c| c.0 == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let mut args = Args::default();
    let mut it = argv[1..].iter();
    while let Some(a) = it.next() {
        let flag = if a.starts_with('-') {
            a.as_str()
        } else {
            "FIXTURE"
        };
        if !flags.contains(&flag) {
            return Err(format!("{name} does not take `{a}`"));
        }
        let mut count = || -> Result<usize, String> {
            let v = it.next().ok_or(format!("{a} needs a value"))?;
            let n = v.parse().ok().filter(|&n| n > 0);
            n.ok_or(format!("{a} needs a positive number, got `{v}`"))
        };
        match flag {
            "--quick" => args.quick = true,
            "--force" => args.force = true,
            "--iters" => args.iters = Some(count()?),
            "--reps" => args.reps = Some(count()?),
            _ => args.fixtures.push(a.clone()),
        }
    }
    Ok((run, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok((run, args)) => {
            run(&args);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("svmbench: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
