//! `svmcheck` — offline consistency checking of exported traces.
//!
//! ```text
//! svmcheck [--mhz N] [--json] [--expect SLUG] FILE...
//! ```
//!
//! Each FILE is either a protocol log (`parse::protocol_log` text) or a
//! Chrome trace JSON (`parse::chrome_trace_json`); the format is sniffed
//! per file.
//! `--mhz` sets the core clock used to turn Chrome microsecond timestamps
//! back into cycles (default: the simulator's default core clock).
//!
//! Exit status: 0 — every file is clean (or, with `--expect`, every file
//! reports at least one finding of the given kind and no finding of any
//! other kind); 1 — findings (or an `--expect` mismatch, including
//! *additional unexpected* findings next to the expected one); 2 — usage
//! or I/O error.

use scc_checker::parse;
use scc_hw::SccConfig;
use std::process::ExitCode;

struct Args {
    mhz: u32,
    json: bool,
    expect: Option<String>,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mhz: SccConfig::default().timing.core_mhz,
        json: false,
        expect: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mhz" => {
                let v = it.next().ok_or("--mhz needs a value")?;
                args.mhz = v.parse().map_err(|_| format!("bad --mhz value: {v}"))?;
            }
            "--json" => args.json = true,
            "--expect" => {
                args.expect = Some(it.next().ok_or("--expect needs a finding kind")?);
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            f if !f.starts_with('-') => args.files.push(f.to_string()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.files.is_empty() {
        return Err("no input files".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("svmcheck: {msg}");
            }
            eprintln!("usage: svmcheck [--mhz N] [--json] [--expect KIND] FILE...");
            return ExitCode::from(2);
        }
    };

    let mut bad = false;
    for file in &args.files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("svmcheck: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let stream = match parse::parse_auto(&text, args.mhz) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("svmcheck: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let report = stream.check();
        if args.files.len() > 1 || args.expect.is_some() {
            println!("== {file} ==");
        }
        if args.json {
            print!("{}", report.to_json());
        } else {
            print!("{}", report.render_text());
        }
        match &args.expect {
            Some(slug) => {
                if report.expect_ok(slug) {
                    println!(
                        "expect: ok — {} '{slug}' finding(s), nothing else",
                        report.findings.len()
                    );
                } else {
                    let got: Vec<&str> = report.findings.iter().map(|f| f.slug).collect();
                    println!(
                        "expect: FAILED — wanted only '{slug}' findings, got [{}]",
                        got.join(", ")
                    );
                    bad = true;
                }
            }
            None => {
                if !report.findings.is_empty() {
                    bad = true;
                }
            }
        }
    }
    if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
