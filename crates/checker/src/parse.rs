//! The two trace formats, each writer beside its reader.
//!
//! - the plain-text protocol log ([`protocol_log`]), one event per line
//!   in merged order:
//!   `[      123456] core 03 svm.own_request page=5 owner=2`
//! - the Chrome `trace_event` JSON ([`chrome_trace_json`]), for
//!   `chrome://tracing` or <https://ui.perfetto.dev>: one thread lane per
//!   core, timestamps in simulated microseconds. Instant events
//!   (`"ph":"i"`) carry name, tid and the named payload args;
//!   timestamps are microseconds at a known core clock, so
//!   `round(ts * mhz)` recovers the exact cycle count (at 533 MHz the
//!   `%.3f` quantization error is under half a cycle). `BlockEnter`/
//!   `BlockExit` pairs become `blocked` duration slices (`"X"`), which
//!   the reader skips along with the metadata (`"M"`) lines — no
//!   analysis consumes block events, so findings are unaffected.
//!
//! Neither format encodes ring truncation, so a parsed stream is treated
//! as complete; export only untruncated rings (the tracing harnesses
//! assert `overwritten() == 0`).
//!
//! Both readers are zero-dependency and line-oriented: the writers put
//! one event per line, which is the contract relied on here. They reject
//! what no simulated run can record — a core id at or beyond
//! [`CORE_LIMIT`], or a `region_alloc` range outside the SVM window — so
//! a hostile trace cannot make the analyses allocate without bound.

use crate::json::field;
use crate::{Rec, Stream};
use scc_hw::instr::{EventKind, TraceEvent};
use scc_hw::topology::CORE_LIMIT;
use std::collections::{BTreeSet, HashMap};

/// Pages in the SVM window, which spans `SVM_VA_BASE` to the top of the
/// 32-bit address space.
const SVM_WINDOW_PAGES: u64 = ((1u64 << 32) - scc_kernel::SVM_VA_BASE as u64) / 4096;

/// The payload slots `e`'s kind names, as `(name, value)` in slot order.
pub(crate) fn named_args(e: &TraceEvent) -> impl Iterator<Item = (&'static str, u32)> {
    let (an, bn, cn) = e.kind.arg_names();
    [(an, e.a), (bn, e.b), (cn, e.c)]
        .into_iter()
        .filter(|(name, _)| !name.is_empty())
}

/// Render a stream as the plain-text protocol log: one [`Rec::line`]
/// per event, in merged order.
pub fn protocol_log(stream: &Stream) -> String {
    stream.recs.iter().map(|r| r.line() + "\n").collect()
}

/// Render a stream as Chrome `trace_event` JSON (JSON-array format) at the
/// given core clock: one thread lane per core of [`Stream::cores`], each
/// lane's events in record order. `BlockEnter`/`BlockExit` pairs become
/// duration slices, everything else a thread-scoped instant event.
pub fn chrome_trace_json(stream: &Stream, core_mhz: u32) -> String {
    let mhz = core_mhz as f64;
    let mut lanes: HashMap<usize, Vec<&TraceEvent>> = HashMap::new();
    for r in &stream.recs {
        lanes.entry(r.core).or_default().push(&r.e);
    }
    let mut lines = Vec::new();
    for &tid in &stream.cores {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"core {tid:02}\"}}}}"
        ));
        let events = lanes.remove(&tid).unwrap_or_default();
        for (i, e) in events.iter().enumerate() {
            let ts = e.t as f64 / mhz;
            match e.kind {
                EventKind::BlockEnter => {
                    // Pair with the next BlockExit on this core.
                    let exit = events[i + 1..]
                        .iter()
                        .find(|x| x.kind == EventKind::BlockExit);
                    if let Some(x) = exit {
                        let dur = (x.t.saturating_sub(e.t)) as f64 / mhz;
                        lines.push(format!(
                            "{{\"name\":\"blocked\",\"cat\":\"exec\",\"ph\":\"X\",\
                             \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":0,\"tid\":{tid}}}"
                        ));
                    }
                }
                EventKind::BlockExit => {} // consumed by its BlockEnter
                _ => {
                    let args: Vec<String> = named_args(e)
                        .map(|(name, val)| format!("\"{name}\":{val}"))
                        .collect();
                    lines.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{ts:.3},\"pid\":0,\"tid\":{tid},\"args\":{{{}}}}}",
                        e.kind.name(),
                        e.kind.category(),
                        args.join(","),
                    ));
                }
            }
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// A parsed core id, if a simulated machine can have it.
fn core_id(core: usize) -> Result<usize, &'static str> {
    if core < CORE_LIMIT {
        Ok(core)
    } else {
        Err("core id beyond CORE_LIMIT")
    }
}

/// Assemble one parsed event from its named args.
fn build_rec(
    kind: EventKind,
    t: u64,
    core: usize,
    args: &[(&str, u32)],
) -> Result<Rec, &'static str> {
    let (an, bn, cn) = kind.arg_names();
    let get = |name: &str| {
        args.iter()
            .find(|(k, _)| !name.is_empty() && *k == name)
            .map_or(0, |(_, v)| *v)
    };
    let e = TraceEvent {
        t,
        kind,
        a: get(an),
        b: get(bn),
        c: get(cn),
    };
    if kind == EventKind::RegionAlloc && u64::from(e.a) + u64::from(e.b) > SVM_WINDOW_PAGES {
        return Err("region_alloc range leaves the SVM window");
    }
    Ok(Rec {
        t,
        core: core_id(core)?,
        e,
    })
}

/// Parse a plain-text protocol log (the [`protocol_log`] format).
pub fn parse_protocol_log(text: &str) -> Result<Stream, String> {
    let mut recs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("protocol log line {}: {what}: {raw:?}", lineno + 1);
        let rest = line.strip_prefix('[').ok_or_else(|| err("missing '['"))?;
        let (t_str, rest) = rest.split_once(']').ok_or_else(|| err("missing ']'"))?;
        let t: u64 = t_str
            .trim()
            .parse()
            .map_err(|_| err("bad timestamp"))?;
        let mut tokens = rest.split_whitespace();
        if tokens.next() != Some("core") {
            return Err(err("expected 'core'"));
        }
        let core: usize = tokens
            .next()
            .ok_or_else(|| err("missing core id"))?
            .parse()
            .map_err(|_| err("bad core id"))?;
        let cat_name = tokens.next().ok_or_else(|| err("missing event name"))?;
        let name = cat_name
            .split_once('.')
            .map(|(_, n)| n)
            .unwrap_or(cat_name);
        let kind = EventKind::from_name(name)
            .ok_or_else(|| err("unknown event name"))?;
        let mut args = Vec::new();
        for tok in tokens {
            let (k, v) = tok.split_once('=').ok_or_else(|| err("bad k=v token"))?;
            let v: u32 = v.parse().map_err(|_| err("bad arg value"))?;
            args.push((k, v));
        }
        recs.push(build_rec(kind, t, core, &args).map_err(err)?);
    }
    let cores: BTreeSet<usize> = recs.iter().map(|r| r.core).collect();
    Ok(Stream::new(cores.into_iter().collect(), recs, 0))
}

/// Parse Chrome `trace_event` JSON (the [`chrome_trace_json`] format) at
/// the given core clock.
pub fn parse_chrome_trace(text: &str, core_mhz: u32) -> Result<Stream, String> {
    let mhz = core_mhz as f64;
    let mut cores = Vec::new();
    let mut recs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let err = |what: &str| format!("chrome trace line {}: {what}: {raw:?}", lineno + 1);
        let ph = field(line, "ph").ok_or_else(|| err("missing ph"))?;
        let tid = || -> Result<usize, String> {
            let tid = field(line, "tid")
                .ok_or_else(|| err("missing tid"))?
                .parse()
                .map_err(|_| err("bad tid"))?;
            core_id(tid).map_err(err)
        };
        match ph {
            // A thread-name record opens a core's lane.
            "M" => {
                cores.push(tid()?);
                continue;
            }
            "i" => {}
            // "X" blocked-slices carry no payload events.
            _ => continue,
        }
        let name = field(line, "name").ok_or_else(|| err("missing name"))?;
        let kind = EventKind::from_name(name).ok_or_else(|| err("unknown event name"))?;
        let core = tid()?;
        let ts: f64 = field(line, "ts")
            .ok_or_else(|| err("missing ts"))?
            .parse()
            .map_err(|_| err("bad ts"))?;
        let t = (ts * mhz).round() as u64;
        let mut args = Vec::new();
        if let Some(abody) = line.find("\"args\":{") {
            let body_start = abody + "\"args\":{".len();
            let body_end = line[body_start..]
                .find('}')
                .ok_or_else(|| err("unterminated args"))?;
            let body = &line[body_start..body_start + body_end];
            for pair in body.split(',').filter(|p| !p.trim().is_empty()) {
                let (k, v) = pair.split_once(':').ok_or_else(|| err("bad args pair"))?;
                let k = k.trim().trim_matches('"');
                let v: u32 = v.trim().parse().map_err(|_| err("bad args value"))?;
                args.push((k, v));
            }
        }
        recs.push(build_rec(kind, t, core, &args).map_err(err)?);
    }
    Ok(Stream::new(cores, recs, 0))
}

/// Sniff the format (Chrome JSON carries `"ph"` keys) and parse.
pub fn parse_auto(text: &str, core_mhz: u32) -> Result<Stream, String> {
    if text.contains("\"ph\"") {
        parse_chrome_trace(text, core_mhz)
    } else {
        parse_protocol_log(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use scc_hw::instr::ALL_KINDS;

    fn rec(t: u64, core: usize, kind: EventKind, a: u32, b: u32, c: u32) -> Rec {
        Rec {
            t,
            core,
            e: TraceEvent { t, kind, a, b, c },
        }
    }

    #[test]
    fn protocol_log_line_round_trips() {
        let text = "[      123456] core 03 svm.own_request page=5 owner=2\n";
        let recs = parse_protocol_log(text).unwrap().recs;
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.t, 123456);
        assert_eq!(r.core, 3);
        assert_eq!(r.e.kind, EventKind::OwnRequest);
        assert_eq!((r.e.a, r.e.b), (5, 2));
        assert_eq!(r.line(), text.trim_end());
    }

    #[test]
    fn chrome_instant_round_trips_at_533_mhz() {
        // 123456 cycles at 533 MHz = 231.625 us (3 decimals) — the parser
        // must recover the exact cycle count.
        let ts = 123456f64 / 533.0;
        let line = format!(
            "[\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3,\
             \"args\":{{\"name\":\"core 03\"}}}},\n\
             {{\"name\":\"own_request\",\"cat\":\"svm\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{ts:.3},\"pid\":0,\"tid\":3,\"args\":{{\"page\":5,\"owner\":2}}}}\n]\n"
        );
        let recs = parse_chrome_trace(&line, 533).unwrap().recs;
        assert_eq!(recs.len(), 1, "metadata line must be skipped");
        let r = &recs[0];
        assert_eq!(r.t, 123456);
        assert_eq!(r.core, 3);
        assert_eq!(r.e.kind, EventKind::OwnRequest);
        assert_eq!((r.e.a, r.e.b), (5, 2));
    }

    #[test]
    fn sniffer_picks_the_right_parser() {
        assert_eq!(
            parse_auto("[      10] core 00 sync.barrier\n", 533)
                .unwrap()
                .recs[0]
                .e
                .kind,
            EventKind::Barrier
        );
        let chrome = "{\"name\":\"barrier\",\"cat\":\"sync\",\"ph\":\"i\",\"s\":\"t\",\
                      \"ts\":0.019,\"pid\":0,\"tid\":0,\"args\":{}}";
        assert_eq!(
            parse_auto(chrome, 533).unwrap().recs[0].e.kind,
            EventKind::Barrier
        );
    }

    #[test]
    fn exporters_render_names_and_args() {
        let s = Stream::new(
            vec![3],
            vec![
                rec(533, 3, EventKind::OwnRequest, 5, 2, 0),
                rec(1066, 3, EventKind::BlockEnter, 0, 0, 0),
                rec(2132, 3, EventKind::BlockExit, 0, 0, 0),
            ],
            0,
        );
        let json = chrome_trace_json(&s, 533);
        assert!(json.contains("\"own_request\""));
        assert!(json.contains("\"page\":5"));
        assert!(json.contains("\"ph\":\"X\""), "block pair must become a slice");
        assert!(json.contains("\"ts\":1.000"), "533 cy at 533 MHz = 1 us");

        let log = protocol_log(&s);
        assert!(log.contains("core 03 svm.own_request page=5 owner=2"));
    }

    #[test]
    fn third_payload_slot_renders_when_named() {
        let s = Stream::new(
            vec![0],
            vec![
                rec(100, 0, EventKind::RegionAlloc, 4, 2, 1),
                rec(200, 0, EventKind::MailSend, 7, 3, 123456),
            ],
            0,
        );
        let log = protocol_log(&s);
        assert!(log.contains("svm.region_alloc page=4 pages=2 model=1"));
        assert!(log.contains("mailbox.mail_send dst=7 kind=3 stamp=123456"));
        let json = chrome_trace_json(&s, 533);
        assert!(json.contains("\"model\":1"));
        assert!(json.contains("\"stamp\":123456"));
    }

    #[test]
    fn every_kind_round_trips_through_both_formats() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut recs = Vec::new();
        for _ in 0..8 {
            for kind in ALL_KINDS {
                let t = rng.gen_range_u64(1 << 40);
                let core = rng.gen_range_u64(CORE_LIMIT as u64) as usize;
                let (an, bn, cn) = kind.arg_names();
                let mut slot = |name: &str| if name.is_empty() { 0 } else { rng.gen::<u32>() };
                let (mut a, mut b, c) = (slot(an), slot(bn), slot(cn));
                if kind == EventKind::RegionAlloc {
                    // Keep the range inside the SVM window.
                    (a, b) = (a % (1 << 18), b % (1 << 18));
                }
                recs.push(rec(t, core, kind, a, b, c));
            }
        }
        let cores: BTreeSet<usize> = recs.iter().map(|r| r.core).collect();
        let cores: Vec<usize> = cores.into_iter().collect();

        let s = Stream::new(cores.clone(), recs.clone(), 0);
        let log = protocol_log(&s);
        let back = parse_protocol_log(&log).unwrap();
        assert_eq!(back.recs, s.recs);
        assert_eq!(protocol_log(&back), log);

        // The Chrome trace folds block pairs into slices the reader skips.
        recs.retain(|r| !matches!(r.e.kind, EventKind::BlockEnter | EventKind::BlockExit));
        let s = Stream::new(cores, recs, 0);
        let back = parse_chrome_trace(&chrome_trace_json(&s, 533), 533).unwrap();
        assert_eq!(back.recs, s.recs);
        assert_eq!(protocol_log(&back), protocol_log(&s));
    }

    #[test]
    fn log_rejects_a_core_beyond_the_limit() {
        let err = parse_protocol_log("[           0] core 20000 sync.barrier\n").unwrap_err();
        assert!(err.contains("line 1") && err.contains("CORE_LIMIT"), "{err}");
    }

    #[test]
    fn log_rejects_a_region_outside_the_svm_window() {
        let text = "[           0] core 00 svm.region_alloc page=0 pages=4294967295 model=0\n";
        let err = parse_protocol_log(text).unwrap_err();
        assert!(err.contains("line 1") && err.contains("SVM window"), "{err}");
    }

    #[test]
    fn chrome_rejects_a_core_beyond_the_limit() {
        let text = "{\"name\":\"barrier\",\"cat\":\"sync\",\"ph\":\"i\",\"s\":\"t\",\
                    \"ts\":0.000,\"pid\":0,\"tid\":20000,\"args\":{}}";
        let err = parse_chrome_trace(text, 533).unwrap_err();
        assert!(err.contains("line 1") && err.contains("CORE_LIMIT"), "{err}");
    }

    #[test]
    fn chrome_rejects_a_region_outside_the_svm_window() {
        let text = "{\"name\":\"region_alloc\",\"cat\":\"svm\",\"ph\":\"i\",\"s\":\"t\",\
                    \"ts\":0.000,\"pid\":0,\"tid\":0,\
                    \"args\":{\"page\":0,\"pages\":4294967295,\"model\":0}}";
        let err = parse_chrome_trace(text, 533).unwrap_err();
        assert!(err.contains("line 1") && err.contains("SVM window"), "{err}");
    }
}
