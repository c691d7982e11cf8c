//! Offline parsers: read an exported trace back into the event stream.
//!
//! Two formats round-trip:
//!
//! - the plain-text protocol log (`scc_hw::instr::protocol_log`),
//!   one event per line:
//!   `[      123456] core 03 svm.own_request page=5 owner=2`
//! - the Chrome `trace_event` JSON (`scc_hw::instr::chrome_trace_json`).
//!   Instant events (`"ph":"i"`) carry name, tid and the named payload
//!   args; timestamps are microseconds at a known core clock, so
//!   `round(ts * mhz)` recovers the exact cycle count (at 533 MHz the
//!   `%.3f` quantization error is under half a cycle). Metadata (`"M"`)
//!   lines are skipped, and `blocked` slices (`"X"`) are skipped too —
//!   the exporter folds `BlockEnter`/`BlockExit` into them, and no
//!   analysis consumes block events, so findings are unaffected.
//!
//! Neither format encodes ring truncation, so an offline stream is
//! treated as complete; export only untruncated rings (the tracing
//! harnesses assert `overwritten() == 0`).
//!
//! Both parsers are zero-dependency and line-oriented: the exporters
//! write one event per line, which is the contract relied on here.

use crate::json::field;
use crate::Rec;
use scc_hw::instr::{EventKind, TraceEvent};

fn build_event(kind: EventKind, t: u64, args: &[(String, u32)]) -> TraceEvent {
    let (an, bn, cn) = kind.arg_names();
    let get = |name: &str| {
        args.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    TraceEvent {
        t,
        kind,
        a: if an.is_empty() { 0 } else { get(an) },
        b: if bn.is_empty() { 0 } else { get(bn) },
        c: if cn.is_empty() { 0 } else { get(cn) },
    }
}

/// Parse a plain-text protocol log (the `protocol_log` format).
pub fn parse_protocol_log(text: &str) -> Result<Vec<Rec>, String> {
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
        let mut args: Vec<(String, u32)> = Vec::new();
        for tok in tokens {
            let (k, v) = tok.split_once('=').ok_or_else(|| err("bad k=v token"))?;
            let v: u32 = v.parse().map_err(|_| err("bad arg value"))?;
            args.push((k.to_string(), v));
        }
        recs.push(Rec {
            t,
            core,
            e: build_event(kind, t, &args),
        });
    }
    Ok(recs)
}

/// Parse Chrome `trace_event` JSON (the `chrome_trace_json` format) at the
/// given core clock.
pub fn parse_chrome_trace(text: &str, core_mhz: u32) -> Result<Vec<Rec>, String> {
    let mhz = core_mhz as f64;
    let mut recs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let err = |what: &str| format!("chrome trace line {}: {what}: {raw:?}", lineno + 1);
        let ph = field(line, "ph").ok_or_else(|| err("missing ph"))?;
        if ph != "i" {
            // "M" metadata and "X" blocked-slices carry no payload events.
            continue;
        }
        let name = field(line, "name").ok_or_else(|| err("missing name"))?;
        let kind = EventKind::from_name(name).ok_or_else(|| err("unknown event name"))?;
        let core: usize = field(line, "tid")
            .ok_or_else(|| err("missing tid"))?
            .parse()
            .map_err(|_| err("bad tid"))?;
        let ts: f64 = field(line, "ts")
            .ok_or_else(|| err("missing ts"))?
            .parse()
            .map_err(|_| err("bad ts"))?;
        let t = (ts * mhz).round() as u64;
        let mut args: Vec<(String, u32)> = Vec::new();
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
                args.push((k.to_string(), v));
            }
        }
        recs.push(Rec {
            t,
            core,
            e: build_event(kind, t, &args),
        });
    }
    Ok(recs)
}

/// Sniff the format (Chrome JSON carries `"ph"` keys) and parse.
pub fn parse_auto(text: &str, core_mhz: u32) -> Result<Vec<Rec>, String> {
    if text.contains("\"ph\"") {
        parse_chrome_trace(text, core_mhz)
    } else {
        parse_protocol_log(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_log_line_round_trips() {
        let text = "[      123456] core 03 svm.own_request page=5 owner=2\n";
        let recs = parse_protocol_log(text).unwrap();
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
        let recs = parse_chrome_trace(&line, 533).unwrap();
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
            parse_auto("[      10] core 00 sync.barrier\n", 533).unwrap()[0].e.kind,
            EventKind::Barrier
        );
        let chrome = "{\"name\":\"barrier\",\"cat\":\"sync\",\"ph\":\"i\",\"s\":\"t\",\
                      \"ts\":0.019,\"pid\":0,\"tid\":0,\"args\":{}}";
        assert_eq!(
            parse_auto(chrome, 533).unwrap()[0].e.kind,
            EventKind::Barrier
        );
    }
}
