//! Spans recorded by the benchmark around its own calls into the stack:
//! set-up, each cell or loop, and each per-core call into a layer
//! function. Spans stay in memory and are written out when the run ends.
//!
//! Under the serial baton executor only one simulated core runs at a
//! time, so a per-core span also covers the host time other cores ran
//! while this one waited for the baton. Per-layer host time therefore
//! comes from the loops in which one layer dominates (the probes), not
//! from per-core span totals.

use scc_kernel::Kernel;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    /// The workload pass this span belongs to.
    pub run: u32,
    /// The simulated core that made the call (`None` for main-thread spans).
    pub core: Option<u32>,
    /// Host time in nanoseconds since the process epoch.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Simulated cycles on `core`'s clock (`None` for main-thread spans).
    pub sim_start: Option<u64>,
    pub sim_end: Option<u64>,
}

/// A span recorded inside a core, before it has an id.
#[derive(Clone, Debug)]
pub struct CoreSpan {
    pub name: &'static str,
    pub host: (u64, u64),
    pub sim: (u64, u64),
}

/// The spans of one process run.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(on: bool) -> SpanLog {
        SpanLog {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Record a main-thread span; returns its id (0 when tracing is off).
    pub fn push(
        &mut self,
        name: String,
        parent: Option<u32>,
        run: u32,
        host: (Instant, Instant),
        sim: Option<(u64, u64)>,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            run,
            core: None,
            host_start_ns: self.ns(host.0),
            host_end_ns: self.ns(host.1),
            sim_start: sim.map(|s| s.0),
            sim_end: sim.map(|s| s.1),
        });
        id
    }

    /// Open a main-thread span that [`SpanLog::close`] ends later, so that
    /// spans recorded in between can name it as their parent.
    pub fn open(&mut self, name: String, parent: Option<u32>, run: u32, start: Instant) -> u32 {
        self.push(name, parent, run, (start, start), None)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        if self.on {
            let ns = self.ns(end);
            self.spans[id as usize - 1].host_end_ns = ns;
        }
    }

    /// Adopt the spans one core recorded as children of `parent`.
    pub fn adopt(&mut self, parent: u32, run: u32, core: u32, spans: Vec<CoreSpan>) {
        for s in spans {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: s.name.to_string(),
                run,
                core: Some(core),
                host_start_ns: s.host.0,
                host_end_ns: s.host.1,
                sim_start: Some(s.sim.0),
                sim_end: Some(s.sim.1),
            });
        }
    }

    /// Self host time of every span: its duration minus the part of it
    /// that the union of its children's intervals covers.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p as usize].push((s.host_start_ns, s.host_end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let (lo, hi) = (s.host_start_ns, s.host_end_ns);
                let iv = &mut kids[s.id as usize];
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = lo;
                for &(a, b) in iv.iter() {
                    let (a, b) = (a.max(reach), b.min(hi));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (hi - lo).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (count, total host ms, self host ms, simulated
    /// cycles summed over the spans that carry them).
    pub fn summary(&self) -> BTreeMap<String, (u64, f64, f64, u64)> {
        let selfs = self.self_ns();
        let mut m: BTreeMap<String, (u64, f64, f64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = m.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.host_end_ns - s.host_start_ns) as f64 / 1e6;
            e.2 += self_ns as f64 / 1e6;
            if let (Some(a), Some(b)) = (s.sim_start, s.sim_end) {
                e.3 += b - a;
            }
        }
        m
    }

    /// All spans as a JSON document, self time included.
    pub fn to_json(&self, header: &str) -> String {
        let selfs = self.self_ns();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = format!("{{{header}, \"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let _ = write!(
                out,
                "{}  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"run\": {}, \"core\": {}, \
                 \"host_start_ns\": {}, \"host_end_ns\": {}, \"self_ns\": {}, \
                 \"sim_start\": {}, \"sim_end\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.id,
                opt(s.parent.map(u64::from)),
                s.name,
                s.run,
                opt(s.core.map(u64::from)),
                s.host_start_ns,
                s.host_end_ns,
                self_ns,
                opt(s.sim_start),
                opt(s.sim_end),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The spans one simulated core records during a cell.
pub struct CoreSpans {
    on: bool,
    epoch: Instant,
    pub spans: Vec<CoreSpan>,
}

impl CoreSpans {
    pub fn new(on: bool, epoch: Instant) -> CoreSpans {
        CoreSpans {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Run `f` as the span `name` on this core.
    pub fn span<R>(
        &mut self,
        k: &mut Kernel<'_>,
        name: &'static str,
        f: impl FnOnce(&mut Kernel<'_>) -> R,
    ) -> R {
        if !self.on {
            return f(k);
        }
        let (h0, s0) = (Instant::now(), k.hw.now());
        let r = f(k);
        let (h1, s1) = (Instant::now(), k.hw.now());
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(CoreSpan {
            name,
            host: (ns(h0), ns(h1)),
            sim: (s0, s1),
        });
        r
    }
}
