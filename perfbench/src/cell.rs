//! One workload pass and the cells it is made of. A cell is one fresh
//! machine (`Cluster::new`) running one program on a set of cores; the
//! pass accumulates each cell's set-up time, timed-phase host cost, layer
//! counters, simulated results and spans.

use crate::host::Usage;
use crate::span::{CoreSpans, SpanLog};
use scc_hw::machine::CoreResult;
use scc_hw::{CoreId, MetricsSnapshot, MetricsSource, SccConfig};
use scc_kernel::{Cluster, Kernel};
use std::time::{Duration, Instant};

/// A named number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload pass measured.
#[derive(Default)]
pub struct PassOut {
    /// Host wall time from `Cluster::new` until every core finished its
    /// install/alloc calls, summed over the pass's cells.
    pub setup: Duration,
    /// Process CPU time (user+sys) over the same intervals, seconds.
    pub setup_cpu_s: f64,
    /// Host wall time after set-up, summed over the cells.
    pub wall: Duration,
    /// Process CPU time and context switches after set-up, summed.
    pub usage: Usage,
    /// Layer counters of every cell, merged.
    pub counters: MetricsSnapshot,
    /// Deterministic simulated results, in report order.
    pub sim: Vec<Metric>,
    /// Host-measured layer costs (noisy), in report order.
    pub host: Vec<Metric>,
    /// Units of work attempted and failed (cells, or kv requests).
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, as messages.
    pub errors: Vec<String>,
    /// Hypervisor steal time over the whole pass, all CPUs, seconds:
    /// explains wall-time outliers on a shared virtual machine.
    pub steal_s: f64,
}

impl PassOut {
    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.sim.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.host.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Look up a simulated result recorded earlier in this pass.
    pub fn sim_value(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Per-core helper handed to cell bodies: spans, the end-of-set-up mark
/// and layer counters the core contributes besides its `CoreResult.perf`.
pub struct Core {
    spans: CoreSpans,
    ready: Option<(Instant, Usage)>,
    counters: MetricsSnapshot,
}

impl Core {
    /// Mark the end of this core's set-up (its install/alloc calls).
    pub fn ready(&mut self) {
        self.ready = Some((Instant::now(), Usage::now()));
    }

    pub fn span<R>(
        &mut self,
        k: &mut Kernel<'_>,
        name: &'static str,
        f: impl FnOnce(&mut Kernel<'_>) -> R,
    ) -> R {
        self.spans.span(k, name, f)
    }

    /// Add a layer's counters (mailbox, SVM protocol) to the cell.
    pub fn count(&mut self, src: &dyn MetricsSource) {
        src.metrics_into(&mut self.counters);
    }
}

/// Runs cells and accumulates them into one pass.
pub struct Runner<'a> {
    pub log: &'a mut SpanLog,
    pub run: u32,
    /// The pass span, parent of every cell span.
    pub parent: Option<u32>,
    /// Units of work one cell stands for in `attempted`/`failed`.
    pub units_per_cell: u64,
    pub out: PassOut,
}

impl<'a> Runner<'a> {
    /// A runner for pass number `run` whose spans go to `log`.
    pub fn new(log: &'a mut SpanLog, run: u32) -> Runner<'a> {
        Runner {
            log,
            run,
            parent: None,
            units_per_cell: 1,
            out: PassOut::default(),
        }
    }

    /// Run `body` on `cores` of a fresh machine built from `cfg`. Every
    /// body must call [`Core::ready`] once its set-up is done. Returns
    /// `None`, counting the cell as failed, when the machine cannot be
    /// built, a core panics or the run deadlocks.
    pub fn cell<R, F>(
        &mut self,
        name: &str,
        cfg: SccConfig,
        cores: &[CoreId],
        body: F,
    ) -> Option<Vec<CoreResult<R>>>
    where
        R: Send,
        F: Fn(&mut Kernel<'_>, &mut Core) -> R + Send + Sync,
    {
        self.out.attempted += self.units_per_cell;
        let (on, epoch) = (self.log.on(), self.log.epoch());
        let (t0, u0) = (Instant::now(), Usage::now());
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cl = Cluster::new(cfg).map_err(|e| format!("{e:?}"))?;
            cl.run_on(cores, |k| {
                let mut c = Core {
                    spans: CoreSpans::new(on, epoch),
                    ready: None,
                    counters: MetricsSnapshot::new(),
                };
                let value = body(k, &mut c);
                (value, c)
            })
            .map_err(|e| format!("{e:?}"))
        }));
        let (t_end, u_end) = (Instant::now(), Usage::now());
        let res = match run {
            Ok(Ok(res)) => res,
            Ok(Err(e)) => {
                self.fail(format!("cell {name}: {e}"));
                return None;
            }
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(format!("cell {name}: a core panicked: {msg}"));
                return None;
            }
        };
        let Some((t_ready, u_ready)) = res
            .iter()
            .filter_map(|r| r.result.1.ready)
            .max_by_key(|(t, _)| *t)
        else {
            self.fail(format!("cell {name}: no core marked the end of set-up"));
            return None;
        };
        self.out.setup += t_ready - t0;
        self.out.setup_cpu_s += u_ready.since(&u0).cpu_s();
        self.out.wall += t_end.saturating_duration_since(t_ready);
        self.out.usage.add(&u_end.since(&u_ready));

        let makespan = res.iter().map(|r| r.clock.as_u64()).max().unwrap_or(0);
        let cell_id = self.log.push(
            name.to_string(),
            self.parent,
            self.run,
            (t0, t_end),
            Some((0, makespan)),
        );
        self.log.push(
            "setup".to_string(),
            Some(cell_id),
            self.run,
            (t0, t_ready),
            None,
        );
        let mut out = Vec::with_capacity(res.len());
        for r in res {
            r.perf.metrics_into(&mut self.out.counters);
            let (value, c) = r.result;
            self.out.counters.merge(&c.counters);
            if on {
                self.log
                    .adopt(cell_id, self.run, r.core.idx() as u32, c.spans.spans);
            }
            out.push(CoreResult {
                core: r.core,
                result: value,
                clock: r.clock,
                perf: r.perf,
                trace: r.trace,
            });
        }
        Some(out)
    }

    fn fail(&mut self, msg: String) {
        self.out.failed += self.units_per_cell;
        self.out.errors.push(msg);
    }
}

/// Host nanoseconds between the earliest start and the latest end of a
/// loop that several cores timed with `Instant`s.
pub fn loop_host_ns(marks: impl Iterator<Item = (Instant, Instant)>) -> f64 {
    let (starts, ends): (Vec<Instant>, Vec<Instant>) = marks.unzip();
    match (starts.iter().min(), ends.iter().max()) {
        (Some(a), Some(b)) => b.saturating_duration_since(*a).as_nanos() as f64,
        _ => 0.0,
    }
}
