//! `svm-check`: a dynamic consistency checker over the structured
//! protocol-event stream (`scc_hw::instr`).
//!
//! The SVM system's consistency models put the correctness burden on the
//! programmer: under lazy release consistency a reader that skips the
//! `CL1INVMB` invalidate at lock acquire silently reads stale data, and
//! under the strong model every page must follow the single-owner 5-step
//! migration protocol. This crate turns the deterministic, typed,
//! cycle-stamped event stream into a verification subsystem running three
//! analyses:
//!
//! 1. **Race detector** ([`race`]) — vector-clock happens-before analysis
//!    of shared-page accesses on lazy-release pages. Lock
//!    acquire/release-flush and barrier events establish the HB edges; a
//!    write → read pair with no ordering path between them is a
//!    guaranteed-stale read on the simulated non-coherent L1/L2.
//! 2. **Protocol monitor** ([`protocol`]) — checks the strong model's
//!    ownership-migration state machine per page: single owner at all
//!    times, no grant without a request, access withdrawn (PTE protect or
//!    unmap) before granting away, the `FrameOwners` advisory registry
//!    consistent with grants, and mailbox receive events correlated to
//!    sends.
//! 3. **Synchronization linter** ([`lint`]) — unreleased locks at
//!    barrier/exit, acquire-without-invalidate, release-without-flush,
//!    and the typed misuse errors recorded by `SvmLock`
//!    (double release, acquire re-entry).
//!
//! ## Online and offline
//!
//! Online, a [`Checker`] registers as an [`scc_hw::EventSink`] and is fed
//! the merged per-core rings of a finished run via [`scc_hw::replay`]
//! (use [`check_rings`]). Offline, [`parse`] reads the exported protocol
//! log or Chrome trace JSON back into the same event stream. Both paths
//! observe the identical global order, so they produce identical findings
//! — the shadow tests assert this.
//!
//! Without the `trace` cargo feature the rings stay empty, every stream
//! is empty, and the checker reports zero findings at zero cost: the
//! subsystem is a no-op exactly when the instrumentation is.

pub mod fnv;
pub mod json;
pub mod lint;
pub mod parse;
pub mod protocol;
pub mod race;
pub mod report;

pub use report::{Detector, Finding, Report};

use scc_hw::instr::{EventKind, TraceEvent};
use scc_hw::{CoreId, EventSink, TraceRing};
use std::collections::{BTreeSet, HashMap};

/// Consistency-model tags as carried by `RegionAlloc` events.
pub const MODEL_STRONG: u8 = 0;
pub const MODEL_LAZY: u8 = 1;
pub const MODEL_WRITE_INVALIDATE: u8 = 2;

/// One event with its originating core — the unit the analyses consume.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Rec {
    pub t: u64,
    pub core: usize,
    pub e: TraceEvent,
}

impl Rec {
    /// Render as a protocol-log line, byte-identical to what
    /// `scc_hw::instr::protocol_log` prints for this event (findings quote
    /// these lines in their excerpts).
    pub fn line(&self) -> String {
        let (an, bn, cn) = self.e.kind.arg_names();
        let mut s = format!(
            "[{:>12}] core {:02} {}.{}",
            self.t,
            self.core,
            self.e.kind.category(),
            self.e.kind.name()
        );
        for (name, val) in [(an, self.e.a), (bn, self.e.b), (cn, self.e.c)] {
            if !name.is_empty() {
                s.push_str(&format!(" {name}={val}"));
            }
        }
        s
    }
}

/// Facts every analysis needs, gathered in one pre-pass over the stream.
pub struct StreamInfo {
    /// Number of cores (max observed core index + 1).
    pub ncores: usize,
    /// Consistency model per SVM page, from `RegionAlloc` events.
    pub models: HashMap<u32, u8>,
    /// Cores that emit at least one `Barrier` event — the barrier
    /// participant set for the HB model.
    pub barrier_cores: Vec<usize>,
    /// No ring wrapped: the stream is the complete event history, so
    /// absence-based checks are sound.
    pub complete: bool,
    /// Base VA of the SVM window, to turn `PageProtect`/`PageUnmap` VAs
    /// into page numbers.
    pub svm_base: u32,
}

impl StreamInfo {
    pub fn scan(recs: &[Rec], complete: bool) -> StreamInfo {
        let mut ncores = 0;
        let mut models = HashMap::new();
        let mut barrier_cores = BTreeSet::new();
        for r in recs {
            ncores = ncores.max(r.core + 1);
            match r.e.kind {
                EventKind::RegionAlloc => {
                    for p in r.e.a..r.e.a.saturating_add(r.e.b) {
                        models.insert(p, r.e.c as u8);
                    }
                }
                EventKind::Barrier => {
                    barrier_cores.insert(r.core);
                }
                _ => {}
            }
        }
        StreamInfo {
            ncores,
            models,
            barrier_cores: barrier_cores.into_iter().collect(),
            complete,
            svm_base: scc_kernel::SVM_VA_BASE,
        }
    }

    /// The model of `page`, if a `RegionAlloc` covered it.
    pub fn model(&self, page: u32) -> Option<u8> {
        self.models.get(&page).copied()
    }

    /// Page number of `va` if it falls inside the SVM window.
    pub fn page_of_va(&self, va: u32) -> Option<u32> {
        (va >= self.svm_base).then(|| (va - self.svm_base) / 4096)
    }
}

/// The checker: buffer the stream (online as an [`EventSink`], offline
/// from [`parse`]), then run all three analyses in [`Checker::finish`].
#[derive(Default)]
pub struct Checker {
    recs: Vec<Rec>,
    lost: u64,
}

impl EventSink for Checker {
    fn event(&mut self, core: CoreId, event: &TraceEvent) {
        self.push(core.idx(), *event);
    }

    fn truncated(&mut self, _core: CoreId, lost: u64) {
        self.lost += lost;
    }
}

impl Checker {
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Feed one event (offline path; the online path goes through the
    /// [`EventSink`] impl).
    pub fn push(&mut self, core: usize, e: TraceEvent) {
        self.recs.push(Rec { t: e.t, core, e });
    }

    /// Record that `lost` events are missing from the stream (ring wrap).
    pub fn mark_truncated(&mut self, lost: u64) {
        self.lost += lost;
    }

    /// Sort the buffered stream into global simulated-time order (stable:
    /// ties keep per-core ring order, matching `protocol_log`) and run the
    /// three analyses.
    pub fn finish(mut self) -> Report {
        self.recs.sort_by_key(|r| (r.t, r.core));
        let info = StreamInfo::scan(&self.recs, self.lost == 0);
        let mut findings = Vec::new();
        findings.extend(race::analyze(&self.recs, &info));
        findings.extend(protocol::analyze(&self.recs, &info));
        findings.extend(lint::analyze(&self.recs, &info));
        // Report in event order; ties keep detector order (stable sort).
        findings.sort_by_key(|f| f.t);
        Report {
            findings,
            truncated: self.lost > 0,
            lost: self.lost,
            events: self.recs.len(),
            cores: info.ncores,
        }
    }
}

/// Run the checker online over the per-core rings of a finished run.
pub fn check_rings<'a>(per_core: impl IntoIterator<Item = (CoreId, &'a TraceRing)>) -> Report {
    let mut checker = Checker::new();
    scc_hw::replay(per_core, &mut checker);
    checker.finish()
}
