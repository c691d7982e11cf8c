//! Structured protocol-event tracing — the instrumentation half of the
//! unified instrumentation layer (the other half is [`crate::metrics`]).
//!
//! Every layer of the stack (hardware model, kernel, mailbox, SVM) emits
//! **typed events** through [`CoreCtx::trace`](crate::CoreCtx::trace):
//! the five steps of the ownership-migration protocol, mailbox traffic,
//! IPIs, lazy-release flush/invalidate actions, TLB activity and page
//! placement decisions. Each event is stamped with the emitting core's
//! simulated clock and recorded into a **per-core ring buffer** — each
//! simulated core only ever writes its own ring from its own thread, so
//! recording needs no synchronisation at all.
//!
//! ## Zero cost when disabled
//!
//! Recording is compiled in only under the `trace` cargo feature. Without
//! it, [`TraceRing`] is a zero-sized struct and
//! [`TraceRing::record`] is an empty `#[inline(always)]` function, so every
//! emission site in the stack folds away to nothing — the default build is
//! bit-for-bit the untraced simulator. With the feature on, tracing still
//! never touches a core's virtual clock: simulated time is identical with
//! recording on, masked off, or compiled out (the shadow tests assert
//! this).
//!
//! ## Consumers
//!
//! This module only records. The `scc_checker` crate merges the rings
//! into one time-ordered stream and owns both export formats — the
//! Chrome `trace_event` JSON and the plain-text protocol log — each
//! writer beside its parser; svm-fuzz's coverage map walks the rings
//! directly.

use serde::{Deserialize, Serialize};

/// Declares the event taxonomy from one table: each row is a variant's
/// doc comment, its ordinal, its name, its category and its three payload
/// arg names, and every per-kind lookup is generated from that row.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $ord:literal => $name:literal, $cat:literal, [$a:literal, $b:literal, $c:literal];
    )+) => {
        /// The event taxonomy. Discriminants are stable bit positions in
        /// [`TraceConfig::mask`] and must stay below 64.
        #[repr(u8)]
        #[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $( $(#[$doc])* $kind = $ord, )+
        }

        /// All kinds, in discriminant order.
        pub const ALL_KINDS: [EventKind; [$($ord),+].len()] = [$(EventKind::$kind),+];

        impl EventKind {
            /// Event name as it appears in the Chrome trace and the protocol log.
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $name,)+
                }
            }

            /// Subsystem category (the Chrome trace `cat` field).
            pub fn category(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $cat,)+
                }
            }

            /// Names of the three payload arguments; `""` marks an unused slot.
            pub fn arg_names(self) -> (&'static str, &'static str, &'static str) {
                match self {
                    $(EventKind::$kind => ($a, $b, $c),)+
                }
            }

            /// Inverse of [`EventKind::name`] — used by the offline trace parsers.
            pub fn from_name(name: &str) -> Option<EventKind> {
                match name {
                    $($name => Some(EventKind::$kind),)+
                    _ => None,
                }
            }
        }
    };
}

event_kinds! {
    /// A page fault entered the kernel (`a` = faulting VA, `b` = 1 for
    /// write access).
    PageFault = 0 => "page_fault", "paging", ["va", "write", ""];
    /// Strong/WI model, step 2: requester sends an ownership request
    /// (`a` = page, `b` = believed owner).
    OwnRequest = 1 => "own_request", "svm", ["page", "owner", ""];
    /// Owner side: request arrived for a page we no longer own; forwarded
    /// (`a` = page, `b` = current owner).
    OwnForward = 2 => "own_forward", "svm", ["page", "owner", "requester"];
    /// Owner side, steps 3–4: flushed, withdrew access, recorded the new
    /// owner (`a` = page, `b` = new owner).
    OwnGrant = 3 => "own_grant", "svm", ["page", "to", ""];
    /// Requester side, step 5: the acknowledgement mail arrived
    /// (`a` = page).
    OwnAck = 4 => "own_ack", "svm", ["page", "granter", ""];
    /// Requester side: ownership migration complete, page mapped
    /// (`a` = page, `b` = frame).
    OwnAcquired = 5 => "own_acquired", "svm", ["page", "frame", ""];
    /// First-touch frame allocation (`a` = page, `b` = frame).
    FirstTouch = 6 => "first_touch", "placement", ["page", "frame", ""];
    /// Affinity-on-next-touch migration (`a` = page, `b` = new frame).
    Migrate = 7 => "migrate", "placement", ["page", "frame", ""];
    /// Write-invalidate model: read replica granted and mapped
    /// (`a` = page, `b` = version).
    ReadReplica = 8 => "read_replica", "wi", ["page", "version", ""];
    /// Write-invalidate: invalidations sent to the copyset
    /// (`a` = page, `b` = number of replica holders).
    WiInvSend = 9 => "wi_inv_send", "wi", ["page", "replicas", ""];
    /// Write-invalidate: replica dropped on an invalidation mail
    /// (`a` = page).
    WiInvRecv = 10 => "wi_inv_recv", "wi", ["page", "", ""];
    /// Write-invalidate: grant mail arrived (`a` = page, `b` = 1 for a
    /// write grant).
    WiGrant = 11 => "wi_grant", "wi", ["page", "write", ""];
    /// Mailbox send (`a` = destination core, `b` = mail kind).
    MailSend = 12 => "mail_send", "mailbox", ["dst", "kind", "stamp"];
    /// Mailbox receive (`a` = source core, `b` = mail kind).
    MailRecv = 13 => "mail_recv", "mailbox", ["src", "kind", "stamp"];
    /// GIC doorbell raised (`a` = destination core).
    IpiSend = 14 => "ipi_send", "gic", ["dst", "", ""];
    /// GIC doorbell claimed (`a` = source core).
    IpiRecv = 15 => "ipi_recv", "gic", ["src", "", ""];
    /// Write-combine buffer line left the buffer (`a` = line address /
    /// 32).
    WcbFlush = 16 => "wcb_flush", "cache", ["line", "", ""];
    /// `CL1INVMB` executed: all MPBT-tagged L1 lines invalidated.
    Cl1Invmb = 17 => "cl1invmb", "cache", ["", "", ""];
    /// Lazy-release acquire action: lock taken, tagged lines invalidated
    /// (`a` = test-and-set register).
    AcquireInv = 18 => "acquire_inv", "sync", ["reg", "", ""];
    /// Lazy-release release action: WCB flushed, lock dropped
    /// (`a` = test-and-set register).
    ReleaseFlush = 19 => "release_flush", "sync", ["reg", "", ""];
    /// SVM barrier entered (release + acquire actions around it).
    Barrier = 20 => "barrier", "sync", ["", "", ""];
    /// Software-TLB translation hit (`a` = virtual page number).
    /// Off in the default mask — it fires on nearly every access.
    TlbHit = 21 => "tlb_hit", "tlb", ["vpn", "", ""];
    /// Software-TLB miss: page-table walk taken (`a` = virtual page
    /// number).
    TlbMiss = 22 => "tlb_miss", "tlb", ["vpn", "", ""];
    /// TLB entry dropped by a PTE-mutation shootdown (`a` = virtual page
    /// number).
    TlbShootdown = 23 => "tlb_shootdown", "tlb", ["vpn", "", ""];
    /// PTE installed (`a` = VA, `b` = frame).
    PageMap = 24 => "page_map", "paging", ["va", "frame", ""];
    /// PTE permissions changed (`a` = VA, `b` = new flag bits).
    PageProtect = 25 => "page_protect", "paging", ["va", "flags", ""];
    /// PTE dropped (`a` = VA).
    PageUnmap = 26 => "page_unmap", "paging", ["va", "", ""];
    /// Core entered a blocking wait in the executor.
    BlockEnter = 27 => "block", "exec", ["", "", ""];
    /// Core left a blocking wait (the exporter pairs Enter/Exit into
    /// duration slices).
    BlockExit = 28 => "unblock", "exec", ["", "", ""];
    /// SVM page read through an `SvmArray` accessor, deduplicated per
    /// synchronisation segment (`a` = page).
    SvmRead = 29 => "svm_read", "svm", ["page", "", ""];
    /// SVM page write through an `SvmArray` accessor, deduplicated per
    /// synchronisation segment (`a` = page).
    SvmWrite = 30 => "svm_write", "svm", ["page", "", ""];
    /// `SvmLock::acquire` entered: the test-and-set register was taken
    /// (`a` = register). The matching [`EventKind::AcquireInv`] records
    /// the invalidate half of the acquire action.
    LockAcquire = 31 => "lock_acquire", "sync", ["reg", "", ""];
    /// `SvmLock::release` completed: the test-and-set register was
    /// dropped (`a` = register). The matching
    /// [`EventKind::ReleaseFlush`] records the flush half.
    LockRelease = 32 => "lock_release", "sync", ["reg", "", ""];
    /// A typed synchronisation-misuse error was detected and reported
    /// (`a` = register, `b` = error code: 1 = acquire re-entry,
    /// 2 = release of a lock not held).
    SyncErr = 33 => "sync_err", "sync", ["reg", "code", ""];
    /// SVM region allocated (`a` = first page, `b` = page count,
    /// `c` = consistency model: 0 strong, 1 lazy release,
    /// 2 write-invalidate).
    RegionAlloc = 34 => "region_alloc", "svm", ["page", "pages", "model"];
    /// `FrameOwners` advisory registry update (`a` = frame,
    /// `b` = new owner core, or `u32::MAX` on release).
    FrameOwner = 35 => "frame_owner", "placement", ["frame", "owner", ""];
    /// MPB-tree collective: a child's arrival flag was observed by its
    /// parent (`a` = child core, `b` = barrier epoch, `c` = tree level:
    /// 0 tile, 1 quad, 2 root).
    CollArrive = 36 => "coll_arrive", "sync", ["child", "epoch", "level"];
    /// MPB-tree collective: a parent released a child (`a` = child core,
    /// `b` = barrier epoch, `c` = tree level as in `CollArrive`).
    CollRelease = 37 => "coll_release", "sync", ["child", "epoch", "level"];
    /// svm-kv: a client issued a request (`a` = op: 0 GET / 1 PUT /
    /// 2 SCAN, `b` = key, `c` = correlation id).
    KvReq = 38 => "kv_req", "kv", ["op", "key", "corr"];
    /// svm-kv: the matching reply completed at the client
    /// (`a` = op, `b` = virtual-time latency in cycles, saturated at
    /// `u32::MAX`, `c` = correlation id).
    KvResp = 39 => "kv_resp", "kv", ["op", "latency", "corr"];
}

impl EventKind {
    /// Number of event kinds in the taxonomy (the coverage accumulators
    /// size their transition tables from this).
    pub const COUNT: usize = ALL_KINDS.len();

    /// Stable ordinal of this kind: its discriminant, an index into
    /// [`ALL_KINDS`]. Transition-coverage signals (svm-fuzz) encode pairs
    /// of ordinals, so these must never be renumbered — append new kinds
    /// at the end of the enum only.
    #[inline]
    pub const fn ordinal(self) -> u8 {
        self as u8
    }

    /// Inverse of [`EventKind::ordinal`].
    #[inline]
    pub fn from_ordinal(o: u8) -> Option<EventKind> {
        ALL_KINDS.get(o as usize).copied()
    }

    /// The SVM page (or frame, for [`EventKind::FrameOwner`]) an event is
    /// about, when its payload names one — the per-page key of the
    /// transition-coverage signal: slot `a`, for exactly the kinds whose
    /// first arg is named `page` or `frame`. `None` for kinds whose
    /// payload is not page-shaped (mail traffic, cache maintenance, kv
    /// ops...).
    #[inline]
    pub fn page_key(self, e: &TraceEvent) -> Option<u32> {
        matches!(self.arg_names().0, "page" | "frame").then_some(e.a)
    }

    /// The *other* core an event names, when its payload carries one —
    /// the core-pair key of the transition-coverage signal. The emitting
    /// core is implicit (rings are per-core), so `(emitter, peer, kind)`
    /// identifies one directed protocol edge.
    #[inline]
    pub fn peer_core(self, e: &TraceEvent) -> Option<u32> {
        match self {
            // Mail and doorbell traffic: `a` is the other endpoint.
            EventKind::MailSend
            | EventKind::MailRecv
            | EventKind::IpiSend
            | EventKind::IpiRecv => Some(e.a),
            // Ownership migration: `b` names the believed owner / new
            // owner / granter.
            EventKind::OwnRequest | EventKind::OwnGrant | EventKind::OwnAck => Some(e.b),
            // Collective tree edges: `a` is the child core.
            EventKind::CollArrive | EventKind::CollRelease => Some(e.a),
            _ => None,
        }
    }

    /// This kind's bit in [`TraceConfig::mask`].
    #[inline]
    pub fn bit(self) -> u64 {
        1 << (self as u8)
    }

    /// Mask with every kind enabled.
    pub fn all_mask() -> u64 {
        (1u64 << ALL_KINDS.len()) - 1
    }

    /// The default mask: everything except [`EventKind::TlbHit`], which
    /// fires on nearly every memory access and would instantly wrap any
    /// ring.
    pub fn default_mask() -> u64 {
        Self::all_mask() & !EventKind::TlbHit.bit()
    }
}

/// One recorded event. The core id is implicit — rings are per-core.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time (core cycles) at emission.
    pub t: u64,
    pub kind: EventKind,
    pub a: u32,
    pub b: u32,
    /// Third payload slot — correlation ids and model tags; `0` for kinds
    /// whose third [`EventKind::arg_names`] slot is unused.
    pub c: u32,
}

/// Runtime trace configuration (part of [`crate::SccConfig`]). Inert
/// unless the crate is built with the `trace` feature.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Ring capacity per core, in events. `0` disables recording even when
    /// the `trace` feature is compiled in.
    pub per_core_capacity: usize,
    /// Bitmask of enabled [`EventKind`]s (bit index = discriminant).
    pub mask: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            per_core_capacity: 1 << 14,
            mask: EventKind::default_mask(),
        }
    }
}

impl TraceConfig {
    /// Recording off at runtime (the shadow-test baseline).
    pub fn disabled() -> Self {
        TraceConfig {
            per_core_capacity: 0,
            mask: 0,
        }
    }

    /// Every kind enabled with the given ring capacity.
    pub fn full(per_core_capacity: usize) -> Self {
        TraceConfig {
            per_core_capacity,
            mask: EventKind::all_mask(),
        }
    }
}

/// A per-core event ring. Without the `trace` feature this is a zero-sized
/// type and every method is a no-op.
#[derive(Debug, Default)]
pub struct TraceRing {
    #[cfg(feature = "trace")]
    buf: Vec<TraceEvent>,
    #[cfg(feature = "trace")]
    head: usize,
    #[cfg(feature = "trace")]
    cap: usize,
    #[cfg(feature = "trace")]
    mask: u64,
    #[cfg(feature = "trace")]
    overwritten: u64,
}

impl TraceRing {
    /// Whether event recording is compiled into this build.
    pub const fn compiled_in() -> bool {
        cfg!(feature = "trace")
    }

    #[allow(unused_variables)]
    pub fn new(cfg: &TraceConfig) -> TraceRing {
        #[cfg(feature = "trace")]
        {
            TraceRing {
                buf: Vec::with_capacity(cfg.per_core_capacity.min(1 << 20)),
                head: 0,
                cap: cfg.per_core_capacity.min(1 << 20),
                mask: cfg.mask,
                overwritten: 0,
            }
        }
        #[cfg(not(feature = "trace"))]
        TraceRing::default()
    }

    /// Record one event (two payload slots). The hot-path funnel: compiles
    /// to nothing without the `trace` feature, and to a mask test plus a
    /// ring store with it.
    #[inline(always)]
    pub fn record(&mut self, t: u64, kind: EventKind, a: u32, b: u32) {
        self.record3(t, kind, a, b, 0);
    }

    /// Record one event with all three payload slots.
    #[inline(always)]
    #[allow(unused_variables)]
    pub fn record3(&mut self, t: u64, kind: EventKind, a: u32, b: u32, c: u32) {
        #[cfg(feature = "trace")]
        {
            if self.cap == 0 || self.mask & kind.bit() == 0 {
                return;
            }
            let e = TraceEvent { t, kind, a, b, c };
            if self.buf.len() < self.cap {
                self.buf.push(e);
            } else {
                self.buf[self.head] = e;
                self.head = (self.head + 1) % self.cap;
                self.overwritten += 1;
            }
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        #[cfg(feature = "trace")]
        {
            self.buf.len()
        }
        #[cfg(not(feature = "trace"))]
        0
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten after the ring wrapped (oldest-first eviction).
    pub fn overwritten(&self) -> u64 {
        #[cfg(feature = "trace")]
        {
            self.overwritten
        }
        #[cfg(not(feature = "trace"))]
        0
    }

    /// The held events in chronological order.
    pub fn events(&self) -> Vec<TraceEvent> {
        #[cfg(feature = "trace")]
        {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
        #[cfg(not(feature = "trace"))]
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_match_all_kinds_table() {
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*k as u8 as usize, i, "{k:?} out of order in ALL_KINDS");
            assert!(!k.name().is_empty());
            assert!(!k.category().is_empty());
            assert_eq!(EventKind::from_name(k.name()), Some(*k));
        }
        assert!(ALL_KINDS.len() <= 64, "mask bits must fit a u64");
        assert_eq!(EventKind::from_name("no_such_event"), None);
    }

    #[test]
    fn ordinals_round_trip_and_stay_dense() {
        assert_eq!(EventKind::COUNT, ALL_KINDS.len());
        for k in ALL_KINDS {
            assert_eq!(EventKind::from_ordinal(k.ordinal()), Some(k));
            assert!((k.ordinal() as usize) < EventKind::COUNT);
        }
        assert_eq!(EventKind::from_ordinal(EventKind::COUNT as u8), None);
    }

    #[test]
    fn payload_keys_follow_arg_names() {
        // Every kind claiming a page key must name its first payload slot
        // "page" (or "frame" for the advisory registry); every peer kind
        // must name a core-shaped slot. Guards the classification against
        // taxonomy growth: a new kind with a `page` arg that forgets to
        // extend `page_key` fails here.
        for k in ALL_KINDS {
            let e = TraceEvent { t: 0, kind: k, a: 7, b: 9, c: 0 };
            let (an, bn, _) = k.arg_names();
            if let Some(p) = k.page_key(&e) {
                assert_eq!(p, 7, "{k:?}: page key must come from slot a");
                assert!(
                    an == "page" || an == "frame",
                    "{k:?}: page-keyed but slot a is {an:?}"
                );
            } else {
                assert_ne!(an, "page", "{k:?}: has a page arg but no page key");
            }
            if let Some(peer) = k.peer_core(&e) {
                assert!(
                    (peer == 7 && matches!(an, "dst" | "src" | "child"))
                        || (peer == 9 && matches!(bn, "owner" | "to" | "granter")),
                    "{k:?}: peer key does not match its arg names"
                );
            }
        }
    }

    #[test]
    fn default_mask_excludes_tlb_hits_only() {
        let m = EventKind::default_mask();
        assert_eq!(m & EventKind::TlbHit.bit(), 0);
        for k in ALL_KINDS {
            if k != EventKind::TlbHit {
                assert_ne!(m & k.bit(), 0, "{k:?} must be on by default");
            }
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_records_and_masks() {
        let mut r = TraceRing::new(&TraceConfig::full(8));
        r.record(1, EventKind::Barrier, 0, 0);
        r.record(2, EventKind::MailSend, 3, 1);
        assert_eq!(r.len(), 2);
        let ev = r.events();
        assert_eq!(ev[0].kind, EventKind::Barrier);
        assert_eq!(ev[1].a, 3);

        let mut masked = TraceRing::new(&TraceConfig {
            per_core_capacity: 8,
            mask: EventKind::Barrier.bit(),
        });
        masked.record(1, EventKind::MailSend, 0, 0);
        masked.record(2, EventKind::Barrier, 0, 0);
        assert_eq!(masked.len(), 1, "masked kinds must not record");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_wraps_oldest_first() {
        let mut r = TraceRing::new(&TraceConfig::full(4));
        for t in 0..10u64 {
            r.record(t, EventKind::Barrier, t as u32, 0);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 6);
        let ts: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "chronological after wrap");
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn without_feature_ring_is_inert() {
        let mut r = TraceRing::new(&TraceConfig::full(1024));
        r.record(1, EventKind::Barrier, 0, 0);
        assert!(r.is_empty());
        assert!(!TraceRing::compiled_in());
        assert_eq!(std::mem::size_of::<TraceRing>(), 0, "zero-sized when disabled");
    }
}
