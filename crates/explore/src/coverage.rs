//! Protocol-event-transition coverage: the feedback signal of `svm-fuzz`.
//!
//! A schedule-sensitive bug is a *path* through the protocol state
//! machines, not a state — so the signal that tells two interleavings
//! apart is which **transitions** between the typed `scc_hw::instr`
//! events each one exercised. Four families of transitions are folded
//! into one compact bitmap (an AFL-style coverage map, 64 Kbit):
//!
//! 1. **Per-core pairs** — consecutive `(prev, next)` event kinds in one
//!    core's ring. `EventKind::COUNT²` pairs get *direct* (collision-free)
//!    bit indices at the bottom of the map.
//! 2. **Per-core sliding windows** — the last three kinds, hashed. Pairs
//!    see `own_request → own_acquired`; windows see whether a `mail_recv`
//!    intervened.
//! 3. **Per-page pairs** — consecutive kinds *on the same page* (the
//!    page-keyed payloads via [`EventKind::page_key`]), hashed with the
//!    page number. A 5-step migration interleaved on page 7 and a clean
//!    one on page 9 are different signal.
//! 4. **Core-pair edges** — `(emitter, peer, kind)` for events naming
//!    another core ([`EventKind::peer_core`]), hashed. Which *directed
//!    protocol edges* of the mesh a schedule lights up.
//!
//! All hashing is SplitMix64-based and allocation order independent —
//! the map is a pure function of the event streams, so identical runs
//! produce identical maps in any process (the determinism suite holds
//! two `svmfuzz` processes to that).
//!
//! Without the `trace` cargo feature the rings are empty, every map is
//! all-zero, and the fuzzer degrades to blind exploration at zero cost —
//! the signal rides entirely on instrumentation that already exists.

use scc_checker::fnv::Fnv1a;
use scc_hw::instr::TraceEvent;
use scc_hw::{CoreId, EventKind, TraceRing};
use std::collections::HashMap;

/// log2 of the coverage map size in bits.
pub const MAP_BITS_LOG2: u32 = 16;
/// Coverage map size in bits (8 KiB of map).
pub const MAP_BITS: usize = 1 << MAP_BITS_LOG2;
/// Coverage map size in u64 words.
pub const MAP_WORDS: usize = MAP_BITS / 64;

/// Direct (un-hashed) region: per-core kind pairs occupy the first
/// `COUNT²` bits; hashed families map into the remainder.
const DIRECT_BITS: usize = EventKind::COUNT * EventKind::COUNT;

/// "No previous event" marker for transition tracking.
const NONE: u8 = u8::MAX;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hashed key into the hashed region of the bitmap (above the
/// direct pair bits).
fn hashed_bit(domain: u64, key: u64) -> usize {
    let h = splitmix64(domain.wrapping_mul(0x9E37_79B9) ^ key) as usize;
    DIRECT_BITS + h % (MAP_BITS - DIRECT_BITS)
}

/// One run's coverage bitmap, accumulated from the per-core event rings
/// by [`Coverage::walk_rings`].
#[derive(Clone)]
pub struct Coverage {
    map: Box<[u64]>,
    bits: u32,
    /// Per-core transition state, reset at the start of each ring.
    last: u8,
    window: u32,
    core: u32,
    /// Last kind seen per page key (never iterated — lookup only, so the
    /// std hasher's per-process seed cannot leak into the map).
    page_last: HashMap<u32, u8>,
}

impl Default for Coverage {
    fn default() -> Self {
        Coverage::new()
    }
}

impl Coverage {
    pub fn new() -> Coverage {
        Coverage {
            map: vec![0u64; MAP_WORDS].into_boxed_slice(),
            bits: 0,
            last: NONE,
            window: 0,
            core: 0,
            page_last: HashMap::new(),
        }
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        let (w, b) = (idx / 64, idx % 64);
        let bit = 1u64 << b;
        if self.map[w] & bit == 0 {
            self.map[w] |= bit;
            self.bits += 1;
        }
    }

    /// Number of distinct coverage bits this run set.
    pub fn bits_set(&self) -> u32 {
        self.bits
    }

    /// The raw map words (for merging into a [`GlobalCoverage`]).
    pub fn words(&self) -> &[u64] {
        &self.map
    }

    /// Deterministic fingerprint of the whole map — FNV-1a over the
    /// words. Equal across processes for identical runs.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.map)
    }

    /// Iterate the indices of set bits, ascending.
    pub fn iter_bits(&self) -> impl Iterator<Item = usize> + '_ {
        self.map.iter().enumerate().flat_map(|(wi, w)| {
            let w = *w;
            (0..64).filter(move |b| w & (1 << b) != 0).map(move |b| wi * 64 + b)
        })
    }

    /// Fold per-core rings into the map: core by core in iteration order,
    /// each core's events in ring (record) order. A transition signal is
    /// defined over each core's own event sequence (plus the per-page and
    /// core-pair keys its payloads carry), so no global time merge is
    /// needed. Without the `trace` feature every ring is empty and this
    /// costs nothing.
    pub fn walk_rings<'a>(&mut self, per_core: impl IntoIterator<Item = (CoreId, &'a TraceRing)>) {
        for (core, ring) in per_core {
            self.last = NONE;
            self.window = 0;
            self.core = core.idx() as u32;
            // Page transition chains deliberately span cores: the page is
            // the protocol object, and an interleaving shows up exactly as
            // an unexpected cross-core ordering of events on it. Cores are
            // walked in a fixed order, so the chains stay deterministic.
            for e in ring.events() {
                self.event(&e);
            }
        }
    }

    fn event(&mut self, e: &TraceEvent) {
        let k = e.kind.ordinal();
        // 1. Per-core pair: direct index.
        if self.last != NONE {
            self.set(self.last as usize * EventKind::COUNT + k as usize);
        }
        // 2. Per-core 3-window: packed ordinals, hashed.
        self.window = (self.window << 8 | u32::from(k)) & 0x00FF_FFFF;
        if self.window > 0xFFFF {
            // Window holds three events once bits 16.. are occupied.
            self.set(hashed_bit(1, u64::from(self.window)));
        }
        // 3. Per-page pair.
        if let Some(page) = e.kind.page_key(e) {
            let prev = self.page_last.insert(page, k);
            if let Some(p) = prev {
                self.set(hashed_bit(
                    2,
                    u64::from(page) << 16 | u64::from(p) << 8 | u64::from(k),
                ));
            }
        }
        // 4. Core-pair edge.
        if let Some(peer) = e.kind.peer_core(e) {
            self.set(hashed_bit(
                3,
                u64::from(self.core) << 40 | u64::from(peer) << 8 | u64::from(k),
            ));
        }
        self.last = k;
    }
}

/// The fuzzer's accumulated view across all executions of one app: the
/// union map plus per-bit hit counts, which is what makes a transition
/// "rare" for the energy model.
pub struct GlobalCoverage {
    map: Box<[u64]>,
    /// Saturating per-bit hit counters (how many *executions* set the
    /// bit, not how many times within one execution).
    hits: Box<[u16]>,
    bits: u32,
}

impl Default for GlobalCoverage {
    fn default() -> Self {
        GlobalCoverage::new()
    }
}

/// A bit is "rare" while at most this many executions have set it.
pub const RARE_HITS: u16 = 2;

impl GlobalCoverage {
    pub fn new() -> GlobalCoverage {
        GlobalCoverage {
            map: vec![0u64; MAP_WORDS].into_boxed_slice(),
            hits: vec![0u16; MAP_BITS].into_boxed_slice(),
            bits: 0,
        }
    }

    /// Merge one run's coverage: returns `(novel, rare)` — the number of
    /// map bits this run set for the first time ever, and the number of
    /// its bits still rare (seen by at most [`RARE_HITS`] executions,
    /// this one included). `novel > 0` is the corpus admission signal;
    /// `rare` feeds the entry's energy.
    pub fn absorb(&mut self, run: &Coverage) -> (u32, u32) {
        let mut novel = 0u32;
        let mut rare = 0u32;
        for idx in run.iter_bits() {
            let (w, b) = (idx / 64, idx % 64);
            if self.map[w] & (1 << b) == 0 {
                self.map[w] |= 1 << b;
                self.bits += 1;
                novel += 1;
            }
            let h = &mut self.hits[idx];
            *h = h.saturating_add(1);
            if *h <= RARE_HITS {
                rare += 1;
            }
        }
        (novel, rare)
    }

    /// Total distinct bits ever covered.
    pub fn bits_set(&self) -> u32 {
        self.bits
    }

    /// Deterministic fingerprint of the union map (FNV-1a, like
    /// [`Coverage::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.map)
    }
}

/// FNV-1a over a coverage map's words, little-endian.
fn fingerprint(words: &[u64]) -> u64 {
    let mut h = Fnv1a::default();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hw::instr::TraceConfig;

    #[cfg(feature = "trace")]
    fn ring_of(kinds: &[(EventKind, u32, u32)]) -> TraceRing {
        let mut r = TraceRing::new(&TraceConfig::full(256));
        for (i, (k, a, b)) in kinds.iter().enumerate() {
            r.record(i as u64, *k, *a, *b);
        }
        r
    }

    #[cfg(feature = "trace")]
    #[test]
    fn pair_bits_are_direct_and_deterministic() {
        let r = ring_of(&[
            (EventKind::PageFault, 5, 1),
            (EventKind::OwnRequest, 5, 1),
            (EventKind::OwnAcquired, 5, 9),
        ]);
        let mut cov = Coverage::new();
        cov.walk_rings([(CoreId::new(0), &r)]);
        let pf = EventKind::PageFault.ordinal() as usize;
        let oreq = EventKind::OwnRequest.ordinal() as usize;
        let oacq = EventKind::OwnAcquired.ordinal() as usize;
        let direct: Vec<usize> = cov.iter_bits().filter(|i| *i < DIRECT_BITS).collect();
        assert_eq!(
            direct,
            {
                let mut v = vec![
                    pf * EventKind::COUNT + oreq,
                    oreq * EventKind::COUNT + oacq,
                ];
                v.sort_unstable();
                v
            },
            "adjacent pairs get collision-free indices"
        );
        // Page-keyed transitions fired too (all three events are on page 5).
        assert!(cov.bits_set() > 2);

        // Identical input → identical map.
        let mut cov2 = Coverage::new();
        cov2.walk_rings([(CoreId::new(0), &r)]);
        assert_eq!(cov.fingerprint(), cov2.fingerprint());
        assert_eq!(cov.bits_set(), cov2.bits_set());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn transition_state_resets_between_cores() {
        let r0 = ring_of(&[(EventKind::Barrier, 0, 0)]);
        let r1 = ring_of(&[(EventKind::Cl1Invmb, 0, 0)]);
        let mut cov = Coverage::new();
        cov.walk_rings([(CoreId::new(0), &r0), (CoreId::new(1), &r1)]);
        // No cross-core pair barrier→cl1invmb: each ring starts fresh.
        let cross =
            EventKind::Barrier.ordinal() as usize * EventKind::COUNT
                + EventKind::Cl1Invmb.ordinal() as usize;
        assert!(!cov.iter_bits().any(|i| i == cross));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn rings_are_walked_in_record_order() {
        // Recorded out of time order: the pair follows the ring.
        let mut r = TraceRing::new(&TraceConfig::full(8));
        r.record(30, EventKind::Barrier, 0, 0);
        r.record(10, EventKind::Cl1Invmb, 0, 0);
        let mut cov = Coverage::new();
        cov.walk_rings([(CoreId::new(0), &r)]);
        let (bar, inv) = (
            EventKind::Barrier.ordinal() as usize,
            EventKind::Cl1Invmb.ordinal() as usize,
        );
        let direct: Vec<usize> = cov.iter_bits().filter(|i| *i < DIRECT_BITS).collect();
        assert_eq!(direct, vec![bar * EventKind::COUNT + inv]);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn page_chains_span_cores() {
        // Core 0 requests page 7, core 1 grants it: the page-keyed pair
        // (own_request → own_grant on page 7) must light up even though
        // the events sit in different rings.
        let r0 = ring_of(&[(EventKind::OwnRequest, 7, 1)]);
        let r1 = ring_of(&[(EventKind::OwnGrant, 7, 0)]);
        let mut joint = Coverage::new();
        joint.walk_rings([(CoreId::new(0), &r0), (CoreId::new(1), &r1)]);
        let mut solo = Coverage::new();
        solo.walk_rings([(CoreId::new(0), &r0)]);
        let mut solo1 = Coverage::new();
        solo1.walk_rings([(CoreId::new(1), &r1)]);
        assert!(
            joint.bits_set() > solo.bits_set() + solo1.bits_set() - 1,
            "a joint walk must add a cross-core page transition \
             (joint {} vs solo {} + {})",
            joint.bits_set(),
            solo.bits_set(),
            solo1.bits_set()
        );
    }

    #[test]
    fn global_absorb_counts_novel_and_rare() {
        let mut run = Coverage::new();
        run.set(3);
        run.set(100);
        let mut g = GlobalCoverage::new();
        let (novel, rare) = g.absorb(&run);
        assert_eq!((novel, rare), (2, 2));
        // Second identical run: nothing novel, still rare (hits == 2).
        let (novel, rare) = g.absorb(&run);
        assert_eq!((novel, rare), (0, 2));
        // Third: beyond RARE_HITS.
        let (novel, rare) = g.absorb(&run);
        assert_eq!((novel, rare), (0, 0));
        assert_eq!(g.bits_set(), 2);

        let mut run2 = Coverage::new();
        run2.set(3);
        run2.set(500);
        let (novel, rare) = g.absorb(&run2);
        assert_eq!(novel, 1, "only bit 500 is new");
        assert_eq!(rare, 1, "bit 3 is past rare, bit 500 fresh");
    }

    #[test]
    fn empty_rings_yield_empty_maps() {
        let r = TraceRing::new(&TraceConfig::full(16));
        let mut cov = Coverage::new();
        cov.walk_rings([(CoreId::new(0), &r)]);
        #[cfg(not(feature = "trace"))]
        assert_eq!(cov.bits_set(), 0);
        #[cfg(feature = "trace")]
        assert_eq!(cov.bits_set(), 0, "nothing recorded yet");
        assert_eq!(cov.fingerprint(), Coverage::new().fingerprint());
    }
}
