//! The checker's typed findings model and report rendering.

use crate::fnv::Fnv1a;
use crate::json::{self, Json};

/// Which analysis produced a finding.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detector {
    /// Vector-clock happens-before race detector (lazy release pages).
    Race,
    /// Strong-model ownership-migration protocol monitor.
    Protocol,
    /// Synchronization linter.
    Lint,
}

impl Detector {
    pub fn name(self) -> &'static str {
        match self {
            Detector::Race => "race",
            Detector::Protocol => "protocol",
            Detector::Lint => "lint",
        }
    }
}

/// One confirmed finding. Equality is exact — the online-sink vs
/// offline-replay shadow test compares whole findings, excerpts included.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    pub detector: Detector,
    /// Stable machine-readable kind, e.g. `stale-read`,
    /// `grant-by-non-owner`, `unreleased-lock` (the `--expect` key).
    pub slug: &'static str,
    /// The SVM page involved, if the finding is about a page.
    pub page: Option<u32>,
    /// The cores involved, in role order (e.g. `[writer, reader]` for a
    /// stale read, `[owner, granter]` for a forged grant).
    pub cores: Vec<usize>,
    /// Simulated-cycle timestamp of the event that confirmed the finding.
    pub t: u64,
    pub message: String,
    /// Protocol-log–style lines of the events behind the finding.
    pub excerpt: Vec<String>,
}

/// The result of one checker run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// At least one per-core ring wrapped: the stream is incomplete, and
    /// absence-based checks (grant-without-request, recv-without-send)
    /// were skipped.
    pub truncated: bool,
    /// Events lost to ring wrap (0 when `!truncated`).
    pub lost: u64,
    /// Events analyzed.
    pub events: usize,
    /// Number of cores observed in the stream.
    pub cores: usize,
}

impl Finding {
    /// The finding's identity for deduplication on the fuzzing path:
    /// detector, slug, page and role-ordered cores — everything that
    /// distinguishes two *distinct* bugs, and nothing that merely varies
    /// between two reproductions of the same one (timestamps, excerpt
    /// text). Two schedules that trip the same protocol violation on the
    /// same page with the same cores count as one finding in a corpus.
    pub fn dedup_key(&self) -> (Detector, &'static str, Option<u32>, &[usize]) {
        (self.detector, self.slug, self.page, &self.cores)
    }
}

impl Report {
    /// Deterministic 64-bit fingerprint of the finding *set* (dedup keys,
    /// sorted): the oracle-side half of svm-fuzz's replayability story.
    /// Two runs — in the same process or across processes — report the
    /// same fingerprint iff they found the same set of distinct bugs.
    pub fn fingerprint(&self) -> u64 {
        let mut keys: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                let cores: Vec<String> = f.cores.iter().map(|c| c.to_string()).collect();
                format!(
                    "{}:{}:{}:{}",
                    f.detector.name(),
                    f.slug,
                    f.page.map_or(-1i64, i64::from),
                    cores.join(",")
                )
            })
            .collect();
        keys.sort();
        keys.dedup();
        // FNV-1a over the sorted keys: stable across platforms and
        // processes (no RandomState).
        let mut h = Fnv1a::default();
        for k in &keys {
            h.write(k.as_bytes());
            h.write(&[0xff]);
        }
        h.finish()
    }

    /// The distinct finding slugs, sorted — the coarse classification the
    /// fuzz loop logs per execution.
    pub fn slugs(&self) -> Vec<&'static str> {
        let mut s: Vec<&'static str> = self.findings.iter().map(|f| f.slug).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Render as JSON in the workspace layout ([`crate::json`]).
    pub fn to_json(&self) -> String {
        let findings = self
            .findings
            .iter()
            .map(|f| {
                vec![
                    ("detector", f.detector.name().into()),
                    ("kind", f.slug.into()),
                    ("page", f.page.into()),
                    ("cores", Json::List(f.cores.iter().map(|&c| c.into()).collect())),
                    ("t", f.t.into()),
                    ("message", f.message.as_str().into()),
                    ("excerpt", Json::List(f.excerpt.iter().map(|l| l.as_str().into()).collect())),
                ]
            })
            .collect();
        json::document(&[
            ("events", self.events.into()),
            ("cores", self.cores.into()),
            ("truncated", self.truncated.into()),
            ("lost", self.lost.into()),
            ("findings", Json::Rows(findings)),
        ])
    }

    /// Verdict for `svmcheck --expect SLUG`: the expected finding kind
    /// must be present, and *no other* kind may appear. Multiple
    /// instances of the expected kind pass (a planted bug may fire more
    /// than once on a long trace); any unexpected finding fails the run
    /// — an extra bug hiding behind an expected one must not go green.
    pub fn expect_ok(&self, slug: &str) -> bool {
        !self.findings.is_empty() && self.findings.iter().all(|f| f.slug == slug)
    }

    /// Render as a human-readable text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "svmcheck: {} event(s) over {} core(s)",
            self.events, self.cores
        ));
        if self.truncated {
            out.push_str(&format!(
                " — stream TRUNCATED ({} event(s) lost to ring wrap; absence-based checks skipped)",
                self.lost
            ));
        }
        out.push('\n');
        if self.findings.is_empty() {
            out.push_str("no findings\n");
            return out;
        }
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "\nfinding {}/{}: [{}] {}\n",
                i + 1,
                self.findings.len(),
                f.detector.name(),
                f.slug
            ));
            let cores: Vec<String> = f.cores.iter().map(|c| format!("{c:02}")).collect();
            out.push_str(&format!(
                "  at cycle {} — page {} — cores {}\n",
                f.t,
                f.page.map_or("-".to_string(), |p| p.to_string()),
                cores.join(", ")
            ));
            out.push_str(&format!("  {}\n", f.message));
            for l in &f.excerpt {
                out.push_str(&format!("    {l}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(slug: &'static str) -> Finding {
        Finding {
            detector: Detector::Protocol,
            slug,
            page: Some(3),
            cores: vec![0, 1],
            t: 42,
            message: "test".into(),
            excerpt: vec![],
        }
    }

    fn report(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            truncated: false,
            lost: 0,
            events: 10,
            cores: 2,
        }
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_dedups_reproductions() {
        let a = report(vec![finding("stale-read"), finding("unreleased-lock")]);
        let b = report(vec![finding("unreleased-lock"), finding("stale-read")]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "order must not matter");
        // The same bug firing twice is one distinct finding.
        let c = report(vec![finding("stale-read"), finding("stale-read")]);
        let d = report(vec![finding("stale-read")]);
        assert_eq!(c.fingerprint(), d.fingerprint());
        // Different sets fingerprint differently.
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_ne!(report(vec![]).fingerprint(), d.fingerprint());
        assert_eq!(a.slugs(), vec!["stale-read", "unreleased-lock"]);
    }

    #[test]
    fn expect_ok_requires_the_expected_kind_and_nothing_else() {
        // Exactly one expected finding: pass.
        assert!(report(vec![finding("stale-read")]).expect_ok("stale-read"));
        // Multiple instances of the expected kind: still a pass.
        assert!(report(vec![finding("stale-read"), finding("stale-read")])
            .expect_ok("stale-read"));
        // No findings at all: the planted bug was missed — fail.
        assert!(!report(vec![]).expect_ok("stale-read"));
        // Wrong kind: fail.
        assert!(!report(vec![finding("unreleased-lock")]).expect_ok("stale-read"));
        // Expected kind present but an *additional unexpected* finding
        // rides along: must fail (the historical bug this guards).
        assert!(!report(vec![finding("stale-read"), finding("unreleased-lock")])
            .expect_ok("stale-read"));
    }
}
