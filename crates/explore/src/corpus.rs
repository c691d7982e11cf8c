//! The fuzzer's corpus: plans that earned coverage, with the energy that
//! decides how often each gets mutated.
//!
//! Entries are serialized in the **replay-file format** (with
//! `expect clean` — a corpus entry is an interesting *interleaving*, not
//! a bug) under content-hash filenames, so a corpus directory doubles as
//! a pile of `svmexplore --replay`-able files and two fuzzer processes
//! can share one directory without coordination: identical plans collide
//! onto the same filename, and differing plans never clobber each other.
//! A process reads the directory **once at startup** — seeding from a
//! previous campaign — and only appends afterwards, which keeps each
//! process's execution sequence a pure function of (seed dir, master
//! seed).

use crate::mutate::Rng;
use crate::registry::{AppSpec, Expected};
use crate::replay::{parse_replay_full, render_replay};
use crate::runner::Scenario;
use scc_checker::fnv::Fnv1a;
use scc_hw::{FaultPlan, SchedPolicy, Topology};
use std::path::{Path, PathBuf};

/// A schedule policy × fault plan pair: the fuzzer's genome. The app it
/// runs against is fixed per campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub policy: SchedPolicy,
    pub faults: FaultPlan,
}

impl Plan {
    /// The default schedule with no faults — every campaign's seed entry.
    pub fn baseline() -> Plan {
        Plan {
            policy: SchedPolicy::Baton,
            faults: FaultPlan::default(),
        }
    }

    /// Bind the plan to an app for execution.
    pub fn scenario(&self, app: &'static AppSpec) -> Scenario {
        Scenario {
            app,
            policy: self.policy.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Deterministic content hash (FNV-1a over the rendered replay body,
    /// app line excluded so the hash names the *plan*).
    fn content_hash(&self, app: &'static AppSpec) -> u64 {
        let text = render_replay(&self.scenario(app), &Expected::Clean);
        let mut h = Fnv1a::default();
        for line in text.lines() {
            if line.starts_with("app ") || line.starts_with('#') {
                continue;
            }
            h.write(line.as_bytes());
            h.write(&[0xff]);
        }
        h.finish()
    }
}

/// One corpus entry: a plan plus its selection energy.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    pub plan: Plan,
    /// Selection weight. Set at admission from the coverage it earned:
    /// `1 + 4·novel + rare`, so plans that lit up never-seen transitions
    /// — and especially still-rare ones — get mutated more often.
    pub energy: u64,
    /// Content hash (also the on-disk filename stem).
    pub id: u64,
}

/// The per-app corpus.
pub struct Corpus {
    app: &'static AppSpec,
    entries: Vec<CorpusEntry>,
    /// Shared on-disk directory; `None` keeps the corpus in memory.
    dir: Option<PathBuf>,
    /// Entries loaded from a previous campaign's directory at startup.
    pub seeded_from_disk: usize,
}

impl Corpus {
    /// An empty in-memory corpus.
    pub fn new(app: &'static AppSpec) -> Corpus {
        Corpus {
            app,
            entries: Vec::new(),
            dir: None,
            seeded_from_disk: 0,
        }
    }

    /// A corpus backed by `dir`: existing entries for this app are loaded
    /// (sorted by filename, so every process seeds identically from the
    /// same directory), new admissions are persisted. Entries recorded on
    /// a different topology are skipped — their core-targeted faults and
    /// band vectors would be meaningless on this mesh.
    pub fn open(app: &'static AppSpec, dir: &Path) -> std::io::Result<Corpus> {
        std::fs::create_dir_all(dir)?;
        let mut c = Corpus::new(app);
        c.dir = Some(dir.to_path_buf());
        let active = Topology::from_env_or_scc48();
        let prefix = format!("{}_", app.name);
        let mut names: Vec<String> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(&prefix) && n.ends_with(".corpus"))
            .collect();
        names.sort();
        for n in names {
            let text = match std::fs::read_to_string(dir.join(&n)) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let parsed = match parse_replay_full(&text) {
                Ok(p) => p,
                Err(_) => continue,
            };
            if parsed.scenario.app.name != app.name
                || parsed.verify_topology_against(active).is_err()
            {
                continue;
            }
            let plan = Plan {
                policy: parsed.scenario.policy,
                faults: parsed.scenario.faults,
            };
            let id = plan.content_hash(app);
            if c.entries.iter().any(|e| e.id == id) {
                continue;
            }
            // Disk entries earned coverage in a past campaign; re-admission
            // recomputes their energy against this campaign's map, so seed
            // them with the floor weight.
            c.entries.push(CorpusEntry { plan, energy: 1, id });
        }
        c.seeded_from_disk = c.entries.len();
        Ok(c)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Admit a plan that produced new coverage. `novel`/`rare` come from
    /// [`crate::coverage::GlobalCoverage::absorb`]. Returns false if the
    /// plan is already present (same content hash).
    pub fn admit(&mut self, plan: Plan, novel: u32, rare: u32) -> bool {
        let id = plan.content_hash(self.app);
        if self.entries.iter().any(|e| e.id == id) {
            return false;
        }
        let energy = 1 + 4 * u64::from(novel) + u64::from(rare);
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{}_{id:016x}.corpus", self.app.name));
            // Identical content collides onto the same name — overwriting
            // is idempotent, so concurrent admitters need no locking.
            let text = render_replay(&plan.scenario(self.app), &Expected::Clean);
            let _ = std::fs::write(path, text);
        }
        self.entries.push(CorpusEntry { plan, energy, id });
        true
    }

    /// Energy-weighted deterministic selection: entries with more energy
    /// are proportionally more likely to be chosen as the mutation base.
    pub fn select<'a>(&'a self, rng: &mut Rng) -> Option<&'a CorpusEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let total: u64 = self.entries.iter().map(|e| e.energy).sum();
        let mut r = rng.below(total.max(1));
        for e in &self.entries {
            if r < e.energy {
                return Some(e);
            }
            r -= e.energy;
        }
        self.entries.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::app;
    use scc_hw::Fault;

    fn spec() -> &'static AppSpec {
        app("dotprod").expect("registry app")
    }

    fn plan_with_drop(dst: usize) -> Plan {
        Plan {
            policy: SchedPolicy::SeededRandom { seed: 5 },
            faults: FaultPlan {
                faults: vec![Fault::DropIpi {
                    src: None,
                    dst: Some(dst),
                    nth: 0,
                    count: 1,
                }],
            },
        }
    }

    #[test]
    fn admit_dedups_by_content() {
        let mut c = Corpus::new(spec());
        assert!(c.admit(Plan::baseline(), 10, 3));
        assert!(!c.admit(Plan::baseline(), 99, 99), "same content → no dup");
        assert!(c.admit(plan_with_drop(1), 1, 0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.entries()[0].energy, 1 + 4 * 10 + 3);
    }

    #[test]
    fn selection_is_energy_weighted_and_deterministic() {
        let mut c = Corpus::new(spec());
        c.admit(Plan::baseline(), 0, 0); // energy 1
        c.admit(plan_with_drop(1), 20, 10); // energy 91
        let mut rng = Rng::new(9);
        let heavy = c.entries()[1].id;
        let hits = (0..100)
            .filter(|_| c.select(&mut rng).unwrap().id == heavy)
            .count();
        assert!(hits > 70, "heavy entry picked {hits}/100");
        // Same seed → same picks.
        let mut r1 = Rng::new(123);
        let mut r2 = Rng::new(123);
        for _ in 0..20 {
            assert_eq!(
                c.select(&mut r1).unwrap().id,
                c.select(&mut r2).unwrap().id
            );
        }
    }

    #[test]
    fn disk_round_trip_preserves_plans() {
        let dir = std::env::temp_dir().join(format!("svmfuzz_corpus_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = Corpus::open(spec(), &dir).expect("open");
            assert_eq!(c.seeded_from_disk, 0);
            c.admit(plan_with_drop(1), 5, 2);
            c.admit(plan_with_drop(2), 1, 1);
        }
        let c2 = Corpus::open(spec(), &dir).expect("reopen");
        assert_eq!(c2.seeded_from_disk, 2);
        let mut plans: Vec<&Plan> = c2.entries().iter().map(|e| &e.plan).collect();
        plans.sort_by_key(|p| format!("{:?}", p.faults));
        assert!(plans.iter().any(|p| p.faults.faults.len() == 1));
        // A different app's corpus in the same dir is invisible.
        let other = Corpus::open(app("histogram").expect("app"), &dir).expect("open");
        assert_eq!(other.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
