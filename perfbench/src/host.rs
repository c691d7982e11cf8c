//! Host process accounting and provenance: CPU time, context switches and
//! peak memory of this process, the host's shape, and which source tree
//! the numbers belong to.

use std::path::{Path, PathBuf};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process accounting (getrusage, /proc/self/status)");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Process-wide resource usage at one instant: every thread, live or
/// exited, is included.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` for 64-bit
        // Linux (layout above), and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
        );
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Usage accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn add(&mut self, other: &Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.ctx_switches += other.ctx_switches;
    }
}

/// Steal time of all CPUs since boot, in seconds: time the hypervisor
/// ran other guests while this machine's CPUs wanted to run (0 where the
/// kernel does not report it). `/proc/stat` counts in USER_HZ, 100 on
/// Linux.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark package's directory (`perfbench/`).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where results, spans and the determinism ledger go: next to the build
/// output, inside the checkout.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| package_dir().join("target"));
    target.join("perfbench")
}

/// Git revision of the checkout, read from `.git` without running git;
/// `None` outside a git work tree.
pub fn git_rev() -> Option<String> {
    let git = package_dir().parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => {
            if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|rev| rev.trim().to_string()))
        }
    }
}

/// FNV-1a over every source and manifest file of the repository's crates
/// and of this package, in path order: names the program the simulated
/// numbers came from, also in checkouts that are not git repositories.
pub fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let root = package_dir()
        .parent()
        .expect("the package sits inside the repository");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&package_dir().join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(package_dir().join("Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
