//! Shared helpers: statistics, process accounting, digests, seeding and
//! the benchmark's scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker count the benchmark pins for every sweep, search and fleet
/// run, independent of the host's core count.
pub const WORKERS: usize = 2;

/// The seed whose inputs are the paper's corpus and whose outputs are
/// compared against the recorded digests under `perfbench/expected`.
pub const DEFAULT_SEED: u64 = 1;

/// splitmix64: a well-mixed 64-bit value from a seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic generator for schedules and request parameters.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0x5EED)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a stream of `u64`s (little-endian bytes).
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn hex(self) -> String {
        format!("{:#018x}", self.0)
    }
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sample, `q` in `(0, 1]`. With fewer
/// than `1 / (1 - q)` samples this is the maximum.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(q, value)`; `None` with ten samples or fewer.
pub fn supported_tail(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() <= 10 {
        return None;
    }
    let q = 1.0 - 10.0 / v.len() as f64;
    Some((q, percentile(v, q)))
}

/// Process user + system CPU seconds (all threads), from
/// `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / clock_ticks_per_second()
}

/// The kernel's `USER_HZ`; 100 on every Linux ABI the workspace targets.
fn clock_ticks_per_second() -> f64 {
    100.0
}

/// Process resident-memory high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Wall and CPU seconds of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c0 = cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - c0)
}

/// Whether another timed operation fits in `budget_s`: one more runs
/// while it would end no more than half an operation past the budget.
pub fn another_fits(elapsed_s: f64, last_op_s: f64, budget_s: f64) -> bool {
    elapsed_s + last_op_s / 2.0 < budget_s
}

/// The benchmark's scratch directory at the root of the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Removes and recreates `dir`, leaving it empty.
pub fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir.to_path_buf()
}
