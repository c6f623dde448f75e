//! # cisa-bench: the experiment harness
//!
//! One binary per table and figure of the paper's evaluation section
//! (see DESIGN.md's experiment index), all sharing a cached
//! (phase x design-point) performance table so the expensive probing
//! pass runs once.
//!
//! Run any experiment with `cargo run --release -p cisa-bench --bin
//! <experiment>`; the first run builds `results/perf_table.bin`.
//!
//! The four gated bench binaries (`bench_probe`, `bench_table`,
//! `serve_bench`, `fleet_bench`) parse their flags, write their JSON
//! record and apply their gates only through [`record`].

use std::io::Read;
use std::path::PathBuf;

use cisa_explore::multicore::{Budget, Evaluator, SearchConfig};
use cisa_explore::{DesignSpace, PerfTable, SweepRunner};

/// Where cached sweep results and experiment outputs live.
pub fn results_dir() -> PathBuf {
    let mut p = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    // crates/bench -> workspace root
    p.pop();
    p.pop();
    p.join("results")
}

/// The experiment harness: design space + shared sweep runner + cached
/// performance table.
pub struct Harness {
    /// The 26 x 180 design space.
    pub space: DesignSpace,
    /// The evaluated table over all 49 phases.
    pub table: PerfTable,
    /// The shared sweep executor: `CISA_THREADS` workers and the
    /// cross-binary probe cache in `results/cache/`.
    pub runner: SweepRunner,
}

impl Harness {
    /// Loads the cached table or builds it (expensive on first run;
    /// parallel across `CISA_THREADS` workers, incremental through the
    /// probe cache in `results/cache/`).
    pub fn load() -> Self {
        let space = DesignSpace::new();
        let runner = SweepRunner::from_env(results_dir().join("cache"));
        let path = results_dir().join("perf_table.bin");
        let started = std::time::Instant::now();
        let existed = path.exists();
        let (table, report) = PerfTable::load_or_build_reported(&space, &path, &runner);
        if !existed {
            let (hits, misses, _) = runner.cache().map_or((0, 0, 0), |c| c.stats());
            eprintln!(
                "[harness] built perf table ({} phases x {} designs) in {:.1}s \
                 on {} threads ({} cached probes, {} fresh) -> {}",
                table.n_phases,
                space.len(),
                started.elapsed().as_secs_f64(),
                runner.threads(),
                hits,
                misses,
                path.display()
            );
        }
        if let Some(report) = report.filter(|r| !r.is_clean()) {
            eprintln!("[harness] table build faults: {}", report.summary());
            for e in &report.failed {
                eprintln!("[harness]   failed {e}");
            }
        }
        Harness {
            space,
            table,
            runner,
        }
    }

    /// An evaluator over the full workload-mix set.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(&self.space, &self.table, 24)
    }

    /// The standard search configuration used by every experiment.
    pub fn search_config(&self) -> SearchConfig {
        SearchConfig {
            restarts: 2,
            max_passes: 12,
            pool_cap: 120,
            identical: false,
        }
    }
}

/// The paper's peak-power budget axis (Figures 5-6), in watts.
pub const POWER_BUDGETS: [(&str, Budget); 4] = [
    ("20W", Budget::PeakPower(20.0)),
    ("40W", Budget::PeakPower(40.0)),
    ("60W", Budget::PeakPower(60.0)),
    ("Unlimited", Budget::Unlimited),
];

/// The paper's area budget axis (Figures 5-6, 8), in mm^2.
pub const AREA_BUDGETS: [(&str, Budget); 4] = [
    ("48mm2", Budget::Area(48.0)),
    ("64mm2", Budget::Area(64.0)),
    ("80mm2", Budget::Area(80.0)),
    ("Unlimited", Budget::Unlimited),
];

/// The single-thread peak-power axis (Figure 7): one core on at a time.
pub const SINGLE_THREAD_POWER_BUDGETS: [(&str, Budget); 4] = [
    ("5W", Budget::PeakPower(5.0)),
    ("10W", Budget::PeakPower(10.0)),
    ("15W", Budget::PeakPower(15.0)),
    ("Unlimited", Budget::Unlimited),
];

pub mod obs_report;
pub mod record;
pub mod timing;

/// Reads one `Content-Length`-framed HTTP response off a keep-alive
/// stream through `buf`, returning its status code.
///
/// # Panics
///
/// Panics if the stream fails or closes early, or the response head
/// is malformed.
pub fn read_response(stream: &mut impl Read, buf: &mut [u8]) -> u16 {
    let mut data = Vec::with_capacity(4096);
    let mut read = |data: &mut Vec<u8>| {
        let n = stream.read(buf).expect("read response");
        assert!(n > 0, "server closed mid-response");
        data.extend_from_slice(&buf[..n]);
    };
    let (head_end, status, content_length) = loop {
        read(&mut data);
        if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&data[..pos]).expect("UTF-8 head");
            let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
            let length: Option<usize> = head.lines().find_map(|l| {
                let l = l.to_ascii_lowercase();
                l.strip_prefix("content-length:")?.trim().parse().ok()
            });
            let status = status.expect("status line");
            break (pos + 4, status, length.expect("content-length"));
        }
    };
    while data.len() < head_end + content_length {
        read(&mut data);
    }
    status
}

/// Formats a ratio as a percentage delta.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", (x - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_workspace_relative() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn budget_axes_match_paper() {
        assert_eq!(POWER_BUDGETS.len(), 4);
        assert_eq!(AREA_BUDGETS.len(), 4);
        assert!(matches!(SINGLE_THREAD_POWER_BUDGETS[0].1, Budget::PeakPower(p) if p == 5.0));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.176), "+17.6%");
        assert_eq!(pct(0.9), "-10.0%");
    }
}
