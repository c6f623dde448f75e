//! Pipeline benchmark for the composite-ISA workspace.
//!
//! One command runs a named workload, checks its outputs and prints
//! every metric by name with its unit; the last line of standard output
//! is the JSON result. `--trace 0` measures the end-to-end metrics with
//! no tracing; `--trace 1` is a separate run that times every layer
//! with spans recorded around the calls into it and prints the
//! per-layer metrics. See `perfbench/README.md`.
//!
//! Usage, from the root of the repository:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-build|fleet --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-build --seed 1 --seconds 1 --trace 0 --record
//! ```

mod checks;
mod cold;
mod fleet;
mod pipeline;
mod profile;
mod selftest;
mod serve;
mod trace;
mod util;

use std::fmt::Write as _;

use checks::Tally;
use trace::Recorder;
use util::{peak_rss_mb, WORKERS};

/// The workloads. The serve stage has no workload of its own: its
/// timings come from the traced run, which covers it on every workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdBuild,
    Fleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "cold-build" => Some(Workload::ColdBuild),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBuild => "cold-build",
            Workload::Fleet => "fleet",
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub record: bool,
    pub rec: Recorder,
}

/// What a run reports: the check tally, the metrics of its mode, and
/// the human-readable record lines printed before the result.
#[derive(Default)]
pub struct Out {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<(String, String)>,
}

impl Out {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload cold-build|fleet --seed N --seconds S --trace 0|1 [--record]\n       perfbench --self-test"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut record = false;
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                traced = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--record" => record = true,
            "--self-test" => self_test = true,
            "--prepare-table" => {
                pipeline::prepare_table(std::path::Path::new(&value()));
                return;
            }
            _ => usage(),
        }
    }
    // Every sweep, search and refinement pool in the program sizes
    // itself from `CISA_THREADS`; pin it so runs compare on one stated
    // worker count whatever the host's core count.
    std::env::set_var("CISA_THREADS", WORKERS.to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} workers={WORKERS} profile={} rustc=\"{}\"",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC")
    );
    if self_test {
        std::process::exit(selftest::run());
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };
    if seconds.is_nan() || seconds <= 0.0 || (record && seed != util::DEFAULT_SEED) {
        usage();
    }
    let run_id = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(traced));
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        record,
        rec: Recorder::new(traced, run_id.clone()),
    };
    let mut out = Out::default();
    if traced {
        profile::run(&ctx, &mut out);
        let path = util::work_dir()
            .join("trace")
            .join(format!("{run_id}.jsonl"));
        ctx.rec.write(&path).expect("write the span file");
        out.note("spans", format!("{} in {}", ctx.rec.len(), path.display()));
    } else {
        match workload {
            Workload::ColdBuild => cold::run(&ctx, &mut out),
            Workload::Fleet => fleet::run(&ctx, &mut out),
        }
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    finish(&out);
}

/// Prints the record lines and, last, the one-line JSON result.
fn finish(out: &Out) {
    let t = &out.tally;
    out_lines(out);
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.failed == 0,
        t.attempted.max(1),
        t.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn out_lines(out: &Out) {
    for (k, v) in &out.notes {
        println!("record: {k} = {v}");
    }
    for (name, value, unit) in &out.metrics {
        println!("metric: {name} = {value} {unit}");
    }
    let t = &out.tally;
    println!(
        "checks: attempted {} failed {} error_rate {}",
        t.attempted,
        t.failed,
        t.error_rate()
    );
    for p in &t.problems {
        println!("FAILED CHECK: {p}");
    }
}
