//! The pipeline calls every workload shares, and the inputs generated
//! from the benchmark seed.

use std::path::{Path, PathBuf};

use cisa_explore::{DesignSpace, PerfTable, ProfileCache, SweepRunner};
use cisa_fleet::{FleetConfig, FleetSpec, MigrationMatrix};
use cisa_isa::FeatureSet;
use cisa_workloads::{all_phases, PhaseSpec};

use crate::checks::{bits_digest, read_expected, table_bits, Tally};
use crate::util::{mix, work_dir, DEFAULT_SEED, WORKERS};

/// Peak-power budgets (W) the fleet's chip designs are searched under.
pub const CHIP_BUDGETS_W: [f64; 3] = [20.0, 30.0, 40.0];
/// Chips in the fleet.
pub const N_CHIPS: usize = 1024;
/// Thread-lifetimes per policy in one fleet round, sized so a round of
/// three policies takes a few seconds on two workers.
pub const FLEET_LIFETIMES: u64 = 100_000;

/// The paper's 49 phases on the default seed; on any other seed the
/// same 49 shapes with every generation seed re-drawn.
pub fn seeded_phases(seed: u64) -> Vec<PhaseSpec> {
    let mut phases = all_phases();
    if seed != DEFAULT_SEED {
        for (i, p) in phases.iter_mut().enumerate() {
            p.seed = mix(seed, i as u64);
        }
    }
    phases
}

/// The fleet configuration: `FleetConfig` defaults with the arrival
/// seed drawn from the benchmark seed.
pub fn fleet_config(seed: u64) -> FleetConfig {
    let default = FleetConfig::default();
    FleetConfig {
        seed: if seed == DEFAULT_SEED {
            default.seed
        } else {
            mix(seed, default.seed)
        },
        n_threads: FLEET_LIFETIMES,
        ..default
    }
}

pub fn runner(cache: Option<&Path>) -> SweepRunner {
    let runner = SweepRunner::new(WORKERS);
    match cache {
        Some(dir) => runner.with_cache(ProfileCache::new(dir)),
        None => runner,
    }
}

pub fn chips(table: &PerfTable, space: &DesignSpace) -> FleetSpec {
    FleetSpec::from_search(table, space, &CHIP_BUDGETS_W, N_CHIPS)
}

pub fn matrix(phases: &[PhaseSpec], runner: &SweepRunner) -> MigrationMatrix {
    MigrationMatrix::analyzed(phases, &FeatureSet::all(), runner)
}

/// The benchmark's own table file over the paper's corpus, which the
/// fleet workload and the traced serve stage load in their set-up. It
/// is built once per benchmark binary (a table older than the binary is
/// rebuilt, so a changed program never reads a stale table), and its
/// digest is checked against the recorded one on every run.
pub fn default_table(tally: &mut Tally) -> PathBuf {
    let path = work_dir().join("table").join("perf_table.bin");
    let exe_time = std::env::current_exe()
        .and_then(|p| std::fs::metadata(p)?.modified())
        .ok();
    let fresh = std::fs::metadata(&path)
        .and_then(|m| m.modified())
        .ok()
        .zip(exe_time)
        .is_some_and(|(table, exe)| table >= exe);
    if !fresh || PerfTable::load(&path).is_none() {
        // A child process builds it, so the build's memory does not show
        // in this run's peak resident set.
        let exe = std::env::current_exe().expect("path of the benchmark binary");
        let status = std::process::Command::new(exe)
            .arg("--prepare-table")
            .arg(&path)
            .status()
            .expect("start the table build");
        assert!(status.success(), "the table build failed: {status}");
    }
    let table = PerfTable::load(&path).expect("load the default table");
    check_table_digest(tally, &table, &DesignSpace::new());
    path
}

/// Builds the table over the paper's corpus and saves it to `path`.
pub fn prepare_table(path: &Path) {
    let (table, report) =
        PerfTable::build_for_phases_reported(&DesignSpace::new(), &all_phases(), &runner(None));
    assert!(
        report.is_clean(),
        "default table build failed: {}",
        report.summary()
    );
    std::fs::create_dir_all(path.parent().expect("table dir")).expect("create table dir");
    table.save(path).expect("save the default table");
}

/// The table over the paper's corpus must carry the digest recorded for
/// the default seed.
pub fn check_table_digest(tally: &mut Tally, table: &PerfTable, space: &DesignSpace) {
    let got = bits_digest(&table_bits(table, space));
    let recorded = read_expected("cold_build.txt")
        .get("table_digest")
        .cloned()
        .unwrap_or_default();
    tally.check(got == recorded, || {
        format!("table digest {got}, recorded {recorded}")
    });
}
