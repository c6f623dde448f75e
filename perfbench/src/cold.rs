//! `cold-build`: an empty probe cache and no table file, then the three
//! calls every experiment binary pays for on its first run — the table
//! build, the chip search and the analyzed migration matrix.

use std::collections::BTreeMap;
use std::time::Instant;

use cisa_explore::{probes_run, DesignSpace, PerfTable, PhaseProfile, SweepReport};
use cisa_fleet::{FleetSpec, MigrationMatrix};
use cisa_workloads::PhaseSpec;

use crate::checks::{
    bad_entries, bits_digest, chips_digest, compare_pairs, first_difference, read_expected,
    table_bits, write_expected, Tally,
};
use crate::pipeline::{chips, matrix, runner, seeded_phases};
use crate::util::{another_fits, fresh_dir, median, timed, work_dir, DEFAULT_SEED};
use crate::{Ctx, Out};

/// Set-ups before each build; the median over every set-up of the run
/// is reported. A burst of them before each build samples the host at
/// several points of the run, not only at its start.
const SETUPS: usize = 21;

/// Outputs of one cold build.
pub struct Build {
    pub table: PerfTable,
    pub report: SweepReport,
    pub spec: FleetSpec,
    pub mm: MigrationMatrix,
    pub probes: u64,
    pub dedup_hits: u64,
}

/// The cold build: table through a fresh cached runner, chips, matrix.
pub fn build(space: &DesignSpace, phases: &[PhaseSpec], cache: &std::path::Path) -> Build {
    let probes0 = probes_run();
    let runner = runner(Some(cache));
    let (table, report) = PerfTable::build_for_phases_reported(space, phases, &runner);
    let spec = chips(&table, space);
    let mm = matrix(phases, &runner);
    Build {
        table,
        report,
        spec,
        mm,
        probes: probes_run() - probes0,
        dedup_hits: runner.dedup_hits(),
    }
}

/// Facts about a build that the recorded expectations cover.
pub fn facts(b: &Build, space: &DesignSpace) -> BTreeMap<String, String> {
    let bits = table_bits(&b.table, space);
    let c = b.mm.class_counts();
    BTreeMap::from([
        ("table_digest".to_string(), bits_digest(&bits)),
        ("table_entries".to_string(), bits.len().to_string()),
        ("chips_digest".to_string(), chips_digest(&b.spec)),
        (
            "matrix_classes".to_string(),
            format!("{},{},{}", c[0], c[1], c[2]),
        ),
        ("probes_run".to_string(), b.probes.to_string()),
        ("dedup_hits".to_string(), b.dedup_hits.to_string()),
    ])
}

/// Checks that hold on every seed: a clean sweep, finite positive
/// entries and a matrix covering every (phase, from, to) triple.
pub fn check_build(tally: &mut Tally, b: &Build, phases: &[PhaseSpec], space: &DesignSpace) {
    tally.attempt(b.report.attempted as u64);
    for e in &b.report.failed {
        tally.fail(format!("table cell failed: {e}"));
    }
    let bits = table_bits(&b.table, space);
    let bad = bad_entries(&bits);
    tally.check(bad == 0, || {
        format!("{bad} table entries are not finite and positive")
    });
    let n_fs = space.feature_sets.len() as u64;
    let total: u64 = b.mm.class_counts().iter().sum();
    let want = phases.len() as u64 * n_fs * n_fs;
    tally.check(total == want, || {
        format!("matrix covers {total} entries, want {want}")
    });
}

/// The block fill of `grid` must equal the scalar oracle, and both must
/// equal the table the build produced.
pub fn check_fill(
    tally: &mut Tally,
    built: &PerfTable,
    filled: &PerfTable,
    phases: &[PhaseSpec],
    space: &DesignSpace,
    grid: &[PhaseProfile],
) {
    let block = table_bits(filled, space);
    let oracle = PerfTable::from_profile_grid_reference(space, phases, grid);
    tally.attempt(1);
    if let Some(i) = first_difference(&block, &table_bits(&oracle, space)) {
        tally.fail(format!(
            "block fill differs from the scalar oracle at entry {i}"
        ));
    }
    if let Some(i) = first_difference(&block, &table_bits(built, space)) {
        tally.fail(format!(
            "block fill differs from the built table at entry {i}"
        ));
    }
}

pub fn run(ctx: &Ctx, out: &mut Out) {
    let root = work_dir().join("cold-build");
    let _ = std::fs::remove_dir_all(&root);

    let mut setups = Vec::new();
    let mut set_up = |build: usize| {
        let mut inputs = None;
        for i in 0..SETUPS {
            let t = Instant::now();
            let cache = fresh_dir(&root.join(format!("cache-{build}-{i}")));
            let space = DesignSpace::new();
            let phases = seeded_phases(ctx.seed);
            setups.push(t.elapsed().as_secs_f64());
            inputs = Some((cache, space, phases));
        }
        inputs.expect("at least one set-up")
    };

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<(Build, BTreeMap<String, String>)> = None;
    let start = Instant::now();
    let (cache, space, phases) = loop {
        let (cache, space, phases) = set_up(walls.len());
        let (b, wall, cpu) = timed(|| build(&space, &phases, &cache));
        walls.push(wall);
        cpus.push(cpu);
        check_build(&mut out.tally, &b, &phases, &space);
        let f = facts(&b, &space);
        match &first {
            None => first = Some((b, f)),
            Some((_, f0)) => {
                // Probe and dedup counts depend on what earlier builds
                // left in the process; the outputs must not.
                for k in ["table_digest", "chips_digest", "matrix_classes"] {
                    out.tally.check(f[k] == f0[k], || {
                        format!("build {} {k} differs from build 1", walls.len())
                    });
                }
            }
        }
        if !another_fits(start.elapsed().as_secs_f64(), wall, ctx.seconds) {
            break (cache, space, phases);
        }
    };
    let (b0, f0) = first.expect("at least one build");
    // The last build's cache is warm: the grid loads without probing.
    let grid = runner(Some(&cache)).profile_grid(&phases, &space.feature_sets);
    let filled = PerfTable::from_profile_grid(&space, &phases, &grid);
    check_fill(&mut out.tally, &b0.table, &filled, &phases, &space, &grid);

    if ctx.seed == DEFAULT_SEED {
        if ctx.record {
            write_expected(
                "cold_build.txt",
                "cold-build on the default seed: 49 phases x 26 feature sets x 180 microarchitectures, 1,024 chips at 20/30/40 W",
                &f0,
            );
        }
        compare_pairs(
            &mut out.tally,
            "cold-build",
            &read_expected("cold_build.txt"),
            &f0,
        );
    }

    let build_s = median(&walls);
    out.note("builds", walls.len());
    out.note("op_walls_s", format!("{walls:?}"));
    out.note("setup_walls_s", format!("{setups:?}"));
    out.note("build_s", build_s);
    out.note("build_cpu_s", median(&cpus));
    out.note("table_digest", &f0["table_digest"]);
    out.note("matrix_classes", &f0["matrix_classes"]);
    out.note("probes_run", &f0["probes_run"]);
    out.note("dedup_hits", &f0["dedup_hits"]);
    out.note("error_rate", out.tally.error_rate());
    out.metric("setup_s", median(&setups), "s");
    out.metric("op_p50_ms", build_s * 1e3, "ms");
    out.metric("cpu_s", median(&cpus), "s");
}
