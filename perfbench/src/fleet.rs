//! `fleet`: set-up loads the benchmark's table file and builds the chips
//! and the analyzed matrix; the timed part simulates the seeded arrival
//! stream under the three policies. No compile, probe or search work
//! happens in the timed part.

use std::time::Instant;

use cisa_explore::{DesignSpace, PerfTable, SweepRunner};
use cisa_fleet::{
    simulate_fleet, AffinityGreedy, FleetConfig, FleetReport, FleetSpec, MigrationAware,
    MigrationMatrix, PolicyReport, SchedulerPolicy, StaticRandom,
};
use cisa_workloads::all_phases;

use crate::checks::{compare_pairs, flat_json_pairs, read_expected, write_expected, Tally};
use crate::pipeline::{chips, default_table, fleet_config, matrix, runner};
use crate::util::{another_fits, median, timed, DEFAULT_SEED};
use crate::{Ctx, Out};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

pub const POLICIES: [&dyn SchedulerPolicy; 3] = [&StaticRandom, &AffinityGreedy, &MigrationAware];

/// The fleet's inputs: chips and analyzed matrix over a loaded table.
pub struct Fleet {
    pub spec: FleetSpec,
    pub mm: MigrationMatrix,
}

/// Set-up: table load, chip search, analyzed matrix.
pub fn set_up(table_path: &std::path::Path, runner: &SweepRunner) -> Fleet {
    let space = DesignSpace::new();
    let table = PerfTable::load(table_path).expect("load the benchmark table");
    let spec = chips(&table, &space);
    let mm = matrix(&all_phases(), runner);
    Fleet { spec, mm }
}

/// The bundled report of one round, as `FleetReport::to_json` renders it.
pub fn report_json(f: &Fleet, cfg: &FleetConfig, policies: Vec<PolicyReport>) -> String {
    FleetReport {
        n_chips: f.spec.n_chips() as u64,
        n_threads: cfg.n_threads,
        n_shards: cfg.effective_shards(&f.spec) as u64,
        seed: cfg.seed,
        matrix_classes: f.mm.class_counts(),
        policies,
    }
    .to_json()
}

/// Checks that hold on every seed: every lifetime arrives and completes,
/// no chip exceeds its cap, and the headline numbers are finite.
pub fn check_report(tally: &mut Tally, r: &PolicyReport, cfg: &FleetConfig) {
    let ok = r.arrivals == cfg.n_threads
        && r.completed == cfg.n_threads
        && r.max_cap_utilization <= 1.0
        && r.edp.is_finite()
        && r.edp > 0.0
        && r.p99_slowdown.is_finite()
        && r.migrations.iter().sum::<u64>() == r.migrations_total;
    tally.check(ok, || {
        format!("{} report breaks an invariant: {r:?}", r.policy)
    });
}

pub fn run(ctx: &Ctx, out: &mut Out) {
    let table_path = default_table(&mut out.tally);
    let runner = runner(None);
    let cfg = fleet_config(ctx.seed);

    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        fleet = Some(set_up(&table_path, &runner));
        setups.push(t.elapsed().as_secs_f64());
    }
    let fleet = fleet.expect("at least one set-up");

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first_json: Option<String> = None;
    let start = Instant::now();
    loop {
        let (reports, wall, cpu) = timed(|| {
            POLICIES
                .iter()
                .map(|p| simulate_fleet(&fleet.spec, &fleet.mm, *p, &cfg, &runner))
                .collect::<Vec<_>>()
        });
        walls.push(wall);
        cpus.push(cpu);
        out.tally.attempt(reports.len() as u64);
        for r in &reports {
            check_report(&mut out.tally, r, &cfg);
        }
        let json = report_json(&fleet, &cfg, reports);
        match &first_json {
            None => first_json = Some(json),
            Some(j0) => {
                let (a, b) = (flat_json_pairs(j0), flat_json_pairs(&json));
                compare_pairs(
                    &mut out.tally,
                    &format!("fleet round {}", walls.len()),
                    &a,
                    &b,
                );
            }
        }
        if !another_fits(start.elapsed().as_secs_f64(), wall, ctx.seconds) {
            break;
        }
    }
    let json = first_json.expect("at least one round");
    let pairs = flat_json_pairs(&json);
    if ctx.seed == DEFAULT_SEED {
        if ctx.record {
            write_expected(
                "fleet.txt",
                "fleet on the default seed: FleetReport::to_json fields for 1,024 chips, 64 shards, 100,000 lifetimes per policy",
                &pairs,
            );
        }
        compare_pairs(
            &mut out.tally,
            "fleet report",
            &read_expected("fleet.txt"),
            &pairs,
        );
    }

    let round_s = median(&walls);
    let lifetimes = cfg.n_threads as f64 * POLICIES.len() as f64;
    out.note("rounds", walls.len());
    out.note("op_walls_s", format!("{walls:?}"));
    out.note("setup_walls_s", format!("{setups:?}"));
    out.note("lifetimes_per_round", lifetimes);
    out.note("fleet_lifetimes_per_s", lifetimes / round_s);
    out.note("error_rate", out.tally.error_rate());
    out.metric("setup_s", median(&setups), "s");
    out.metric("op_p50_ms", round_s * 1e3, "ms");
    out.metric("cpu_s", median(&cpus), "s");
}
