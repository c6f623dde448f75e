//! Thread-count bit-identity of full fleet runs.
//!
//! The fleet engine's headline guarantee: a full run — arrivals,
//! placements, migrations, every derived metric — is bit-identical at
//! any `CISA_THREADS`. The shard partition is fixed by configuration;
//! workers only change which shards run concurrently, and the
//! order-preserving merge makes the result a pure function of
//! `(spec, matrix, policy, config)`.

use std::sync::OnceLock;

use cisa_explore::{DesignId, DesignSpace, PerfTable, SweepRunner};
use cisa_fleet::{
    run_policies, simulate_fleet, AffinityGreedy, FleetConfig, FleetSpec, MigrationAware,
    MigrationMatrix, PolicyReport, SchedulerPolicy, StaticRandom,
};
use cisa_isa::FeatureSet;
use cisa_workloads::all_phases;

fn fixtures() -> &'static (DesignSpace, PerfTable, FleetSpec, MigrationMatrix) {
    static CELL: OnceLock<(DesignSpace, PerfTable, FleetSpec, MigrationMatrix)> = OnceLock::new();
    CELL.get_or_init(|| {
        let space = DesignSpace::new();
        let phases: Vec<_> = all_phases().into_iter().filter(|p| p.index == 0).collect();
        let table = PerfTable::build_for_phases(&space, &phases);
        let spec = test_fleet(&space, &table, 32);
        let mm = MigrationMatrix::conservative(table.n_phases, &FeatureSet::all());
        (space, table, spec, mm)
    })
}

/// A hand-picked heterogeneous fleet: two chip designs mixing feature
/// sets and microarchitectures, so migrations cross real feature gaps.
fn test_fleet(space: &DesignSpace, table: &PerfTable, n_chips: usize) -> FleetSpec {
    let chip = |ids: [DesignId; 4], label: &str| {
        let sum: f64 = ids.iter().map(|id| space.budget(*id).1).sum();
        (ids, 0.8 * sum, label.to_string())
    };
    let designs = vec![
        chip(
            [
                DesignId { fs: 0, ua: 30 },
                DesignId { fs: 5, ua: 100 },
                DesignId { fs: 12, ua: 160 },
                DesignId { fs: 25, ua: 179 },
            ],
            "mixed-a",
        ),
        chip(
            [
                DesignId { fs: 3, ua: 10 },
                DesignId { fs: 3, ua: 10 },
                DesignId { fs: 18, ua: 140 },
                DesignId { fs: 22, ua: 65 },
            ],
            "mixed-b",
        ),
    ];
    FleetSpec::from_chips(table, space, &designs, n_chips)
}

fn config() -> FleetConfig {
    FleetConfig {
        n_threads: 4_000,
        n_shards: 8,
        ..Default::default()
    }
}

/// Exact equality including float bits (`PartialEq` on the report
/// compares floats with `==`; a sign-of-zero flip would slip through,
/// so the JSON rendering is compared too).
fn assert_identical(a: &PolicyReport, b: &PolicyReport, what: &str) {
    assert_eq!(a, b, "{what}: reports differ");
    assert_eq!(
        a.total_work.to_bits(),
        b.total_work.to_bits(),
        "{what}: work bits"
    );
    assert_eq!(a.edp.to_bits(), b.edp.to_bits(), "{what}: edp bits");
    assert_eq!(
        a.p99_slowdown.to_bits(),
        b.p99_slowdown.to_bits(),
        "{what}: p99 bits"
    );
    assert_eq!(
        a.makespan_cycles.to_bits(),
        b.makespan_cycles.to_bits(),
        "{what}: makespan bits"
    );
}

#[test]
fn fleet_run_is_bit_identical_at_1_4_8_threads() {
    let (_, _, spec, mm) = fixtures();
    let cfg = config();
    let policies: [&dyn SchedulerPolicy; 3] = [&StaticRandom, &AffinityGreedy, &MigrationAware];
    for policy in policies {
        let r1 = simulate_fleet(spec, mm, policy, &cfg, &SweepRunner::new(1));
        let r4 = simulate_fleet(spec, mm, policy, &cfg, &SweepRunner::new(4));
        let r8 = simulate_fleet(spec, mm, policy, &cfg, &SweepRunner::new(8));
        assert_identical(&r1, &r4, &format!("{} 1v4", policy.name()));
        assert_identical(&r1, &r8, &format!("{} 1v8", policy.name()));
        assert_eq!(r1.arrivals, cfg.n_threads);
        assert_eq!(r1.completed, cfg.n_threads, "runs drain");
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let (_, _, spec, mm) = fixtures();
    let cfg = config();
    let runner = SweepRunner::new(4);
    let a = simulate_fleet(spec, mm, &MigrationAware, &cfg, &runner);
    let b = simulate_fleet(spec, mm, &MigrationAware, &cfg, &runner);
    assert_identical(&a, &b, "same-runner repeat");
}

#[test]
fn seed_changes_the_run() {
    let (_, _, spec, mm) = fixtures();
    let cfg = config();
    let runner = SweepRunner::new(4);
    let a = simulate_fleet(spec, mm, &AffinityGreedy, &cfg, &runner);
    let reseeded = FleetConfig {
        seed: cfg.seed ^ 0xDEAD,
        ..cfg
    };
    let b = simulate_fleet(spec, mm, &AffinityGreedy, &reseeded, &runner);
    assert_ne!(
        a.total_work.to_bits(),
        b.total_work.to_bits(),
        "different seeds must draw different streams"
    );
}

#[test]
fn policies_actually_differ() {
    let (_, _, spec, mm) = fixtures();
    let cfg = config();
    let runner = SweepRunner::new(4);
    let stat = simulate_fleet(spec, mm, &StaticRandom, &cfg, &runner);
    let greedy = simulate_fleet(spec, mm, &AffinityGreedy, &cfg, &runner);
    let aware = simulate_fleet(spec, mm, &MigrationAware, &cfg, &runner);
    assert_eq!(stat.migrations_total, 0, "static never migrates");
    assert!(
        greedy.migrations_total > 0,
        "affinity-greedy migrates sometimes"
    );
    assert!(aware.migrations_total > 0, "migration-aware migrates");
    assert!(
        aware.p99_slowdown <= stat.p99_slowdown,
        "migration-aware p99 {} must not exceed static {}",
        aware.p99_slowdown,
        stat.p99_slowdown
    );
}

/// The exact reports of the fixture fleet, one per policy. Any change
/// to the engine, a policy or the fleet's energy accounting that moves
/// a reported digit fails here.
#[test]
fn fixture_reports_match_golden() {
    let (_, _, spec, mm) = fixtures();
    let cfg = config();
    let runner = SweepRunner::new(2);
    let cases: [(&dyn SchedulerPolicy, &str); 3] = [
        (&StaticRandom, STATIC_RANDOM_GOLDEN),
        (&AffinityGreedy, AFFINITY_GREEDY_GOLDEN),
        (&MigrationAware, MIGRATION_AWARE_GOLDEN),
    ];
    for (policy, golden) in cases {
        let report = run_policies(spec, mm, &[policy], &cfg, &runner);
        assert_eq!(report.to_json(), golden, "{} report moved", policy.name());
    }
}

const STATIC_RANDOM_GOLDEN: &str = r#"{
  "n_chips": 32,
  "n_threads": 4000,
  "n_shards": 8,
  "seed": 990951,
  "matrix_native": 1608,
  "matrix_transforming": 2456,
  "matrix_state_transforming": 1344,
  "static_random_completed": 4000,
  "static_random_throughput_units_per_s": 4.369897e5,
  "static_random_energy_per_unit_j": 1.043663e-3,
  "static_random_mean_response_s": 2.170858e-1,
  "static_random_edp": 2.265644e-4,
  "static_random_p50_slowdown": 4.899043e0,
  "static_random_p99_slowdown": 1.290311e2,
  "static_random_max_slowdown": 3.648609e2,
  "static_random_migrations": 0,
  "static_random_migrations_native": 0,
  "static_random_migrations_transforming": 0,
  "static_random_migrations_state_transforming": 0,
  "static_random_cap_blocked": 166022,
  "static_random_max_cap_utilization": 9.437676e-1
}
"#;

const AFFINITY_GREEDY_GOLDEN: &str = r#"{
  "n_chips": 32,
  "n_threads": 4000,
  "n_shards": 8,
  "seed": 990951,
  "matrix_native": 1608,
  "matrix_transforming": 2456,
  "matrix_state_transforming": 1344,
  "affinity_greedy_completed": 4000,
  "affinity_greedy_throughput_units_per_s": 4.528063e5,
  "affinity_greedy_energy_per_unit_j": 9.870094e-4,
  "affinity_greedy_mean_response_s": 3.011605e-2,
  "affinity_greedy_edp": 2.972483e-5,
  "affinity_greedy_p50_slowdown": 1.032049e0,
  "affinity_greedy_p99_slowdown": 2.376280e0,
  "affinity_greedy_max_slowdown": 3.633810e0,
  "affinity_greedy_migrations": 1471,
  "affinity_greedy_migrations_native": 1185,
  "affinity_greedy_migrations_transforming": 11,
  "affinity_greedy_migrations_state_transforming": 275,
  "affinity_greedy_cap_blocked": 9263,
  "affinity_greedy_max_cap_utilization": 9.437676e-1
}
"#;

const MIGRATION_AWARE_GOLDEN: &str = r#"{
  "n_chips": 32,
  "n_threads": 4000,
  "n_shards": 8,
  "seed": 990951,
  "matrix_native": 1608,
  "matrix_transforming": 2456,
  "matrix_state_transforming": 1344,
  "migration_aware_completed": 4000,
  "migration_aware_throughput_units_per_s": 4.528070e5,
  "migration_aware_energy_per_unit_j": 9.871355e-4,
  "migration_aware_mean_response_s": 3.118811e-2,
  "migration_aware_edp": 3.078689e-5,
  "migration_aware_p50_slowdown": 1.077868e0,
  "migration_aware_p99_slowdown": 2.656780e0,
  "migration_aware_max_slowdown": 3.717826e0,
  "migration_aware_migrations": 143,
  "migration_aware_migrations_native": 108,
  "migration_aware_migrations_transforming": 34,
  "migration_aware_migrations_state_transforming": 1,
  "migration_aware_cap_blocked": 9397,
  "migration_aware_max_cap_utilization": 9.437676e-1
}
"#;
