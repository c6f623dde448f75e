//! Fleet golden: one small three-policy fleet run, pinned as the full
//! `FleetReport::to_json` rendering.
//!
//! The roster is hand-built, so no table build is needed: six core
//! designs over four phases, three chip designs replicated over 16
//! chips, and caps that range from "everything fits" to one chip whose
//! cap blocks its largest core even when the chip is otherwise idle.
//! Four shards, 2,000 lifetimes per policy. Any change to placement,
//! migration pricing, power-cap accounting or the report rendering
//! moves at least one field.

use cisa_explore::{DesignId, PhasePerf, SweepRunner};
use cisa_fleet::{
    run_policies, AffinityGreedy, ChipDesign, CoreDesign, FleetConfig, FleetSpec, MigrationAware,
    MigrationMatrix, SchedulerPolicy, StaticRandom,
};
use cisa_isa::FeatureSet;

const N_PHASES: usize = 4;

/// `(feature set, peak W, kilocycles per unit over the four phases)`
/// per core design, so a segment runs for about 10^5 to 10^6 cycles,
/// the scale the migration latencies are priced against. Energy per
/// unit scales with peak power and cycles.
const CORES: [(u16, f64, [f64; N_PHASES]); 6] = [
    (0, 3.0, [2.4, 3.1, 2.0, 2.8]),
    (5, 5.0, [1.6, 1.9, 2.2, 1.4]),
    (12, 8.0, [1.1, 1.5, 0.9, 1.3]),
    (25, 12.0, [0.7, 0.8, 1.0, 0.6]),
    (3, 6.0, [1.3, 2.6, 1.2, 1.8]),
    (18, 20.0, [0.5, 0.6, 0.7, 0.5]),
];

fn roster() -> FleetSpec {
    let core_designs = CORES
        .iter()
        .enumerate()
        .map(|(ua, &(fs, peak_w, cpus))| CoreDesign {
            id: DesignId { fs, ua: ua as u16 },
            peak_w,
            perf: cpus
                .iter()
                .map(|&cpu| PhasePerf {
                    cycles_per_unit: cpu * 1e3,
                    energy_per_unit: peak_w * cpu * 1e-7,
                })
                .collect(),
        })
        .collect();
    let chip = |label: &str, cores: [u16; 4], cap_w: f64| ChipDesign {
        label: label.to_string(),
        cores,
        cap_w,
    };
    FleetSpec {
        core_designs,
        chip_designs: vec![
            // 28 W of peaks under 17 W: at most two or three at once.
            chip("tight", [0, 1, 2, 3], 17.0),
            // Every core fits at once.
            chip("loose", [4, 4, 1, 3], 29.0),
            // The 20 W core never fits under 18 W, even alone.
            chip("lone-over", [0, 2, 5, 4], 18.0),
        ],
        chips: (0..16).map(|i| (i % 3) as u16).collect(),
        n_phases: N_PHASES,
    }
}

#[test]
fn three_policy_fleet_report_is_pinned() {
    let spec = roster();
    let mm = MigrationMatrix::conservative(N_PHASES, &FeatureSet::all());
    let cfg = FleetConfig {
        n_threads: 2_000,
        n_shards: 4,
        ..Default::default()
    };
    let policies: [&dyn SchedulerPolicy; 3] = [&StaticRandom, &AffinityGreedy, &MigrationAware];
    let report = run_policies(&spec, &mm, &policies, &cfg, &SweepRunner::new(2));
    assert_eq!(report.to_json(), GOLDEN);
}

/// Recorded before the engine's blocked-idle bookkeeping changed.
const GOLDEN: &str = r#"{
  "n_chips": 16,
  "n_threads": 2000,
  "n_shards": 4,
  "seed": 990951,
  "matrix_native": 804,
  "matrix_transforming": 1228,
  "matrix_state_transforming": 672,
  "static_random_completed": 2000,
  "static_random_throughput_units_per_s": 3.877595e7,
  "static_random_energy_per_unit_j": 3.732710e-6,
  "static_random_mean_response_s": 5.503140e-4,
  "static_random_edp": 2.054163e-9,
  "static_random_p50_slowdown": 3.800574e0,
  "static_random_p99_slowdown": 2.865105e1,
  "static_random_max_slowdown": 5.214643e1,
  "static_random_migrations": 0,
  "static_random_migrations_native": 0,
  "static_random_migrations_transforming": 0,
  "static_random_migrations_state_transforming": 0,
  "static_random_cap_blocked": 115275,
  "static_random_max_cap_utilization": 1.000000e0,
  "affinity_greedy_completed": 2000,
  "affinity_greedy_throughput_units_per_s": 3.994401e7,
  "affinity_greedy_energy_per_unit_j": 3.622916e-6,
  "affinity_greedy_mean_response_s": 1.880095e-4,
  "affinity_greedy_edp": 6.811425e-10,
  "affinity_greedy_p50_slowdown": 1.400000e0,
  "affinity_greedy_p99_slowdown": 3.202198e0,
  "affinity_greedy_max_slowdown": 2.502177e1,
  "affinity_greedy_migrations": 781,
  "affinity_greedy_migrations_native": 758,
  "affinity_greedy_migrations_transforming": 21,
  "affinity_greedy_migrations_state_transforming": 2,
  "affinity_greedy_cap_blocked": 11698,
  "affinity_greedy_max_cap_utilization": 1.000000e0,
  "migration_aware_completed": 2000,
  "migration_aware_throughput_units_per_s": 3.994401e7,
  "migration_aware_energy_per_unit_j": 3.623681e-6,
  "migration_aware_mean_response_s": 1.804980e-4,
  "migration_aware_edp": 6.540673e-10,
  "migration_aware_p50_slowdown": 1.400000e0,
  "migration_aware_p99_slowdown": 3.262736e0,
  "migration_aware_max_slowdown": 5.166667e0,
  "migration_aware_migrations": 348,
  "migration_aware_migrations_native": 347,
  "migration_aware_migrations_transforming": 1,
  "migration_aware_migrations_state_transforming": 0,
  "migration_aware_cap_blocked": 11507,
  "migration_aware_max_cap_utilization": 1.000000e0,
  "affinity_greedy_edp_gain": 3.015760e0,
  "affinity_greedy_p99_slowdown_gain": 8.947307e0,
  "affinity_greedy_throughput_gain": 1.030123e0,
  "migration_aware_edp_gain": 3.140598e0,
  "migration_aware_p99_slowdown_gain": 8.781295e0,
  "migration_aware_throughput_gain": 1.030123e0
}
"#;
