//! Warm table-fill benchmark: batched block evaluation vs the retained
//! scalar reference, over the full 49-phase x 26-feature-set x
//! 180-microarch grid (229,320 composite + 26,460 vendor entries).
//!
//! The probe grid is swept once (cold, through the runner's dedup) and
//! then both fill implementations run from the same cached profiles —
//! pure model evaluation, no probing or I/O — several times each,
//! taking the minimum wall time. The run asserts the two tables are
//! entry-for-entry bit-identical before reporting, so the speedup can
//! never come from computing something different.
//!
//! Emits `BENCH_table.json` with the cold sweep time, both warm fill
//! times, and the speedup. The run fails (exit 1) if the speedup falls
//! below a hard 2x floor or, with `--check <baseline.json>`, below 50%
//! of the baseline's (see [`cisa_bench::record::GATES`]). Ratio gates
//! hold on runners of any speed.
//!
//! Usage: `bench_table [--out <path>] [--check <baseline.json>]`

use std::time::Instant;

use cisa_bench::record::{Args, Record};
use cisa_explore::{threads, DesignSpace, PerfTable, SweepRunner};
use cisa_isa::VendorIsa;
use cisa_workloads::all_phases;

/// Timed repetitions per implementation (minimum is reported).
const ITERS: usize = 3;

fn main() {
    let args = Args::parse("table", |_, _| Ok(false));
    let phases = all_phases();
    let space = DesignSpace::new();
    let n_fs = space.feature_sets.len();
    let n_ua = space.microarchs.len();
    let n_threads = threads();
    println!(
        "table fill: {} phases x {n_fs} feature sets x {n_ua} designs, {n_threads} threads (fills are serial)",
        phases.len(),
    );

    // Cold probe sweep, once; both fills then run warm from this grid.
    let runner = SweepRunner::new(n_threads);
    let t = Instant::now();
    let grid = runner.profile_grid(&phases, &space.feature_sets);
    let cold_sweep_s = t.elapsed().as_secs_f64();
    println!(
        "cold probe sweep: {cold_sweep_s:.2}s ({} dedup hits)",
        runner.dedup_hits()
    );

    let time_min = |f: &dyn Fn() -> PerfTable| -> (PerfTable, f64) {
        let mut best = f64::INFINITY;
        let mut table = None;
        for _ in 0..ITERS {
            let t = Instant::now();
            let built = f();
            best = best.min(t.elapsed().as_secs_f64());
            table = Some(built);
        }
        (table.expect("at least one iteration"), best)
    };

    let (scalar_table, scalar_fill_s) =
        time_min(&|| PerfTable::from_profile_grid_reference(&space, &phases, &grid));
    println!("scalar fill: {scalar_fill_s:.3}s (min of {ITERS})");

    let (block_table, block_fill_s) =
        time_min(&|| PerfTable::from_profile_grid(&space, &phases, &grid));
    println!("block fill:  {block_fill_s:.3}s (min of {ITERS})");

    // The optimization contract: same bits, less time.
    let mut checked = 0u64;
    for pi in 0..phases.len() {
        for id in space.ids() {
            let a = block_table.get(pi, id);
            let b = scalar_table.get(pi, id);
            assert_eq!(
                (a.cycles_per_unit.to_bits(), a.energy_per_unit.to_bits()),
                (b.cycles_per_unit.to_bits(), b.energy_per_unit.to_bits()),
                "block fill diverged from scalar at phase {pi} {id:?}"
            );
            checked += 1;
        }
        for v in VendorIsa::ALL {
            for ua in 0..n_ua {
                let a = block_table.vendor(pi, v, ua);
                let b = scalar_table.vendor(pi, v, ua);
                assert_eq!(
                    (a.cycles_per_unit.to_bits(), a.energy_per_unit.to_bits()),
                    (b.cycles_per_unit.to_bits(), b.energy_per_unit.to_bits()),
                    "vendor row diverged at phase {pi} {v:?} ua {ua}"
                );
                checked += 1;
            }
        }
    }
    println!("bit-identity: {checked} entries verified");

    let speedup = scalar_fill_s / block_fill_s.max(1e-9);
    let end_to_end_s = cold_sweep_s + block_fill_s;
    println!("speedup: {speedup:.2}x (cold sweep + block fill: {end_to_end_s:.2}s)");

    Record::new(n_threads)
        .int("phases", phases.len() as u64)
        .int("feature_sets", n_fs as u64)
        .int("designs", (n_fs * n_ua) as u64)
        .int("entries_checked", checked)
        .secs("cold_sweep_s", cold_sweep_s)
        .secs("scalar_fill_s", scalar_fill_s)
        .secs("block_fill_s", block_fill_s)
        .fixed("speedup", speedup, 4)
        .secs("end_to_end_s", end_to_end_s)
        .finish(&args);
}
