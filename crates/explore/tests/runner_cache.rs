//! Acceptance tests for the sweep engine: parallel execution must be
//! bit-identical to serial execution, and a warm cache must eliminate
//! probing entirely.

use cisa_explore::profile::probes_run;
use cisa_explore::runner::MAX_ATTEMPTS;
use cisa_explore::{DesignId, DesignSpace, FaultPlan, PerfTable, ProfileCache, SweepRunner};
use cisa_workloads::all_phases;
use std::path::PathBuf;
use std::sync::Mutex;

/// The global probe counter is process-wide; tests that measure deltas
/// must not run concurrently with other probing tests.
static PROBE_COUNTER: Mutex<()> = Mutex::new(());

/// A unique scratch directory per test (no timestamps: pid + name).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cisa-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(profiles: &[cisa_explore::profile::PhaseProfile]) -> Vec<u64> {
    profiles
        .iter()
        .flat_map(|p| p.to_values().map(f64::to_bits))
        .collect()
}

#[test]
fn parallel_probe_sweep_is_bit_identical_to_serial() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(3).collect();
    let space = DesignSpace::new();
    let fs: Vec<_> = space.feature_sets.iter().copied().take(5).collect();

    let serial = SweepRunner::serial().profile_grid(&phases, &fs);
    for t in [2, 4, 7] {
        let parallel = SweepRunner::new(t).profile_grid(&phases, &fs);
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "profile grid must be bit-identical at {t} threads"
        );
    }
}

#[test]
fn parallel_table_build_is_bit_identical_to_serial() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    let serial = PerfTable::build_for_phases_with(&space, &phases, &SweepRunner::serial());
    let parallel = PerfTable::build_for_phases_with(&space, &phases, &SweepRunner::new(4));
    assert_eq!(serial.n_phases, parallel.n_phases);

    // Compare through the on-disk format: byte-identical tables.
    let dir = scratch("table-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    serial.save(&dir.join("serial.bin")).unwrap();
    parallel.save(&dir.join("parallel.bin")).unwrap();
    let a = std::fs::read(dir.join("serial.bin")).unwrap();
    let b = std::fs::read(dir.join("parallel.bin")).unwrap();
    assert_eq!(a, b, "table bytes must not depend on thread count");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dispatching each codegen key's first pair before its duplicates
/// must not change what is probed, what is deduped, or the table, at
/// any worker count.
#[test]
fn probe_and_dedup_counts_do_not_depend_on_worker_count() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(3).collect();
    let space = DesignSpace::new();
    let run = |workers: usize| {
        let runner = SweepRunner::new(workers);
        let before = probes_run();
        let (table, report) = PerfTable::build_for_phases_reported(&space, &phases, &runner);
        assert!(report.is_clean(), "{}", report.summary());
        let dir = scratch(&format!("dedup-counts-{workers}"));
        std::fs::create_dir_all(&dir).unwrap();
        table.save(&dir.join("table.bin")).unwrap();
        let bytes = std::fs::read(dir.join("table.bin")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (probes_run() - before, runner.dedup_hits(), bytes)
    };
    let serial = run(1);
    assert!(serial.1 > 0, "the fixture must share some codegen");
    assert_eq!(
        serial.0 + serial.1,
        (phases.len() * space.feature_sets.len()) as u64
    );
    for workers in [2, 4] {
        let parallel = run(workers);
        assert_eq!(parallel.0, serial.0, "probes_run at {workers} workers");
        assert_eq!(parallel.1, serial.1, "dedup_hits at {workers} workers");
        assert!(parallel.2 == serial.2, "table bytes at {workers} workers");
    }
}

#[test]
fn warm_cache_rerun_does_zero_probes() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let dir = scratch("warm-cache");
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    let fs: Vec<_> = space.feature_sets.iter().copied().take(4).collect();

    // Codegen dedup means a cold run probes once per unique (phase,
    // compiled-code fingerprint), not once per (phase, feature set)
    // pair — feature sets that compile a phase to identical code share
    // one probe.
    let unique_codegens: std::collections::HashSet<(String, u64)> = phases
        .iter()
        .flat_map(|p| {
            fs.iter().map(|f| {
                let code = cisa_compiler::compile(
                    &cisa_workloads::generate(p),
                    f,
                    &cisa_compiler::CompileOptions::default(),
                )
                .unwrap();
                (p.fingerprint(), cisa_explore::codegen_fingerprint(&code))
            })
        })
        .collect();

    let cold_runner = SweepRunner::new(2).with_cache(ProfileCache::new(&dir));
    let before = probes_run();
    let cold = cold_runner.profile_grid(&phases, &fs);
    let cold_probes = probes_run() - before;
    assert_eq!(
        cold_probes,
        unique_codegens.len() as u64,
        "cold run must probe every unique (phase, codegen) once"
    );
    assert_eq!(
        cold_runner.dedup_hits(),
        (phases.len() * fs.len()) as u64 - cold_probes,
        "every deduped pair must be answered from the dedup map"
    );

    // A fresh runner over the same cache directory: every pair must be
    // served from disk without running a single probe.
    let warm_runner = SweepRunner::new(2).with_cache(ProfileCache::new(&dir));
    let before = probes_run();
    let warm = warm_runner.profile_grid(&phases, &fs);
    let warm_probes = probes_run() - before;
    assert_eq!(
        warm_probes, 0,
        "warm run must be served entirely from cache"
    );
    assert_eq!(
        bits(&cold),
        bits(&warm),
        "cached profiles must be bit-identical to freshly probed ones"
    );
    let (hits, misses, _) = warm_runner.cache().unwrap().stats();
    assert_eq!((hits, misses), ((phases.len() * fs.len()) as u64, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The ISSUE's acceptance scenario: a fault plan with 5% stream
/// corruption and two forced worker panics. The table build must
/// complete, report exactly the corrupted items, absorb the transient
/// panics through retry, and keep every surviving row bit-identical
/// to a fault-free build.
#[test]
fn faulted_table_build_degrades_gracefully_and_reports_exactly() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(2).collect();
    let space = DesignSpace::new();
    let n_fs = space.feature_sets.len();
    let n_items = phases.len() * n_fs;

    let (base, base_report) =
        PerfTable::build_for_phases_reported(&space, &phases, &SweepRunner::new(2));
    assert!(base_report.is_clean(), "{}", base_report.summary());
    assert_eq!(base_report.attempted, n_items);

    // The corruption decision is per-index and content-independent, so
    // the expected faulted set can be derived from the plan itself.
    let plan = FaultPlan::new(0xFA_0715).with_stream_corruption(0.05);
    let corrupted: Vec<usize> = (0..n_items)
        .filter(|&i| plan.corrupt_stream(i, &mut vec![0xA5u8; 16]).is_some())
        .collect();
    assert!(
        !corrupted.is_empty() && corrupted.len() <= n_items / 4,
        "seed must corrupt some but not most items: {corrupted:?}"
    );
    // Force panics on two items the corruption leaves alone, so the
    // two fault kinds exercise disjoint recovery paths.
    let panics: Vec<usize> = (0..n_items)
        .filter(|i| !corrupted.contains(i))
        .take(2)
        .collect();
    let runner = SweepRunner::new(2).with_faults(plan.with_forced_panics(&panics));
    let (faulted, report) = PerfTable::build_for_phases_reported(&space, &phases, &runner);

    // Exact accounting: corrupted items fail after exhausting retries,
    // panicked items retry once and succeed.
    assert_eq!(report.attempted, n_items);
    assert_eq!(report.failed_indices(), corrupted);
    assert_eq!(report.retried, corrupted.len() + panics.len());
    for e in &report.failed {
        assert_eq!(e.attempts, MAX_ATTEMPTS, "{e}");
        assert!(e.message.contains("injected fault"), "{e}");
    }

    // Surviving rows bit-identical; failed cells stay at the zero
    // default, detectable by cycles_per_unit == 0.
    for pi in 0..phases.len() {
        for fi in 0..n_fs {
            let failed = corrupted.contains(&(pi * n_fs + fi));
            for ua in 0..space.microarchs.len() as u16 {
                let id = DesignId { fs: fi as u16, ua };
                let (f, b) = (faulted.get(pi, id), base.get(pi, id));
                if failed {
                    assert_eq!(f.cycles_per_unit, 0.0, "failed cell must stay zeroed");
                    assert_eq!(f.energy_per_unit, 0.0, "failed cell must stay zeroed");
                } else {
                    assert_eq!(f.cycles_per_unit.to_bits(), b.cycles_per_unit.to_bits());
                    assert_eq!(f.energy_per_unit.to_bits(), b.energy_per_unit.to_bits());
                }
            }
        }
    }
}

/// An armed-but-inert fault plan (no rates, no panic items) must leave
/// the build byte-identical to a runner with no plan at all — the
/// fault machinery costs nothing on the fault-free path.
#[test]
fn inert_fault_plan_build_is_byte_identical() {
    let _guard = PROBE_COUNTER.lock().unwrap();
    let phases: Vec<_> = all_phases().into_iter().take(1).collect();
    let space = DesignSpace::new();
    let plain = PerfTable::build_for_phases_with(&space, &phases, &SweepRunner::new(2));
    let armed_runner = SweepRunner::new(2).with_faults(FaultPlan::new(7));
    let (armed, report) = PerfTable::build_for_phases_reported(&space, &phases, &armed_runner);
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(report.retried, 0);

    let dir = scratch("inert-plan-identity");
    std::fs::create_dir_all(&dir).unwrap();
    plain.save(&dir.join("plain.bin")).unwrap();
    armed.save(&dir.join("armed.bin")).unwrap();
    let a = std::fs::read(dir.join("plain.bin")).unwrap();
    let b = std::fs::read(dir.join("armed.bin")).unwrap();
    assert_eq!(a, b, "inert fault plan must not perturb table bytes");
    let _ = std::fs::remove_dir_all(&dir);
}
