//! The traced run: every layer of the pipeline timed from outside, with
//! a span around each call into it, plus the counters and span totals
//! the program already keeps in its `cisa-obs` registry.
//!
//! Whatever the workload, the traced run covers all three stages so the
//! record always has every layer: the cold stage (table build, chip
//! search, analyzed matrix, then separate generate, compile, probe and
//! fill passes), the fleet stage (one traced round, then every shard
//! serially) and the serve stage (a traced window on loopback, then the
//! handler called in-process). The workload picks the inputs (seeded
//! phases for `cold-build`, the seeded arrival stream for `fleet`; the
//! serve traffic is drawn from the seed on both) and which operation is
//! also run untraced to measure the tracing overhead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cisa_compiler::{compile, CompileOptions};
use cisa_explore::{par_map, probes_run, DesignSpace, PerfTable};
use cisa_fleet::{simulate_fleet, simulate_shard};
use cisa_obs::Snapshot;
use cisa_serve::http::Request;
use cisa_serve::{handle, ServerState};
use cisa_workloads::{all_phases, generate};

use crate::checks::{table_bits, Tally};
use crate::cold::{build, check_build, check_fill, Build};
use crate::fleet::{check_report, Fleet, POLICIES};
use crate::pipeline::{chips, fleet_config, matrix, runner, seeded_phases};
use crate::serve::{check_rows, plan, start, summarize, window, Kind, Planned};
use crate::util::{cpu_seconds, fresh_dir, median, percentile, timed, work_dir, Rng, WORKERS};
use crate::{Ctx, Out, Workload};

/// Sum of the snapshot's span totals (seconds) over paths ending in `leaf`.
fn span_s(snap: &Snapshot, leaf: &str) -> f64 {
    snap.spans()
        .filter(|(path, _)| path.ends_with(leaf))
        .map(|(_, s)| s.total_ns as f64 / 1e9)
        .sum()
}

pub fn run(ctx: &Ctx, out: &mut Out) {
    let space = DesignSpace::new();
    let phases = if ctx.workload == Workload::ColdBuild {
        seeded_phases(ctx.seed)
    } else {
        all_phases()
    };
    let root = work_dir().join("profile");
    let _ = std::fs::remove_dir_all(&root);
    let mut overhead = (f64::NAN, f64::NAN);

    // ---- cold stage ------------------------------------------------
    let stage = ctx.rec.open("stage.cold", None);
    if ctx.workload == Workload::ColdBuild {
        let cache = fresh_dir(&root.join("cache-untraced"));
        let (_, wall, _) = timed(|| build(&space, &phases, &cache));
        overhead.0 = wall;
    }
    let cache = fresh_dir(&root.join("cache-traced"));
    let op = ctx.rec.open("pipeline.cold_build", stage);
    let op_start = Instant::now();
    let probes0 = probes_run();
    let runner_c = runner(Some(&cache));
    cisa_obs::reset();
    let cpu0 = cpu_seconds();
    let ((table, report), table_s) = ctx.rec.span("explore.table_build", op, || {
        PerfTable::build_for_phases_reported(&space, &phases, &runner_c)
    });
    let busy = (cpu_seconds() - cpu0) / (table_s * WORKERS as f64);
    let probes = probes_run() - probes0;
    let snap = cisa_obs::snapshot();
    cisa_obs::reset();
    let (spec, search_s) = ctx.rec.span("explore.search", op, || chips(&table, &space));
    let search_snap = cisa_obs::snapshot();
    let (mm, matrix_s) = ctx
        .rec
        .span("analyze.matrix", op, || matrix(&phases, &runner_c));
    ctx.rec.close(op);
    if ctx.workload == Workload::ColdBuild {
        overhead.1 = op_start.elapsed().as_secs_f64();
    }
    let b = Build {
        table,
        report,
        spec,
        mm,
        probes,
        dedup_hits: runner_c.dedup_hits(),
    };
    check_build(&mut out.tally, &b, &phases, &space);

    // Separate passes over the same 1,274 pairs: generate, compile, then
    // the probe grid on an empty cache; probe self time is the grid pass
    // minus the generate and compile passes it also performs.
    let fss = &space.feature_sets;
    let pairs: Vec<(usize, usize)> = (0..phases.len())
        .flat_map(|p| (0..fss.len()).map(move |f| (p, f)))
        .collect();
    let (irs, generate_s) = ctx.rec.span("workloads.generate", stage, || {
        par_map(&pairs, WORKERS, |&(p, _)| generate(&phases[p]))
    });
    let (codes, compile_s) = ctx.rec.span("compiler.compile", stage, || {
        par_map(&(0..pairs.len()).collect::<Vec<_>>(), WORKERS, |&i| {
            compile(&irs[i], &fss[pairs[i].1], &CompileOptions::default()).is_ok()
        })
    });
    out.tally.attempt(codes.len() as u64);
    let failed_compiles = codes.iter().filter(|ok| !**ok).count();
    out.tally.check(failed_compiles == 0, || {
        format!("{failed_compiles} compiles failed")
    });
    let grid_cache = fresh_dir(&root.join("cache-grid"));
    let (grid, grid_s) = ctx.rec.span("explore.profile_grid", stage, || {
        runner(Some(&grid_cache)).profile_grid(&phases, fss)
    });
    let (filled, fill_s) = ctx.rec.span("explore.fill", stage, || {
        PerfTable::from_profile_grid(&space, &phases, &grid)
    });
    check_fill(&mut out.tally, &b.table, &filled, &phases, &space, &grid);
    let table_path = root.join("perf_table.bin");
    b.table.save(&table_path).expect("save the profiled table");
    let (loaded, load_s) = ctx
        .rec
        .span("explore.table_load", stage, || PerfTable::load(&table_path));
    out.tally
        .check(loaded.is_some(), || "saved table does not load".to_string());
    ctx.rec.close(stage);

    let cells = pairs.len() as f64;
    let calibrate_s = span_s(&snap, "probe/calibrate");
    let uops = snap.counter("sim/uops");
    out.metric("explore.table_build_s", table_s, "s");
    out.metric("workloads.generate_s", generate_s, "s");
    out.metric("compiler.compile_s", compile_s, "s");
    out.metric("explore.probe_s", grid_s - generate_s - compile_s, "s");
    out.metric("explore.probe.arena_s", span_s(&snap, "probe/arena"), "s");
    out.metric(
        "explore.probe.measure_s",
        span_s(&snap, "probe/measure"),
        "s",
    );
    out.metric("sim.calibrate_s", calibrate_s, "s");
    out.metric("explore.probes_run", probes as f64, "count");
    out.metric("explore.dedup_hits", b.dedup_hits as f64, "count");
    out.metric("explore.probe_ratio", probes as f64 / cells, "ratio");
    out.metric("sim.runs", snap.counter("sim/runs") as f64, "count");
    out.metric("sim.uops", uops as f64, "count");
    out.metric("sim.cycles", snap.counter("sim/cycles") as f64, "count");
    out.metric(
        "sim.host_ns_per_uop",
        calibrate_s * 1e9 / uops.max(1) as f64,
        "ns",
    );
    out.metric("explore.fill_s", fill_s, "s");
    out.metric(
        "explore.table_entries",
        table_bits(&filled, &space).len() as f64,
        "count",
    );
    out.metric(
        "explore.cache_stores",
        snap.counter("cache/store") as f64,
        "count",
    );
    out.metric("explore.runner_busy_ratio", busy, "ratio");
    out.metric("explore.search_s", search_s, "s");
    out.metric(
        "explore.search.starts",
        search_snap.counter("search/starts") as f64,
        "count",
    );
    out.metric(
        "explore.search.climb_passes",
        search_snap.counter("search/climb_passes") as f64,
        "count",
    );
    out.metric("analyze.matrix_s", matrix_s, "s");
    out.metric("explore.table_load_s", load_s, "s");

    // ---- fleet stage -----------------------------------------------
    let stage = ctx.rec.open("stage.fleet", None);
    let fleet = Fleet {
        spec: b.spec,
        mm: b.mm,
    };
    let cfg = fleet_config(ctx.seed);
    let runner_f = runner(None);
    if ctx.workload == Workload::Fleet {
        let (_, wall, _) = timed(|| {
            POLICIES
                .iter()
                .map(|p| simulate_fleet(&fleet.spec, &fleet.mm, *p, &cfg, &runner_f))
                .collect::<Vec<_>>()
        });
        overhead.0 = wall;
    }
    let round = ctx.rec.open("fleet.round", stage);
    let round_start = Instant::now();
    let mut reports = Vec::new();
    for p in POLICIES {
        let name = p.name().replace('-', "_");
        let (r, secs) = ctx.rec.span(&format!("fleet.{name}"), round, || {
            simulate_fleet(&fleet.spec, &fleet.mm, p, &cfg, &runner_f)
        });
        out.metric(&format!("fleet.{name}_s"), secs, "s");
        reports.push((name, r));
    }
    ctx.rec.close(round);
    if ctx.workload == Workload::Fleet {
        overhead.1 = round_start.elapsed().as_secs_f64();
    }
    let n_shards = cfg.effective_shards(&fleet.spec);
    for (p, (name, r)) in POLICIES.iter().zip(&reports) {
        out.tally.attempt(1);
        check_report(&mut out.tally, r, &cfg);
        let serial = ctx.rec.open(&format!("fleet.{name}.serial"), stage);
        let mut times = Vec::with_capacity(n_shards);
        let mut arrivals = 0;
        for s in 0..n_shards {
            let (stats, secs) = ctx.rec.span("fleet.shard", serial, || {
                simulate_shard(&fleet.spec, &fleet.mm, *p, &cfg, s, n_shards)
            });
            arrivals += stats.arrivals;
            times.push(secs);
        }
        ctx.rec.close(serial);
        out.tally.check(arrivals == cfg.n_threads, || {
            format!("{name} shards saw {arrivals} arrivals")
        });
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let max = times.iter().copied().fold(0.0, f64::max);
        out.metric(
            &format!("fleet.{name}.shard_max_over_mean"),
            max / mean,
            "ratio",
        );
        out.metric(
            &format!("fleet.{name}.cap_blocked"),
            r.cap_blocked as f64,
            "count",
        );
        out.metric(
            &format!("fleet.{name}.migrations"),
            r.migrations_total as f64,
            "count",
        );
    }
    ctx.rec.close(stage);

    // ---- serve stage -----------------------------------------------
    let stage = ctx.rec.open("stage.serve", None);
    let traffic = plan(ctx.seed, ctx.seconds, &DesignSpace::new());
    let mut served = start(&table_path, &phases, &root.join("store-traced"));
    let (w, tally) = window(&served, &traffic, &ctx.rec, stage);
    out.tally.attempted += tally.attempted;
    out.tally.failed += tally.failed;
    out.tally.problems.extend(tally.problems);
    check_rows(&mut out.tally, &served, &traffic, &w, ctx.seed);
    served.server.shutdown();
    summarize(out, &w);

    let state = &served.state;
    let reads: Vec<&Planned> = traffic.reads.iter().take(2000).collect();
    let analyses: Vec<&Planned> = traffic
        .compute
        .iter()
        .filter(|p| p.kind == Kind::Analyze)
        .collect();
    let was_enabled = cisa_obs::enabled();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pass in 0..4 {
        cisa_obs::set_enabled(pass % 2 == 0);
        let sink = if pass % 2 == 0 { &mut on } else { &mut off };
        sink.extend(time_handles(ctx, &mut out.tally, state, &reads, stage));
    }
    cisa_obs::set_enabled(was_enabled);
    let analyze_us = time_handles(ctx, &mut out.tally, state, &analyses, stage);
    let refine: Vec<f64> = {
        let mut rng = Rng::new(ctx.seed ^ 0x2EF1);
        (0..3)
            .map(|_| {
                let mut spec = all_phases()[rng.below(49)].clone();
                spec.seed = rng.next_u64() >> 12;
                let deadline = Instant::now() + Duration::from_secs(60);
                let (r, secs) = ctx.rec.span("serve.row_for_spec", stage, || {
                    state.row_for_spec(&spec, deadline)
                });
                out.tally.attempt(1);
                out.tally.check(r.is_ok(), || {
                    "row_for_spec failed on a never-seen spec".to_string()
                });
                secs
            })
            .collect()
    };
    ctx.rec.close(stage);

    let affinity = w
        .samples
        .iter()
        .filter(|s| s.source.is_some())
        .count()
        .max(1);
    let late: Vec<f64> = w.samples.iter().map(|s| s.late_s).collect();
    let refined = w.refined_latencies();
    out.metric("serve.handle_read_us", median(&on) * 1e6, "us");
    out.metric(
        "serve.handle_analyze_us",
        if analyze_us.is_empty() {
            f64::NAN
        } else {
            median(&analyze_us) * 1e6
        },
        "us",
    );
    out.metric("serve.refine_s", median(&refine), "s");
    let reads_lat = w.read_latencies();
    out.metric(
        "serve.read_p99_ms",
        percentile(&reads_lat, 0.99) * 1e3,
        "ms",
    );
    out.metric(
        "serve.refined_p50_ms",
        if refined.is_empty() {
            f64::NAN
        } else {
            median(&refined) * 1e3
        },
        "ms",
    );
    for tier in ["table", "cached", "refined"] {
        out.metric(
            &format!("serve.tier.{tier}"),
            w.count_source(tier) as f64,
            "count",
        );
    }
    out.metric(
        "serve.refine_share",
        w.count_source("refined") as f64 / affinity as f64,
        "ratio",
    );
    for status in [429, 503, 504] {
        out.metric(
            &format!("serve.status_{status}"),
            w.count_status(status) as f64,
            "count",
        );
    }
    out.metric(
        "obs.serve_overhead_ratio",
        median(&on) / median(&off),
        "ratio",
    );
    out.metric("loadgen.late_p99_ms", percentile(&late, 0.99) * 1e3, "ms");
    out.metric("trace.overhead_ratio", overhead.1 / overhead.0, "ratio");
}

/// Calls the request handler in-process, with no socket, once per
/// request; returns the wall seconds of each call. A non-200 answer is a
/// failed operation.
fn time_handles(
    ctx: &Ctx,
    tally: &mut Tally,
    state: &Arc<ServerState>,
    reqs: &[&Planned],
    parent: Option<usize>,
) -> Vec<f64> {
    reqs.iter()
        .map(|p| {
            let req = Request {
                method: p.method.to_string(),
                path: p.path.to_string(),
                query: p.query.clone(),
                headers: Default::default(),
                body: p.body.clone().into_bytes(),
            };
            let t = Instant::now();
            let reply = handle(state, &req);
            let end = Instant::now();
            ctx.rec.record("serve.handle", parent, t, end);
            tally.attempt(1);
            tally.check(reply.status == 200, || {
                format!(
                    "in-process {} {} answered {}",
                    p.method, p.path, reply.status
                )
            });
            end.duration_since(t).as_secs_f64()
        })
        .collect()
}
