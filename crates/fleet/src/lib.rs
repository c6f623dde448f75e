//! # cisa-fleet: fleet-scale migration scheduler simulation
//!
//! The paper evaluates composite-ISA scheduling and migration on
//! 4-core snapshots (Figures 13/15). This crate extends that to a
//! *datacenter*: a deterministic discrete-event simulation of
//! thousands of composite-ISA chips (drawn from the multicore search)
//! serving millions of thread-lifetimes that arrive as a seeded
//! open-system stream, with an online scheduler that places and
//! live-migrates threads under per-chip power caps.
//!
//! The moving parts, one module each:
//!
//! - [`chips`] — the fleet's hardware: distinct core designs extracted
//!   from the batched [`cisa_explore::PerfTable`] (per-phase
//!   cycles/energy columns via `PerfTable::design_column`), grouped
//!   into 4-core chip designs found by
//!   [`cisa_explore::multicore::search`] under explicit power budgets,
//!   replicated across the fleet.
//! - [`workload`] — the open-system arrival stream: seeded exponential
//!   interarrivals; each thread-lifetime carries a phase-profile
//!   fingerprint sampled from the 49-phase corpus or a synthetic blend
//!   of two corpus phases, plus a run of work segments.
//! - [`migration`] — migration pricing: a dense per-phase class tensor
//!   built from [`cisa_migrate::classify_migration_with`] over
//!   statically-proven [`cisa_migrate::MigrationPointMap`]s (the
//!   `cisa-analyze` pipeline), the three Mavrogeorgis-grounded
//!   latency constants for native / transforming / state-transforming
//!   migrations, and the energy a migration draws.
//! - [`policy`] — the [`policy::SchedulerPolicy`] trait, which prices
//!   one idle, power-feasible core for a thread, and the three shipped
//!   policies: static-random (baseline), affinity-greedy, and
//!   migration-aware (remaining-work EDP inclusive of amortized
//!   migration cost).
//! - [`sim`] — the discrete-event engine: the fleet is sharded into
//!   independent clusters, each simulated serially; shards fan out on
//!   a [`cisa_explore::SweepRunner`], so a full fleet run is
//!   **bit-identical at any `CISA_THREADS`**. The engine owns the
//!   placement search: it takes the cheapest core the policy priced.
//! - [`report`] — per-policy throughput / EDP / tail-slowdown metrics
//!   and the deterministic JSON report `fleet_bench` writes to
//!   `BENCH_fleet.json`.
//!
//! The full subsystem reference — event model, arrival process,
//! power-cap accounting, policy scoring functions, the migration
//! cost-class table and its grounding — lives in the repository-level
//! `FLEET.md`. The `fleet/*` observability names are catalogued in
//! `METRICS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chips;
pub mod migration;
pub mod policy;
pub mod report;
pub mod sim;
pub mod workload;

pub use chips::{ChipDesign, CoreDesign, FleetSpec};
pub use migration::{class_latency_cycles, MigrationMatrix};
pub use policy::{AffinityGreedy, MigrationAware, SchedulerPolicy, StaticRandom};
pub use report::{FleetReport, PolicyReport, ReportValue};
pub use sim::{run_policies, simulate_fleet, simulate_shard, FleetConfig, ShardStats};
pub use workload::{ArrivalStream, ThreadSpec, Workload};
