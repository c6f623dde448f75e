//! Scheduler policies: what a thread pays to run on a core.
//!
//! A policy prices one core at a time. Whenever a thread needs a core,
//! the engine builds a [`Candidate`] for each idle core whose chip has
//! cap headroom for it, asks the policy for its
//! [`cost`](SchedulerPolicy::cost), and places the thread on the
//! cheapest one (ties go to the lowest core index). A thread bound at
//! arrival is only ever offered its bound core. The three shipped
//! policies bracket the design space the paper's Figures 13/15
//! explore, at fleet scale:
//!
//! - [`StaticRandom`] — the no-affinity baseline: each thread is
//!   pinned at arrival to one uniformly-random core (among cores that
//!   could ever run it under the chip cap) and never migrates.
//! - [`AffinityGreedy`] — the fastest feasible core for the thread's
//!   fingerprint, every segment; migration costs are ignored.
//! - [`MigrationAware`] — the core minimizing the remaining work's
//!   energy-delay product *inclusive* of the migration's class latency
//!   and energy, so a migration happens exactly when its amortized EDP
//!   delta is negative.
//!
//! Costs are pure functions of the candidate (plus, for the static
//! baseline, a seeded per-thread RNG at arrival), so every policy
//! keeps the simulation deterministic.

use cisa_migrate::MigrationClass;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::migration::migration_energy_j;

/// One placement option: an idle core with cap headroom for it.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Global core index.
    pub core: u32,
    /// Core-design index in the fleet spec.
    pub design: u16,
    /// Peak power (W) of the core.
    pub peak_w: f64,
    /// Cycles per unit of the thread's workload on this core.
    pub cpu: f64,
    /// Energy (J) per unit of the thread's workload on this core.
    pub epu: f64,
    /// Migration class if moving here migrates the thread; `None` for
    /// the thread's first dispatch or for resuming on the same core.
    pub mig_class: Option<MigrationClass>,
    /// Migration latency in cycles (`0.0` when `mig_class` is `None`).
    pub mig_cycles: f64,
}

/// A scheduling policy: optional arrival-time binding plus the price
/// of one core.
pub trait SchedulerPolicy: Sync {
    /// Stable policy name used in reports and JSON.
    fn name(&self) -> &'static str;

    /// Called once at thread arrival with every core that could ever
    /// run the thread alone under its chip's cap. A static policy
    /// returns the core to pin the thread to; dynamic policies return
    /// `None`.
    fn bind_on_arrival(&self, _rng: &mut SmallRng, _eligible: &[u32]) -> Option<u32> {
        None
    }

    /// The cost of running the thread's `remaining_work` units (all
    /// remaining segments, including the one about to run) on `c`.
    /// The engine takes the cheapest candidate.
    fn cost(&self, remaining_work: f64, c: &Candidate) -> f64;
}

/// The no-affinity baseline: pin each arriving thread to one
/// uniformly-random eligible core; never migrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticRandom;

impl SchedulerPolicy for StaticRandom {
    fn name(&self) -> &'static str {
        "static-random"
    }

    fn bind_on_arrival(&self, rng: &mut SmallRng, eligible: &[u32]) -> Option<u32> {
        if eligible.is_empty() {
            return None;
        }
        Some(eligible[rng.gen_range(0..eligible.len())])
    }

    /// Every thread is bound, so its bound core is the only candidate.
    fn cost(&self, _remaining_work: f64, _c: &Candidate) -> f64 {
        0.0
    }
}

/// Greedy affinity: the fastest feasible core for the fingerprint,
/// chosen fresh at every segment boundary; migration costs ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct AffinityGreedy;

impl SchedulerPolicy for AffinityGreedy {
    fn name(&self) -> &'static str {
        "affinity-greedy"
    }

    fn cost(&self, _remaining_work: f64, c: &Candidate) -> f64 {
        c.cpu
    }
}

/// Migration-aware EDP: the remaining work's energy x delay inclusive
/// of the migration's latency and energy. A migration is taken exactly
/// when its EDP gain over staying put survives the amortized migration
/// cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct MigrationAware;

impl SchedulerPolicy for MigrationAware {
    fn name(&self) -> &'static str {
        "migration-aware"
    }

    fn cost(&self, remaining_work: f64, c: &Candidate) -> f64 {
        let delay = remaining_work * c.cpu + c.mig_cycles;
        let energy = remaining_work * c.epu + migration_energy_j(c.mig_cycles, c.peak_w);
        energy * delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cand(core: u32, cpu: f64, mig_cycles: f64) -> Candidate {
        Candidate {
            core,
            design: 0,
            peak_w: 10.0,
            cpu,
            epu: 1e-9,
            mig_class: (mig_cycles > 0.0).then_some(MigrationClass::Native),
            mig_cycles,
        }
    }

    #[test]
    fn static_random_binds_to_an_eligible_core() {
        let mut rng = SmallRng::seed_from_u64(1);
        let bound = StaticRandom.bind_on_arrival(&mut rng, &[3, 5, 9]);
        assert!(bound.is_some_and(|b| [3, 5, 9].contains(&b)));
        assert_eq!(StaticRandom.bind_on_arrival(&mut rng, &[]), None);
        assert_eq!(AffinityGreedy.bind_on_arrival(&mut rng, &[3]), None);
    }

    #[test]
    fn affinity_greedy_prices_speed_ignoring_migration() {
        let p = AffinityGreedy;
        assert!(p.cost(10.0, &cand(1, 1.0, 1e9)) < p.cost(10.0, &cand(0, 2.0, 0.0)));
    }

    #[test]
    fn migration_aware_declines_unamortizable_migrations() {
        let p = MigrationAware;
        // Staying costs 100*2.0 = 200 cycles; moving to the 1.5x-faster
        // core costs 100*1.33 + 1e9 — never worth it.
        let stay = p.cost(100.0, &cand(0, 2.0, 0.0));
        assert!(stay < p.cost(100.0, &cand(1, 1.33, 1e9)));
        // With a cheap migration the faster core wins.
        assert!(p.cost(100.0, &cand(1, 1.33, 10.0)) < stay);
    }
}
