//! The engine's placement search, on hand-built one- and three-chip
//! fleets.
//!
//! A policy only prices one core; the engine owns the rest. These
//! tests drive `simulate_shard` with scripted policies to pin the three
//! rules the engine applies around the prices:
//!
//! - a thread bound at arrival is offered only its bound core, and
//!   waits for it while other cores sit idle;
//! - every idle core whose chip lacks headroom for it counts one
//!   `cap_blocked`, whether the thread is bound or not;
//! - equal prices go to the lowest core index.

use std::sync::Mutex;

use cisa_explore::{DesignId, PhasePerf};
use cisa_fleet::policy::Candidate;
use cisa_fleet::{
    simulate_shard, ChipDesign, CoreDesign, FleetConfig, FleetSpec, MigrationMatrix,
    SchedulerPolicy, ShardStats,
};
use cisa_isa::FeatureSet;
use rand::rngs::SmallRng;

/// One 4-core chip with a 5 W peak per core under `cap_w`. Core `i`
/// implements feature set `i` and runs the single phase at `cpus[i]`
/// cycles per unit.
fn one_chip(cpus: [f64; 4], cap_w: f64) -> FleetSpec {
    let core_designs = (0..4u16)
        .map(|i| CoreDesign {
            id: DesignId { fs: i, ua: 0 },
            peak_w: 5.0,
            perf: vec![PhasePerf {
                cycles_per_unit: cpus[i as usize],
                energy_per_unit: 1e-9,
            }],
        })
        .collect();
    FleetSpec {
        core_designs,
        chip_designs: vec![ChipDesign {
            label: "tiny".to_string(),
            cores: [0, 1, 2, 3],
            cap_w,
        }],
        chips: vec![0],
        n_phases: 1,
    }
}

/// A policy that optionally pins every thread to the first eligible
/// core, prices each core with `price`, and records every core it was
/// asked to price.
struct Scripted {
    pin_first: bool,
    price: fn(&Candidate) -> f64,
    offered: Mutex<Vec<u32>>,
}

impl Scripted {
    fn new(pin_first: bool, price: fn(&Candidate) -> f64) -> Self {
        Scripted {
            pin_first,
            price,
            offered: Mutex::new(Vec::new()),
        }
    }

    fn offered(&self) -> Vec<u32> {
        self.offered.lock().expect("not poisoned").clone()
    }
}

impl SchedulerPolicy for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn bind_on_arrival(&self, _rng: &mut SmallRng, eligible: &[u32]) -> Option<u32> {
        self.pin_first.then(|| eligible[0])
    }

    fn cost(&self, _remaining_work: f64, c: &Candidate) -> f64 {
        self.offered.lock().expect("not poisoned").push(c.core);
        (self.price)(c)
    }
}

fn flat(_: &Candidate) -> f64 {
    0.0
}

fn lowest_index(c: &Candidate) -> f64 {
    c.core as f64
}

fn highest_index(c: &Candidate) -> f64 {
    -(c.core as f64)
}

fn run(spec: &FleetSpec, policy: &Scripted) -> ShardStats {
    let mm = MigrationMatrix::conservative(spec.n_phases, &FeatureSet::all());
    let cfg = FleetConfig {
        n_threads: 300,
        n_shards: 1,
        ..Default::default()
    };
    let s = simulate_shard(spec, &mm, policy, &cfg, 0, 1);
    assert_eq!(s.completed, cfg.n_threads, "the shard drains");
    s
}

#[test]
fn a_bound_thread_waits_for_its_core_while_others_idle() {
    // Every core fits under the cap, so only binding keeps a thread
    // off cores 1..3.
    let spec = one_chip([1.0; 4], 20.0);
    let pinned = Scripted::new(true, flat);
    let s = run(&spec, &pinned);
    let offered = pinned.offered();
    assert!(!offered.is_empty());
    assert!(
        offered.iter().all(|&c| c == 0),
        "a bound thread is offered only its bound core"
    );
    // Nothing ever ran on cores 1..3, and threads queued behind core 0:
    // responses exceed the service they received.
    assert!(
        s.response_cycles > 1.5 * s.service_scheduled,
        "bound threads must wait: response {} vs service {}",
        s.response_cycles,
        s.service_scheduled
    );
}

#[test]
fn cap_blocked_counts_every_idle_core_without_headroom() {
    // The cap fits one core at a time: while one runs, the other three
    // idle cores are each blocked on every look.
    let spec = one_chip([1.0; 4], 5.0);
    let bound = run(&spec, &Scripted::new(true, flat));
    // Unbound, the lowest-index price sends every segment to core 0 as
    // well, so both runs see the same schedule.
    let unbound = run(&spec, &Scripted::new(false, lowest_index));
    assert!(bound.cap_blocked > 0);
    assert_eq!(bound.cap_blocked % 3, 0, "three blocked cores per look");
    assert_eq!(bound, unbound, "bound and unbound threads count alike");
}

#[test]
fn cap_blocked_sums_blocked_idle_cores_over_every_chip() {
    // Three chips of four 5 W cores: chip 0 fits one core at a time,
    // chips 1 and 2 fit none even alone. Only core 0 ever runs, so
    // every look counts chips 1 and 2's eight cores, plus chip 0's
    // other three while core 0 is busy.
    let one = one_chip([1.0; 4], 5.0);
    let mut spec = one.clone();
    spec.chip_designs = [5.0, 4.0, 2.5]
        .iter()
        .map(|&cap_w| ChipDesign {
            cap_w,
            ..one.chip_designs[0].clone()
        })
        .collect();
    spec.chips = vec![0, 1, 2];
    let bound = run(&spec, &Scripted::new(true, flat));
    let unbound = run(&spec, &Scripted::new(false, lowest_index));
    assert_eq!(bound, unbound, "bound and unbound threads count alike");
    // The lone chip at the same load runs the same schedule and counts
    // only chip 0's three; the other two chips add eight per look.
    let alone = run(&one, &Scripted::new(true, flat));
    assert_eq!(
        alone.response_cycles, bound.response_cycles,
        "same schedule"
    );
    assert!(bound.cap_blocked > alone.cap_blocked);
    assert_eq!(
        (bound.cap_blocked - alone.cap_blocked) % 8,
        0,
        "eight cores blocked alone per look"
    );
}

#[test]
fn equal_costs_go_to_the_lowest_core_index() {
    // Distinct speeds, so which core wins shows in the stats.
    let spec = one_chip([4.0, 1.0, 2.0, 3.0], 20.0);
    let ties = run(&spec, &Scripted::new(false, flat));
    let lowest = run(&spec, &Scripted::new(false, lowest_index));
    let highest = run(&spec, &Scripted::new(false, highest_index));
    assert_eq!(ties, lowest);
    assert_ne!(ties, highest, "the tie-break is observable here");
}
