//! Per-policy fleet metrics and the deterministic JSON report.
//!
//! One [`PolicyReport`] summarizes one full fleet run under one
//! policy; a [`FleetReport`] bundles the per-policy reports with the
//! run configuration and the headline policy-vs-baseline gains.
//! `FleetReport::to_json` renders flat JSON with a fixed field order
//! and fixed float formatting, so a committed `BENCH_fleet.json` is
//! reproducible byte-for-byte and `fleet_bench --check` can gate on
//! its fields.

use std::fmt;

/// Metrics of one full fleet run under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// Policy name ([`crate::SchedulerPolicy::name`]).
    pub policy: String,
    /// Threads that arrived (equals `completed`: runs drain).
    pub arrivals: u64,
    /// Threads that ran to completion.
    pub completed: u64,
    /// Total work units executed.
    pub total_work: f64,
    /// Fleet makespan in cycles (last event across all shards).
    pub makespan_cycles: f64,
    /// Sustained throughput in work units per second.
    pub throughput_units_per_s: f64,
    /// Total energy (J), including idle and migration energy.
    pub energy_j: f64,
    /// Energy per unit of work (J).
    pub energy_per_unit_j: f64,
    /// Mean thread response time (arrival to completion) in seconds.
    pub mean_response_s: f64,
    /// The fleet EDP: energy per unit x mean response time (J*s).
    /// Lower is better; the scale every policy is compared on.
    pub edp: f64,
    /// Median per-thread slowdown vs the unloaded best fleet core.
    pub p50_slowdown: f64,
    /// 99th-percentile per-thread slowdown (the tail the
    /// migration-aware policy is designed to protect).
    pub p99_slowdown: f64,
    /// Worst per-thread slowdown.
    pub max_slowdown: f64,
    /// Migrations taken, by class in [`cisa_migrate::MigrationClass::ALL`]
    /// order: native, transforming, state-transforming.
    pub migrations: [u64; 3],
    /// Total migrations taken.
    pub migrations_total: u64,
    /// Idle-core placements declined because the chip cap had no
    /// headroom for the core's peak power.
    pub cap_blocked: u64,
    /// Max over chips of (peak observed active power / cap): `<= 1.0`
    /// in any correct run.
    pub max_cap_utilization: f64,
}

/// A full `fleet_bench` result: configuration echo plus one
/// [`PolicyReport`] per policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Chips simulated.
    pub n_chips: u64,
    /// Thread-lifetimes served per policy.
    pub n_threads: u64,
    /// Deterministic shard count.
    pub n_shards: u64,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Migration-matrix entries per class (native, transforming,
    /// state-transforming) — how the static refinement priced the
    /// design space.
    pub matrix_classes: [u64; 3],
    /// One report per policy, in run order.
    pub policies: Vec<PolicyReport>,
}

impl FleetReport {
    /// The report of a named policy, if it ran.
    pub fn policy(&self, name: &str) -> Option<&PolicyReport> {
        self.policies.iter().find(|p| p.policy == name)
    }

    /// The report's flat fields in their stable order. Per-policy
    /// fields are prefixed with the policy name (`static_random_edp`),
    /// and the headline gains of every policy over the first (baseline)
    /// policy are included (`migration_aware_edp_gain`).
    pub fn fields(&self) -> Vec<(String, ReportValue)> {
        use ReportValue::{Count, Sci};
        let mut f: Vec<(String, ReportValue)> = vec![
            ("n_chips".into(), Count(self.n_chips)),
            ("n_threads".into(), Count(self.n_threads)),
            ("n_shards".into(), Count(self.n_shards)),
            ("seed".into(), Count(self.seed)),
            ("matrix_native".into(), Count(self.matrix_classes[0])),
            ("matrix_transforming".into(), Count(self.matrix_classes[1])),
            (
                "matrix_state_transforming".into(),
                Count(self.matrix_classes[2]),
            ),
        ];
        for p in &self.policies {
            let k = p.policy.replace('-', "_");
            let mut push = |name: &str, v: ReportValue| f.push((format!("{k}_{name}"), v));
            push("completed", Count(p.completed));
            push("throughput_units_per_s", Sci(p.throughput_units_per_s));
            push("energy_per_unit_j", Sci(p.energy_per_unit_j));
            push("mean_response_s", Sci(p.mean_response_s));
            push("edp", Sci(p.edp));
            push("p50_slowdown", Sci(p.p50_slowdown));
            push("p99_slowdown", Sci(p.p99_slowdown));
            push("max_slowdown", Sci(p.max_slowdown));
            push("migrations", Count(p.migrations_total));
            push("migrations_native", Count(p.migrations[0]));
            push("migrations_transforming", Count(p.migrations[1]));
            push("migrations_state_transforming", Count(p.migrations[2]));
            push("cap_blocked", Count(p.cap_blocked));
            push("max_cap_utilization", Sci(p.max_cap_utilization));
        }
        if let Some(base) = self.policies.first() {
            for p in self.policies.iter().skip(1) {
                let k = p.policy.replace('-', "_");
                let mut push = |name: &str, v: f64| f.push((format!("{k}_{name}"), Sci(v)));
                push("edp_gain", base.edp / p.edp);
                push("p99_slowdown_gain", base.p99_slowdown / p.p99_slowdown);
                push(
                    "throughput_gain",
                    p.throughput_units_per_s / base.throughput_units_per_s,
                );
            }
        }
        f
    }

    /// Renders [`FleetReport::fields`] as flat JSON, one field per
    /// line, with fixed float formatting.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .fields()
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

/// One value of the flat report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportValue {
    /// An exact count, rendered as a plain integer.
    Count(u64),
    /// A measurement, rendered in `{:.6e}` scientific notation.
    Sci(f64),
}

impl fmt::Display for ReportValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportValue::Count(n) => write!(f, "{n}"),
            ReportValue::Sci(x) => write!(f, "{x:.6e}"),
        }
    }
}

/// Exact percentile of a **sorted** slowdown slice (nearest-rank).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn json_is_flat_and_balanced() {
        let p = PolicyReport {
            policy: "static-random".into(),
            arrivals: 10,
            completed: 10,
            total_work: 100.0,
            makespan_cycles: 1e6,
            throughput_units_per_s: 1.0,
            energy_j: 2.0,
            energy_per_unit_j: 0.02,
            mean_response_s: 0.5,
            edp: 0.01,
            p50_slowdown: 1.5,
            p99_slowdown: 3.0,
            max_slowdown: 4.0,
            migrations: [1, 2, 3],
            migrations_total: 6,
            cap_blocked: 0,
            max_cap_utilization: 0.9,
        };
        let mut ma = p.clone();
        ma.policy = "migration-aware".into();
        ma.edp = 0.005;
        let r = FleetReport {
            n_chips: 4,
            n_threads: 10,
            n_shards: 2,
            seed: 1,
            matrix_classes: [10, 5, 2],
            policies: vec![p, ma],
        };
        let json = r.to_json();
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(!json.contains(",\n}"), "no trailing comma");
        assert!(json.contains("\"migration_aware_edp_gain\": 2.0"));
        assert!(json.contains("\"static_random_edp\""));
        assert_eq!(r.policy("migration-aware").map(|p| p.edp), Some(0.005));
    }
}
