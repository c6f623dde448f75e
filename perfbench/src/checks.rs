//! Output checks: table digests, the recorded expectations under
//! `perfbench/expected`, and the tally that becomes `attempted`,
//! `failed` and `correct` in the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;

use cisa_explore::{DesignSpace, PerfTable};
use cisa_fleet::FleetSpec;
use cisa_isa::VendorIsa;

use crate::util::Digest;

/// Attempted and failed operations of one run, plus the reason for every
/// failed check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Checks one condition; a false one counts as a failed operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Every table entry as `(cycles bits, energy bits)`: composite entries
/// in `[phase][fs][ua]` order, then vendor entries `[phase][vendor][ua]`.
pub fn table_bits(table: &PerfTable, space: &DesignSpace) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(table.n_phases * (table.n_fs + 3) * table.n_ua);
    for pi in 0..table.n_phases {
        for id in space.ids() {
            let e = table.get(pi, id);
            out.push((e.cycles_per_unit.to_bits(), e.energy_per_unit.to_bits()));
        }
    }
    for pi in 0..table.n_phases {
        for v in VendorIsa::ALL {
            for ua in 0..table.n_ua {
                let e = table.vendor(pi, v, ua);
                out.push((e.cycles_per_unit.to_bits(), e.energy_per_unit.to_bits()));
            }
        }
    }
    out
}

pub fn bits_digest(bits: &[(u64, u64)]) -> String {
    let mut d = Digest::new();
    for &(c, e) in bits {
        d.u64(c);
        d.u64(e);
    }
    d.hex()
}

/// Entries that are not finite and positive (a failed or zeroed cell).
pub fn bad_entries(bits: &[(u64, u64)]) -> usize {
    bits.iter()
        .filter(|&&(c, e)| {
            let (c, e) = (f64::from_bits(c), f64::from_bits(e));
            !(c.is_finite() && c > 0.0 && e.is_finite() && e > 0.0)
        })
        .count()
}

/// Index of the first entry where two tables differ.
pub fn first_difference(a: &[(u64, u64)], b: &[(u64, u64)]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// Digest of the chip roster: designs, caps and core design points.
pub fn chips_digest(spec: &FleetSpec) -> String {
    let mut d = Digest::new();
    for c in &spec.chip_designs {
        d.str(&c.label);
        for core in c.cores {
            d.u64(u64::from(core));
        }
        d.u64(c.cap_w.to_bits());
    }
    for core in &spec.core_designs {
        d.u64(u64::from(core.id.fs));
        d.u64(u64::from(core.id.ua));
        d.u64(core.peak_w.to_bits());
    }
    d.u64(spec.chips.len() as u64);
    d.hex()
}

/// Path of a recorded expectation file.
pub fn expected_path(name: &str) -> PathBuf {
    PathBuf::from("perfbench").join("expected").join(name)
}

/// Reads a `key = value` expectation file; a missing file reads as
/// empty, so every recorded value it should hold fails its check.
pub fn read_expected(name: &str) -> BTreeMap<String, String> {
    std::fs::read_to_string(expected_path(name))
        .map(|text| parse_pairs(&text))
        .unwrap_or_default()
}

/// Parses `key = value` lines, skipping blanks and `#` comments.
pub fn parse_pairs(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// Writes a `key = value` expectation file (used by `--record`).
pub fn write_expected(name: &str, header: &str, pairs: &BTreeMap<String, String>) {
    let mut text = format!("# {header}\n");
    for (k, v) in pairs {
        text.push_str(&format!("{k} = {v}\n"));
    }
    let path = expected_path(name);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("recorded {}", path.display());
}

/// Compares measured pairs against expected ones; every mismatching or
/// missing key is one failed check.
pub fn compare_pairs(
    tally: &mut Tally,
    what: &str,
    expected: &BTreeMap<String, String>,
    measured: &BTreeMap<String, String>,
) {
    tally.check(!expected.is_empty(), || {
        format!("{what}: no recorded values")
    });
    for (k, want) in expected {
        match measured.get(k) {
            Some(got) if got == want => {}
            Some(got) => tally.fail(format!("{what}: {k} = {got}, recorded {want}")),
            None => tally.fail(format!("{what}: {k} missing, recorded {want}")),
        }
    }
}

/// Flattens `FleetReport::to_json` output (one `"key": value` per line)
/// into pairs.
pub fn flat_json_pairs(json: &str) -> BTreeMap<String, String> {
    json.lines()
        .filter_map(|l| {
            let l = l.trim().trim_end_matches(',');
            let (k, v) = l.split_once(':')?;
            Some((k.trim().trim_matches('"').to_string(), v.trim().to_string()))
        })
        .collect()
}
