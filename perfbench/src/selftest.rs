//! Self-test of the output checks: one flipped table bit, one altered
//! fleet report field and one corrupted serve response must each raise
//! the error rate that the same check gives the true output.

use cisa_explore::{DesignSpace, PerfTable};
use cisa_fleet::simulate_fleet;
use cisa_workloads::all_phases;

use crate::checks::{compare_pairs, flat_json_pairs, read_expected, Tally};
use crate::fleet::{report_json, set_up, POLICIES};
use crate::pipeline::{check_table_digest, default_table, fleet_config, runner};
use crate::serve::{check_one, start, Client, Kind, Planned};
use crate::util::{work_dir, DEFAULT_SEED};

/// Runs `check` on the true output and on the corrupted one; passes when
/// only the corrupted one fails.
fn case(name: &str, check: impl Fn(bool, &mut Tally)) -> bool {
    let (mut clean, mut bad) = (Tally::default(), Tally::default());
    clean.attempt(1);
    bad.attempt(1);
    check(false, &mut clean);
    check(true, &mut bad);
    let ok = clean.failed == 0 && bad.error_rate() > clean.error_rate();
    println!(
        "self-test {name}: error_rate {} true output, {} corrupted -> {}",
        clean.error_rate(),
        bad.error_rate(),
        if ok { "ok" } else { "FAILED" }
    );
    for p in clean.problems.iter().chain(&bad.problems) {
        println!("  {p}");
    }
    ok
}

pub fn run() -> i32 {
    let mut prep = Tally::default();
    let table_path = default_table(&mut prep);
    let space = DesignSpace::new();

    let table_ok = case("flipped table bit", |corrupt, tally| {
        let path = work_dir().join("selftest").join("perf_table.bin");
        std::fs::create_dir_all(path.parent().expect("dir")).expect("create self-test dir");
        let mut bytes = std::fs::read(&table_path).expect("read table file");
        if corrupt {
            // Lowest mantissa bit of the last entry's energy.
            let last = bytes.len() - 8;
            bytes[last] ^= 1;
        }
        std::fs::write(&path, &bytes).expect("write table copy");
        let table = PerfTable::load(&path).expect("a flipped bit still loads");
        check_table_digest(tally, &table, &space);
    });

    let runner = runner(None);
    let fleet = set_up(&table_path, &runner);
    let cfg = fleet_config(DEFAULT_SEED);
    let reports: Vec<_> = POLICIES
        .iter()
        .map(|p| simulate_fleet(&fleet.spec, &fleet.mm, *p, &cfg, &runner))
        .collect();
    let fleet_ok = case("altered fleet field", |corrupt, tally| {
        let mut reports = reports.clone();
        if corrupt {
            reports[1].cap_blocked += 1;
        }
        let measured = flat_json_pairs(&report_json(&fleet, &cfg, reports));
        compare_pairs(
            tally,
            "fleet report",
            &read_expected("fleet.txt"),
            &measured,
        );
    });

    let mut served = start(
        &table_path,
        &all_phases(),
        &work_dir().join("selftest").join("store"),
    );
    let phase = all_phases()[7].name();
    let request = Planned {
        kind: Kind::Affinity(7),
        method: "POST",
        path: "/v1/affinity",
        query: String::new(),
        body: format!(r#"{{"phase":"{phase}","top":3}}"#),
    };
    let mut client = Client::connect(served.server.addr()).expect("connect");
    let (status, body) = client.roundtrip(&request).expect("affinity request");
    let serve_ok = case("corrupted serve response", |corrupt, tally| {
        let mut body = body.clone();
        if corrupt {
            // Change the last hex digit of the first cycles bit pattern.
            let key = "\"cycles_per_unit_bits\":\"";
            let at = body.find(key).expect("bits field") + key.len() + 17;
            let digit = if &body[at..=at] == "0" { "1" } else { "0" };
            body.replace_range(at..=at, digit);
        }
        check_one(&served, &request, status, &body, tally);
    });
    served.server.shutdown();

    println!("self-test prerequisites: {} failed checks", prep.failed);
    if table_ok && fleet_ok && serve_ok && prep.failed == 0 {
        println!("self-test: every corruption raised error_rate");
        0
    } else {
        println!("self-test: FAILED");
        1
    }
}
