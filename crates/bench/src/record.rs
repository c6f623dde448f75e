//! The benchmark record, flag parser and gate shared by the four gated
//! bench binaries: `bench_probe`, `bench_table`, `serve_bench` and
//! `fleet_bench`.
//!
//! Each binary parses its flags with [`Args::parse`], fills a
//! [`Record`] and hands it to [`Record::finish`], which writes the
//! `--out` file and applies the binary's rows of [`GATES`]. Baselines
//! are read with [`cisa_serve::json::parse`], the JSON reader the
//! service uses.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use cisa_serve::json::{self, Json};

use crate::results_dir;

/// Layout version of the record, written as its first field.
const SCHEMA: u64 = 1;

/// Every gate, as `(bench, key, floor, retention)`: field `key` of
/// `BENCH_<bench>.json` must be at least
/// `max(floor, retention × baseline[key])`. The floor applies on every
/// run; the baseline term only under `--check <baseline.json>`.
pub const GATES: [(&str, &str, Option<f64>, f64); 5] = [
    ("probe", "speedup", None, 0.75),
    ("table", "speedup", Some(2.0), 0.5),
    ("serve", "throughput_rps", Some(1000.0), 0.5),
    ("fleet", "migration_aware_edp_gain", Some(1.0), 0.5),
    ("fleet", "migration_aware_p99_slowdown_gain", Some(1.0), 0.5),
];

/// Applies one gate: returns whether `measured` meets the bound, and
/// the bound — `max(floor, retention × baseline)` over the terms
/// present, `-inf` when neither is. NaN never passes.
fn gate(measured: f64, floor: Option<f64>, retention: f64, base: Option<f64>) -> (bool, f64) {
    let floor = floor.unwrap_or(f64::NEG_INFINITY);
    let bound = base.map_or(floor, |b| floor.max(b * retention));
    (measured >= bound, bound)
}

/// The `--out` and `--check` flags every gated binary takes.
#[derive(Debug)]
pub struct Args {
    /// The bench's name in [`GATES`] and its file `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// Where the record is written (default `results/BENCH_<bench>.json`).
    pub out: PathBuf,
    /// Baseline whose gated fields set the retention bounds.
    pub check: Option<PathBuf>,
}

impl Args {
    /// Parses the process arguments. Every flag takes one value;
    /// flags other than `--out`/`--check` go to `extra`, which returns
    /// `Ok(false)` for a flag it does not know. An unknown flag, a
    /// missing value or a bad value exits with code 2.
    pub fn parse(
        bench: &'static str,
        extra: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> Args {
        Self::parse_from(bench, std::env::args().skip(1), extra).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    fn parse_from(
        bench: &'static str,
        args: impl IntoIterator<Item = String>,
        mut extra: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> Result<Args, String> {
        let mut out = results_dir().join(format!("BENCH_{bench}.json"));
        let mut check = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("missing value after {flag}"))?;
            match flag.as_str() {
                "--out" => out = value.into(),
                "--check" => check = Some(value.into()),
                _ if extra(&flag, &value)? => {}
                _ => return Err(format!("unknown argument: {flag}")),
            }
        }
        Ok(Args { bench, out, check })
    }
}

/// Parses one flag value, naming the flag on failure.
pub fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Reads the finite numbers in top-level fields `keys` of the baseline
/// at `path`. An unreadable file, a parse error or a missing or
/// non-numeric key is an error naming the path (and the key).
fn read_baseline(path: &Path, keys: &[&str]) -> Result<Vec<f64>, String> {
    let at = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("baseline {at}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("baseline {at}: {e}"))?;
    keys.iter()
        .map(|key| {
            let v = doc
                .get(key)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite());
            v.ok_or(format!("baseline {at}: no number in \"{key}\""))
        })
        .collect()
}

/// One flat benchmark record: ordered fields rendered one per line.
/// Each field keeps its rendered text and, if numeric, its unrounded
/// value for the gates.
#[derive(Debug, Clone)]
pub struct Record {
    fields: Vec<(String, String, Option<f64>)>,
}

impl Record {
    /// A record opening with `schema` and the worker-thread count.
    pub fn new(threads: usize) -> Record {
        let mut r = Record { fields: Vec::new() };
        r.int("schema", SCHEMA).int("threads", threads as u64);
        r
    }

    fn push(&mut self, key: &str, text: String, value: Option<f64>) -> &mut Self {
        self.fields.push((key.to_string(), text, value));
        self
    }

    /// An integer count.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.push(key, v.to_string(), Some(v as f64))
    }

    /// A number with `decimals` fractional digits.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        self.push(key, format!("{v:.decimals$}"), Some(v))
    }

    /// A duration in seconds, four fractional digits.
    pub fn secs(&mut self, key: &str, v: f64) -> &mut Self {
        self.fixed(key, v, 4)
    }

    /// A number in `{:.6e}` scientific notation.
    pub fn sci(&mut self, key: &str, v: f64) -> &mut Self {
        self.push(key, format!("{v:.6e}"), Some(v))
    }

    /// A nested object of numbers with `decimals` fractional digits.
    pub fn map(&mut self, key: &str, entries: &[(String, f64)], decimals: usize) -> &mut Self {
        let inner: Vec<String> = entries
            .iter()
            .map(|(name, v)| format!("    \"{name}\": {v:.decimals$}"))
            .collect();
        self.push(key, format!("{{\n{}\n  }}", inner.join(",\n")), None)
    }

    /// The unrounded value of top-level numeric field `key`.
    fn get(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|f| f.0 == key)?.2
    }

    /// Renders the record as JSON, one field per line.
    fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .fields
            .iter()
            .map(|(key, text, _)| format!("  \"{key}\": {text}"))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Writes the record to `path`, creating missing parent directories.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Writes the record to `args.out`, then applies the bench's
    /// [`GATES`], with baseline terms from `args.check`. Exits 1 if the
    /// write or a gate fails, and 2 if the baseline cannot be read.
    pub fn finish(&self, args: &Args) {
        let fail = |code: i32, msg: String| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(code)
        };
        if let Err(e) = self.write(&args.out) {
            fail(1, format!("write {}: {e}", args.out.display()));
        }
        println!("wrote {}", args.out.display());
        let gates: Vec<_> = GATES.iter().filter(|g| g.0 == args.bench).collect();
        let keys: Vec<&str> = gates.iter().map(|g| g.1).collect();
        let baseline = match &args.check {
            Some(path) => read_baseline(path, &keys).unwrap_or_else(|e| fail(2, e)),
            None => Vec::new(),
        };
        let mut passed = true;
        for (i, &&(_, key, floor, retention)) in gates.iter().enumerate() {
            let measured = self.get(key).unwrap_or(f64::NAN);
            let (ok, bound) = gate(measured, floor, retention, baseline.get(i).copied());
            let verdict = if ok { "ok" } else { "FAIL" };
            println!("gate {key}: measured {measured:.4}, bound {bound:.4}: {verdict}");
            passed &= ok;
        }
        if !passed {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cisa-record-{}-{name}", std::process::id()))
    }

    fn baseline_from(name: &str, text: &str, keys: &[&str]) -> Result<Vec<f64>, String> {
        let path = scratch(name);
        std::fs::write(&path, text).expect("write baseline");
        let read = read_baseline(&path, keys);
        let _ = std::fs::remove_file(&path);
        read
    }

    #[test]
    fn committed_baselines_resolve_every_gated_key() {
        let root = results_dir()
            .parent()
            .expect("workspace root")
            .to_path_buf();
        for (bench, key, _, _) in GATES {
            let path = root.join(format!("BENCH_{bench}.json"));
            let v = read_baseline(&path, &[key]).expect("committed baseline resolves");
            assert!(v[0] > 0.0, "{} {key}: {}", path.display(), v[0]);
        }
    }

    #[test]
    fn gate_passes_at_threshold_and_fails_just_below() {
        // Floor only; a baseline whose retained value beats the floor;
        // one that does not; and a gate with no floor.
        let cases = [
            (Some(2.0), None, 2.0),
            (Some(2.0), Some(6.0), 3.0),
            (Some(2.0), Some(2.0), 2.0),
            (None, Some(6.0), 3.0),
        ];
        for (floor, base, bound) in cases {
            assert_eq!(gate(bound, floor, 0.5, base), (true, bound));
            assert!(!gate(bound - 1e-9, floor, 0.5, base).0);
        }
        assert_eq!(gate(0.0, None, 0.75, None), (true, f64::NEG_INFINITY));
        assert!(!gate(f64::NAN, None, 0.75, None).0);
    }

    #[test]
    fn exponent_with_plus_sign_reads_back() {
        let text = "{\"speedup\": 1e+3, \"gain\": 8.206202e2}";
        assert_eq!(
            baseline_from("exp", text, &["speedup", "gain"]),
            Ok(vec![1000.0, 820.6202])
        );
    }

    #[test]
    fn missing_key_or_bad_file_is_an_error() {
        let text = "{\"speedup\": 2.5, \"name\": \"x\"}";
        let e =
            baseline_from("missing", text, &["speedup", "throughput_rps"]).expect_err("missing");
        assert!(
            e.contains("throughput_rps") && e.contains("cisa-record"),
            "{e}"
        );
        assert!(baseline_from("string", text, &["name"]).is_err());
        assert!(baseline_from("torn", "{\"speedup\": ", &["speedup"]).is_err());
        assert!(read_baseline(&scratch("absent"), &["speedup"]).is_err());
    }

    #[test]
    fn record_renders_in_order_and_writes_nested_paths() {
        let mut r = Record::new(2);
        r.int("phases", 49)
            .secs("wall_s", 1.5)
            .fixed("rps", 1234.56, 1)
            .sci("edp", 0.0172)
            .map(
                "per_phase_ms",
                &[("a.p0".into(), 1.0), ("b.p1".into(), 2.5)],
                3,
            );
        let want = "{\n  \"schema\": 1,\n  \"threads\": 2,\n  \"phases\": 49,\n  \
                    \"wall_s\": 1.5000,\n  \"rps\": 1234.6,\n  \"edp\": 1.720000e-2,\n  \
                    \"per_phase_ms\": {\n    \"a.p0\": 1.000,\n    \"b.p1\": 2.500\n  }\n}\n";
        assert_eq!(r.to_json(), want);
        assert_eq!(r.get("rps"), Some(1234.56));
        assert_eq!(r.get("per_phase_ms"), None);

        let dir = scratch("out");
        let path = dir.join("new/dir/x.json");
        r.write(&path).expect("nested --out path");
        assert_eq!(read_baseline(&path, &["rps"]), Ok(vec![1234.6]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn args_route_extra_flags_and_reject_unknown_ones() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let mut n = 0usize;
        let a = Args::parse_from(
            "serve",
            argv("--out o.json --n 7 --check b.json"),
            |f, v| {
                if f != "--n" {
                    return Ok(false);
                }
                n = parse_value(f, v)?;
                Ok(true)
            },
        )
        .expect("valid flags");
        assert_eq!(
            (a.out, a.check, n),
            ("o.json".into(), Some("b.json".into()), 7)
        );
        let none = |_: &str, _: &str| Ok(false);
        assert!(Args::parse_from("serve", argv("--bogus 1"), none).is_err());
        assert!(Args::parse_from("serve", argv("--out"), none).is_err());
        let bad = Args::parse_from("serve", argv("--n x"), |f, v| {
            parse_value::<usize>(f, v).map(|_| true)
        });
        assert!(bad.is_err());
        let d = Args::parse_from("probe", argv(""), none).expect("defaults");
        assert!(d.out.ends_with("results/BENCH_probe.json") && d.check.is_none());
    }
}
