//! The serve stage of the traced run: an in-process `Server` on
//! loopback over the full table, driven by an open loop from one
//! process on two keep-alive connections, one per traffic class. Every request is timed from the
//! moment it was due, so a stall counts against the requests behind it.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cisa_explore::{DesignId, DesignSpace, PerfTable, ProfileCache, ShardedProfileStore};
use cisa_serve::json::{parse, Json};
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::{all_benchmarks, all_phases, PhaseSpec};

use crate::checks::Tally;
use crate::pipeline::runner;
use crate::trace::Recorder;
use crate::util::{fresh_dir, median, percentile, supported_tail, Rng};
use crate::Out;

/// Read-class requests per second on the reads connection.
pub const READ_RPS: f64 = 250.0;
/// Compute-class requests per second on the compute connection.
pub const COMPUTE_RPS: f64 = 20.0;
/// Of every ten compute requests: one never-seen spec (refined online),
/// one analyze, eight repeats from the pool.
const COMPUTE_CYCLE: usize = 10;
/// Specs in the repeat pool (refined on first sight, then cached).
const POOL: usize = 4;
/// Refined rows recomputed through the batch path after the window.
const BATCH_SAMPLE: usize = 2;
/// A run whose generator falls this far behind its schedule gives up.
const GIVE_UP_S: f64 = 30.0;

/// What a request asks for, for checking and accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Affinity(usize),
    Designs,
    Analyze,
    Spec(usize),
}

impl Kind {
    pub fn is_read(self) -> bool {
        matches!(self, Kind::Affinity(_) | Kind::Designs)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Affinity(_) => "serve.read.affinity",
            Kind::Designs => "serve.read.designs",
            Kind::Analyze => "serve.compute.analyze",
            Kind::Spec(_) => "serve.compute.spec",
        }
    }
}

pub struct Planned {
    pub kind: Kind,
    pub method: &'static str,
    pub path: &'static str,
    pub query: String,
    pub body: String,
}

/// The seeded traffic of one window.
pub struct Plan {
    pub reads: Vec<Planned>,
    pub compute: Vec<Planned>,
    /// Inline specs: the pool first, then the never-seen ones.
    pub specs: Vec<PhaseSpec>,
}

/// The spec the service builds from `{"benchmark": b, "seed": s}`:
/// every other field defaults from the benchmark's first phase.
fn inline_spec(benchmark: &str, seed: u64) -> PhaseSpec {
    let mut spec = all_phases()
        .into_iter()
        .find(|p| p.benchmark == benchmark)
        .expect("known benchmark");
    spec.seed = seed;
    spec
}

pub fn plan(seed: u64, seconds: f64, space: &DesignSpace) -> Plan {
    let mut rng = Rng::new(seed);
    let phases = all_phases();
    let benches: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
    // Seeds below 2^52 survive the JSON number round trip exactly.
    let new_spec =
        |rng: &mut Rng| inline_spec(benches[rng.below(benches.len())], rng.next_u64() >> 12);
    let mut specs: Vec<PhaseSpec> = (0..POOL).map(|_| new_spec(&mut rng)).collect();

    let n_reads = (READ_RPS * seconds).round().max(1.0) as usize;
    let mut reads = Vec::with_capacity(n_reads);
    for i in 0..n_reads {
        if i % 10 == 9 {
            let sem = ["in_order", "ooo"][rng.below(2)];
            let query = format!(
                "sem={sem}&max_power_w={:.3}&limit={}&offset={}",
                rng.range(15.0, 40.0),
                10 + rng.below(41),
                rng.below(20)
            );
            reads.push(Planned {
                kind: Kind::Designs,
                method: "GET",
                path: "/v1/designs",
                query,
                body: String::new(),
            });
        } else {
            let pi = rng.below(phases.len());
            let objective = ["edp", "energy", "delay"][rng.below(3)];
            let body = format!(
                r#"{{"phase":"{}","objective":"{objective}","top":{},"budget":{{"power_w":{:.3},"area_mm2":{:.3}}}}}"#,
                phases[pi].name(),
                1 + rng.below(8),
                rng.range(12.0, 40.0),
                rng.range(16.0, 60.0)
            );
            reads.push(Planned {
                kind: Kind::Affinity(pi),
                method: "POST",
                path: "/v1/affinity",
                query: String::new(),
                body,
            });
        }
    }

    let n_compute = (COMPUTE_RPS * seconds).round().max(1.0) as usize;
    let mut compute = Vec::with_capacity(n_compute);
    for j in 0..n_compute {
        let planned = match j % COMPUTE_CYCLE {
            5 => {
                let body = format!(
                    r#"{{"phase":"{}","feature_set":"{}"}}"#,
                    phases[rng.below(phases.len())].name(),
                    space.feature_sets[rng.below(space.feature_sets.len())]
                );
                Planned {
                    kind: Kind::Analyze,
                    method: "POST",
                    path: "/v1/analyze",
                    query: String::new(),
                    body,
                }
            }
            k => {
                let si = if k == 0 {
                    specs.push(new_spec(&mut rng));
                    specs.len() - 1
                } else {
                    rng.below(POOL)
                };
                let body = format!(
                    r#"{{"spec":{{"benchmark":"{}","seed":{}}},"objective":"edp","top":5}}"#,
                    specs[si].benchmark, specs[si].seed
                );
                Planned {
                    kind: Kind::Spec(si),
                    method: "POST",
                    path: "/v1/affinity",
                    query: String::new(),
                    body,
                }
            }
        };
        compute.push(planned);
    }
    Plan {
        reads,
        compute,
        specs,
    }
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Sends one request and reads the whole response: (status, body).
    pub fn roundtrip(&mut self, p: &Planned) -> std::io::Result<(u16, String)> {
        let target = if p.query.is_empty() {
            p.path.to_string()
        } else {
            format!("{}?{}", p.path, p.query)
        };
        let msg = format!(
            "{} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{}",
            p.method,
            p.body.len(),
            p.body
        );
        self.stream.write_all(msg.as_bytes())?;
        let mut data = Vec::with_capacity(4096);
        let broken = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
        let (head_end, len) = loop {
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            data.extend_from_slice(&self.buf[..n]);
            if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&data[..pos]).map_err(|_| broken())?;
                let len = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(|v| v.trim().parse::<usize>())
                    })
                    .ok_or_else(broken)?
                    .map_err(|_| broken())?;
                break (pos + 4, len);
            }
        };
        while data.len() < head_end + len {
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            data.extend_from_slice(&self.buf[..n]);
        }
        let head = std::str::from_utf8(&data[..head_end]).map_err(|_| broken())?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(broken)?;
        let body =
            String::from_utf8(data[head_end..head_end + len].to_vec()).map_err(|_| broken())?;
        Ok((status, body))
    }
}

/// A running server with the state and table it answers from.
pub struct Served {
    pub server: Server,
    pub state: Arc<ServerState>,
    pub table: PerfTable,
}

/// Set-up: table load, server state, loopback server on a fresh store
/// directory, and a warm-up request on a first connection.
pub fn start(table_path: &Path, phases: &[PhaseSpec], store_dir: &Path) -> Served {
    let table = PerfTable::load(table_path).expect("load the benchmark table");
    let store = ShardedProfileStore::new(Some(ProfileCache::new(fresh_dir(store_dir))));
    let state = Arc::new(ServerState::from_table(
        DesignSpace::new(),
        &table,
        phases.to_vec(),
        store,
        ServeConfig::default(),
    ));
    let server = Server::start("127.0.0.1:0", Arc::clone(&state)).expect("bind loopback");
    let mut c = Client::connect(server.addr()).expect("connect for warm-up");
    let warm = Planned {
        kind: Kind::Designs,
        method: "GET",
        path: "/healthz",
        query: String::new(),
        body: String::new(),
    };
    let (status, _) = c.roundtrip(&warm).expect("warm-up request");
    assert_eq!(status, 200, "warm-up request failed");
    Served {
        server,
        state,
        table,
    }
}

/// Entries a ranked response reported: (fs index, ua, cycles bits, energy bits).
type Entries = Vec<(usize, usize, u64, u64)>;

fn ranked_entries(v: &Json, fs_index: &HashMap<String, usize>) -> Option<Entries> {
    let hex = |e: &Json, k: &str| {
        u64::from_str_radix(e.get(k)?.as_str()?.trim_start_matches("0x"), 16).ok()
    };
    v.get("ranked")?
        .as_arr()?
        .iter()
        .map(|e| {
            let fi = *fs_index.get(e.get("feature_set")?.as_str()?)?;
            let ua = e.get("ua_index")?.as_f64()? as usize;
            Some((
                fi,
                ua,
                hex(e, "cycles_per_unit_bits")?,
                hex(e, "energy_per_unit_bits")?,
            ))
        })
        .collect()
}

/// One answered request.
pub struct Sample {
    pub kind: Kind,
    pub latency_s: f64,
    pub late_s: f64,
    pub status: u16,
    pub source: Option<String>,
}

/// Everything a window produced.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub spec_entries: BTreeMap<usize, (String, Entries)>,
}

impl Window {
    pub fn read_latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind.is_read() && s.status == 200)
            .map(|s| s.latency_s)
            .collect()
    }

    pub fn refined_latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.source.as_deref() == Some("refined"))
            .map(|s| s.latency_s)
            .collect()
    }

    pub fn count_source(&self, source: &str) -> usize {
        self.samples
            .iter()
            .filter(|s| s.source.as_deref() == Some(source))
            .count()
    }

    pub fn count_status(&self, status: u16) -> usize {
        self.samples.iter().filter(|s| s.status == status).count()
    }
}

/// Context a connection checks its responses against.
struct Checker<'a> {
    table: &'a PerfTable,
    n_ua: usize,
    fs_index: HashMap<String, usize>,
}

fn checker(served: &Served) -> Checker<'_> {
    let space = &served.state.space;
    Checker {
        table: &served.table,
        n_ua: space.microarchs.len(),
        fs_index: space
            .feature_sets
            .iter()
            .enumerate()
            .map(|(i, fs)| (fs.to_string(), i))
            .collect(),
    }
}

/// Checks one response outside a window (the self-test).
pub fn check_one(served: &Served, p: &Planned, status: u16, body: &str, tally: &mut Tally) {
    check_response(
        &checker(served),
        tally,
        &mut BTreeMap::new(),
        p,
        status,
        body,
    );
}

/// Checks one response; records spec entries for the post-window
/// comparison. Returns the answer tier, if the response names one.
fn check_response(
    ck: &Checker,
    tally: &mut Tally,
    spec_entries: &mut BTreeMap<usize, (String, Entries)>,
    p: &Planned,
    status: u16,
    body: &str,
) -> Option<String> {
    if status != 200 {
        tally.fail(format!("{} {} answered {status}: {body}", p.method, p.path));
        return None;
    }
    let Ok(v) = parse(body) else {
        tally.fail(format!("{} {} answered malformed JSON", p.method, p.path));
        return None;
    };
    let source = v.get("source").and_then(Json::as_str).map(str::to_string);
    match p.kind {
        Kind::Affinity(pi) => {
            let entries = ranked_entries(&v, &ck.fs_index);
            let ok = source.as_deref() == Some("table")
                && entries.as_ref().is_some_and(|es| {
                    !es.is_empty()
                        && es.iter().all(|&(fi, ua, c, e)| {
                            let id = DesignId {
                                fs: fi as u16,
                                ua: ua as u16,
                            };
                            ua < ck.n_ua && {
                                let t = ck.table.get(pi, id);
                                t.cycles_per_unit.to_bits() == c && t.energy_per_unit.to_bits() == e
                            }
                        })
                });
            tally.check(ok, || {
                format!("pinned-row answer differs from the table: {body}")
            });
        }
        Kind::Designs => {
            // A page holds `min(limit, total_matched - offset)` designs.
            let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
            let page = (num("total_matched") - num("offset")).clamp(0.0, num("limit"));
            let ok = v
                .get("designs")
                .and_then(Json::as_arr)
                .is_some_and(|d| d.len() as f64 == page);
            tally.check(ok, || format!("designs page has the wrong size: {body}"));
        }
        Kind::Analyze => {
            let ok = v.get("covered") == Some(&Json::Bool(true));
            tally.check(ok, || format!("analyze answer is not covered: {body}"));
        }
        Kind::Spec(si) => {
            let tier_ok = matches!(source.as_deref(), Some("refined") | Some("cached"));
            let fingerprint = v
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            match ranked_entries(&v, &ck.fs_index) {
                Some(es) if tier_ok && !es.is_empty() => {
                    let slot = spec_entries
                        .entry(si)
                        .or_insert_with(|| (fingerprint.clone(), Vec::new()));
                    tally.check(slot.0 == fingerprint, || {
                        format!("spec {si} changed fingerprint")
                    });
                    slot.1.extend(es);
                }
                _ => tally.fail(format!(
                    "spec answer malformed or from tier {source:?}: {body}"
                )),
            }
        }
    }
    source
}

/// Drives one connection through its plan, in the open loop.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    rate: f64,
    t0: Instant,
    ck: &Checker,
    rec: &Recorder,
    conn_span: Option<usize>,
) -> (Vec<Sample>, Tally, BTreeMap<usize, (String, Entries)>) {
    let mut tally = Tally::default();
    let mut spec_entries = BTreeMap::new();
    let mut samples = Vec::with_capacity(plan.len());
    let mut client = Client::connect(addr).ok();
    let mut prev_done = t0;
    for (i, p) in plan.iter().enumerate() {
        tally.attempt(1);
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if sent.duration_since(due).as_secs_f64() > GIVE_UP_S {
            tally.fail(format!(
                "generator gave up {} requests behind schedule",
                plan.len() - i
            ));
            tally.attempt((plan.len() - i - 1) as u64);
            tally.failed += (plan.len() - i - 1) as u64;
            break;
        }
        let late_s = sent
            .saturating_duration_since(due.max(prev_done))
            .as_secs_f64();
        let result = match client.as_mut() {
            Some(c) => c.roundtrip(p),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        let done = Instant::now();
        prev_done = done;
        rec.record(p.kind.name(), conn_span, due, done);
        let (status, source) = match result {
            Ok((status, body)) => (
                status,
                check_response(ck, &mut tally, &mut spec_entries, p, status, &body),
            ),
            Err(e) => {
                tally.fail(format!("{} {}: {e}", p.method, p.path));
                client = Client::connect(addr).ok();
                (0, None)
            }
        };
        samples.push(Sample {
            kind: p.kind,
            latency_s: done.duration_since(due).as_secs_f64(),
            late_s,
            status,
            source,
        });
    }
    (samples, tally, spec_entries)
}

/// Runs one open-loop window against a served instance.
pub fn window(
    served: &Served,
    plan: &Plan,
    rec: &Recorder,
    parent: Option<usize>,
) -> (Window, Tally) {
    let ck = checker(served);
    let addr = served.server.addr();
    let t0 = Instant::now() + Duration::from_millis(20);
    let ((rs, mut tally, _), (cs, ct, spec_entries)) = std::thread::scope(|s| {
        let reads = s.spawn(|| {
            let span = rec.open("serve.conn.reads", parent);
            let r = drive(addr, &plan.reads, READ_RPS, t0, &ck, rec, span);
            rec.close(span);
            r
        });
        let compute = s.spawn(|| {
            let span = rec.open("serve.conn.compute", parent);
            let r = drive(addr, &plan.compute, COMPUTE_RPS, t0, &ck, rec, span);
            rec.close(span);
            r
        });
        (
            reads.join().expect("reads connection"),
            compute.join().expect("compute connection"),
        )
    });
    tally.attempted += ct.attempted;
    tally.failed += ct.failed;
    tally.problems.extend(ct.problems);
    let mut samples = rs;
    samples.extend(cs);
    (
        Window {
            samples,
            spec_entries,
        },
        tally,
    )
}

/// After the window: every answered spec row must equal the row the
/// server now holds for it, and a seeded sample of refined rows must
/// equal the batch path's recomputation.
pub fn check_rows(tally: &mut Tally, served: &Served, plan: &Plan, w: &Window, seed: u64) {
    let space = &served.state.space;
    let n_ua = space.microarchs.len();
    let deadline = || Instant::now() + Duration::from_secs(60);
    let mut answered: Vec<usize> = Vec::new();
    for (&si, (fingerprint, entries)) in &w.spec_entries {
        let spec = &plan.specs[si];
        tally.check(*fingerprint == spec.fingerprint(), || {
            format!("spec {si} answered for another fingerprint")
        });
        let Ok((_, row)) = served.state.row_for_spec(spec, deadline()) else {
            tally.fail(format!("spec {si} has no row after the window"));
            continue;
        };
        let ok = entries.iter().all(|&(fi, ua, c, e)| {
            ua < n_ua
                && row.perfs.get(fi * n_ua + ua).is_some_and(|p| {
                    p.cycles_per_unit.to_bits() == c && p.energy_per_unit.to_bits() == e
                })
        });
        tally.check(ok, || {
            format!("spec {si} answers differ from the server's row")
        });
        answered.push(si);
    }
    let mut rng = Rng::new(seed ^ 0xBA7C);
    for _ in 0..BATCH_SAMPLE.min(answered.len()) {
        let si = answered.swap_remove(rng.below(answered.len()));
        let spec = &plan.specs[si];
        tally.attempt(1);
        let batch =
            PerfTable::build_for_phases_with(space, std::slice::from_ref(spec), &runner(None));
        let Ok((_, row)) = served.state.row_for_spec(spec, deadline()) else {
            tally.fail(format!("spec {si} has no row for the batch comparison"));
            continue;
        };
        let same = space.ids().all(|id| {
            let (a, b) = (
                batch.get(0, id),
                row.perfs[id.fs as usize * n_ua + id.ua as usize],
            );
            a.cycles_per_unit.to_bits() == b.cycles_per_unit.to_bits()
                && a.energy_per_unit.to_bits() == b.energy_per_unit.to_bits()
        });
        tally.check(same, || {
            format!("refined row of spec {si} differs from the batch path")
        });
    }
}

/// Record lines of the traced serve stage.
pub fn summarize(out: &mut Out, w: &Window) {
    let reads = w.read_latencies();
    let refined = w.refined_latencies();
    out.note("requests", w.samples.len());
    out.note("reads", reads.len());
    out.note("serve_read_p50_ms", median(&reads) * 1e3);
    out.note("serve_read_p99_ms", percentile(&reads, 0.99) * 1e3);
    if let Some((q, v)) = supported_tail(&reads) {
        out.note(
            "serve_read_tail_ms",
            format!(
                "{} at p{:.2} of {} samples",
                v * 1e3,
                q * 100.0,
                reads.len()
            ),
        );
    }
    out.note("refined", refined.len());
    if !refined.is_empty() {
        out.note("serve_refine_p50_ms", median(&refined) * 1e3);
    }
    let late: Vec<f64> = w.samples.iter().map(|s| s.late_s).collect();
    if !late.is_empty() {
        out.note("loadgen_late_p99_ms", percentile(&late, 0.99) * 1e3);
    }
    for tier in ["table", "cached", "refined"] {
        out.note(&format!("tier_{tier}"), w.count_source(tier));
    }
    out.note("error_rate", out.tally.error_rate());
}
