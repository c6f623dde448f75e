//! Closed-loop load generator for the affinity service.
//!
//! Starts an in-process server over a table of the first
//! `--phases N` phases (default 8), then drives it with `--clients C`
//! (default 8) closed-loop keep-alive clients for `--requests N`
//! (default 20,000) total warm requests, mixing `POST /v1/affinity`
//! (known phases) with `GET /v1/designs` and `GET /healthz` in a
//! 8:1:1 ratio. Reports cold-start latency (first request, empty OS
//! caches for the connection), warm p50/p90/p99, and sustained
//! throughput, and writes `BENCH_serve.json`.
//!
//! The run fails (exit 1) if warm throughput drops below `1000 req/s`
//! or, with `--check <baseline.json>`, below 50% of the baseline's — an
//! absolute floor plus a machine-relative gate (see
//! [`cisa_bench::record::GATES`]).
//!
//! Usage: `serve_bench [--out <path>] [--check <baseline.json>]
//! [--requests N] [--clients C] [--phases P]`

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use cisa_bench::read_response;
use cisa_bench::record::{parse_value, Args, Record};
use cisa_explore::{threads, DesignSpace, PerfTable, ShardedProfileStore};
use cisa_serve::{ServeConfig, Server, ServerState};
use cisa_workloads::PhaseSpec;

/// One keep-alive connection issuing requests and timing each.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to bench server");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            stream,
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// Issues one request, returns (latency_ns, status).
    fn roundtrip(&mut self, method: &str, target: &str, body: &str) -> (u64, u16) {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let t = Instant::now();
        self.stream.write_all(head.as_bytes()).expect("write head");
        self.stream.write_all(body.as_bytes()).expect("write body");
        let status = read_response(&mut self.stream, &mut self.buf);
        (t.elapsed().as_nanos() as u64, status)
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let (mut requests, mut clients, mut n_phases) = (20_000usize, 8usize, 8usize);
    let args = Args::parse("serve", |flag, value| {
        match flag {
            "--requests" => requests = parse_value(flag, value)?,
            "--clients" => clients = parse_value(flag, value)?,
            "--phases" => n_phases = parse_value(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    });
    let space = DesignSpace::new();
    let phases: Vec<PhaseSpec> = cisa_workloads::all_phases()
        .into_iter()
        .take(n_phases)
        .collect();
    println!(
        "serve_bench: building table for {} phases x {} designs",
        phases.len(),
        space.len()
    );
    let table = PerfTable::build_for_phases(&space, &phases);
    let state = Arc::new(ServerState::from_table(
        DesignSpace::new(),
        &table,
        phases.clone(),
        ShardedProfileStore::new(None),
        ServeConfig::default(),
    ));
    let server = Server::start("127.0.0.1:0", state).expect("bind loopback");
    let addr = server.addr();

    // Cold latency: the very first request the server ever sees.
    let mut cold_client = Client::connect(addr);
    let body0 = format!(r#"{{"phase":"{}"}}"#, phases[0].name());
    let (cold_ns, status) = cold_client.roundtrip("POST", "/v1/affinity", &body0);
    assert_eq!(status, 200, "cold request must succeed");
    drop(cold_client);

    // Warmup: touch every phase once per client-to-be.
    {
        let mut c = Client::connect(addr);
        for spec in &phases {
            let body = format!(r#"{{"phase":"{}"}}"#, spec.name());
            let (_, status) = c.roundtrip("POST", "/v1/affinity", &body);
            assert_eq!(status, 200);
        }
    }

    // Closed-loop measurement: `clients` threads, keep-alive, each
    // issuing its share of the request mix.
    let per_client = requests / clients;
    let bodies: Vec<String> = phases
        .iter()
        .map(|s| format!(r#"{{"phase":"{}","top":5}}"#, s.name()))
        .collect();
    let started = Instant::now();
    let mut all_lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|ci| {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut lat = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        // 8:1:1 mix of affinity : designs : healthz.
                        let (ns, status) = match i % 10 {
                            8 => c.roundtrip("GET", "/v1/designs?sem=ooo&limit=20", ""),
                            9 => c.roundtrip("GET", "/healthz", ""),
                            _ => {
                                let b = &bodies[(ci + i) % bodies.len()];
                                c.roundtrip("POST", "/v1/affinity", b)
                            }
                        };
                        assert_eq!(status, 200, "warm request {i} on client {ci}");
                        lat.push(ns);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let total: usize = all_lat.iter().map(Vec::len).sum();
    let throughput = total as f64 / wall_s;

    let mut lat: Vec<u64> = all_lat.drain(..).flatten().collect();
    lat.sort_unstable();
    let p50 = percentile(&lat, 0.50);
    let p90 = percentile(&lat, 0.90);
    let p99 = percentile(&lat, 0.99);
    println!(
        "warm: {total} requests, {wall_s:.2}s wall, {throughput:.0} req/s; \
         p50 {:.1}us p90 {:.1}us p99 {:.1}us; cold {:.2}ms",
        p50 as f64 / 1e3,
        p90 as f64 / 1e3,
        p99 as f64 / 1e3,
        cold_ns as f64 / 1e6,
    );

    Record::new(threads())
        .int("phases", phases.len() as u64)
        .int("clients", clients as u64)
        .int("requests", total as u64)
        .secs("wall_s", wall_s)
        .fixed("throughput_rps", throughput, 1)
        .fixed("cold_first_request_ms", cold_ns as f64 / 1e6, 3)
        .fixed("warm_p50_us", p50 as f64 / 1e3, 1)
        .fixed("warm_p90_us", p90 as f64 / 1e3, 1)
        .fixed("warm_p99_us", p99 as f64 / 1e3, 1)
        .finish(&args);
}
