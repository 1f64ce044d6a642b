//! `serve-mix`: an in-process `vpsim_serve` server (`nproc` workers, a
//! fresh store directory per round) under a closed loop of `nproc` client
//! connections. Each client waits for `DONE` before sending its next
//! submission, as `sweep --remote` does.
//!
//! Set-up primes the store and restarts the server, clearing the
//! process-wide trace cache, so trace lookups reach the on-disk store. The
//! measured mix, in a seeded order, has three classes:
//!
//! * `hot` (14 of 24, 58 %): exact resubmissions of primed scenarios — every
//!   cell is a result-cache hit and nothing is simulated;
//! * `warm` (6, 25 %): primed workloads at grid points not yet run — mapped
//!   trace-store hits, replay, and result saves;
//! * `cold` (4, 17 %): workloads the store has never seen — capture, trace
//!   save, replay and result saves.
//!
//! With those shares the median falls inside `hot` and the 90th percentile
//! inside `cold`, each at least seven points from a class boundary. Every
//! workload pair takes part in every round, primed or cold, so each round
//! builds and captures the same programs whatever the seed; the seed picks
//! the roles and the order. Cold work is a new simulation seed, as a user
//! sweeping seeds would submit. Each warm or cold submission touches a workload
//! no other warm or cold submission of the round touches, so the store's
//! hit and miss counts do not depend on how the clients interleave.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vpsim_bench::protocol::{self, render_output, Format, View};
use vpsim_bench::scenario::Scenario;
use vpsim_bench::store::{cell_key, hex, sha256, ResultCache, Stores, TraceStore};
use vpsim_bench::sweep::GridPoint;
use vpsim_bench::TraceCache;
use vpsim_isa::Trace;
use vpsim_serve::{start, ServerConfig, ServerHandle};

use crate::reference::Reference;
use crate::spans::{self, Tracer};
use crate::{host, stats, Metrics, Round};

/// Host seconds one round (priming, restart and 24 submissions) takes on
/// the reference host (2 CPUs); sizes the round count of a run to
/// `--seconds`.
pub const NOMINAL_ROUND_S: f64 = 0.9;

/// Set-up samples per run (each round gives one; set-up takes about 0.2 s).
pub const MIN_SETUPS: usize = 15;

/// Workload × simulation seed pairs a round draws from: one workload under
/// twelve seeds, so that every pair costs about the same and the roles the
/// seed deals out do not change how much work a round does.
const PAIRS: [(&str, u64); 12] = [
    ("gzip", 0x5e01),
    ("gzip", 0x5e02),
    ("gzip", 0x5e03),
    ("gzip", 0x5e04),
    ("gzip", 0x5e05),
    ("gzip", 0x5e06),
    ("gzip", 0x5e07),
    ("gzip", 0x5e08),
    ("gzip", 0x5e09),
    ("gzip", 0x5e0a),
    ("gzip", 0x5e0b),
    ("gzip", 0x5e0c),
];
/// Pairs primed in set-up; the rest of [`PAIRS`] arrive cold.
const PRIMED: usize = 8;
/// Primed pairs that also get a warm submission.
const WARM: usize = 6;
const HOT: usize = 14;
/// Grid points of a pair's primed (and cold) scenario, and of its warm one.
const PRIMED_POINTS: [&str; 1] = ["vtage/fpc/squash"];
const WARM_POINTS: [&str; 2] = ["lvp/fpc/squash", "2dstride/fpc/reissue"];
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 20_000;

/// Busy refusals are retried this often before the submission fails.
const BUSY_ATTEMPTS: u32 = 6;

/// Name of the span a client records around each exchange.
const EXCHANGE_SPAN: &str = "serve.exchange";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Warm,
    Cold,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Warm => "warm",
            Class::Cold => "cold",
        }
    }
}

fn scenario(pair: usize, points: &[&str]) -> Scenario {
    let (bench, seed) = PAIRS[pair];
    let points: Vec<GridPoint> =
        points.iter().map(|p| p.parse().expect("catalog grid points parse")).collect();
    Scenario::builder()
        .warmup(WARMUP)
        .measure(MEASURE)
        .seed(seed)
        .points(points)
        .benchmarks(&[bench])
        .build()
        .expect("catalog scenarios are valid")
}

/// Every scenario a round can submit: each pair's primed and warm grid.
pub fn catalog() -> Vec<Scenario> {
    (0..PAIRS.len())
        .flat_map(|p| [scenario(p, &PRIMED_POINTS), scenario(p, &WARM_POINTS)])
        .collect()
}

/// One submission of the mix.
struct Submission {
    class: Class,
    pair: usize,
    text: String,
    hash: String,
}

impl Submission {
    fn new(class: Class, pair: usize) -> Submission {
        let points: &[&str] = if class == Class::Warm { &WARM_POINTS } else { &PRIMED_POINTS };
        let sc = scenario(pair, points);
        Submission { class, pair, text: sc.to_string(), hash: sc.cache_hash() }
    }
}

/// The seeded traffic of one run: which pairs are primed and which cold,
/// and the order of the measured submissions.
pub struct Mix {
    clients: usize,
    primed: Vec<Submission>,
    measured: Vec<Submission>,
}

/// splitmix64: the harness's seeded generator.
fn next_random(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (next_random(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

impl Mix {
    pub fn new(seed: u64, clients: usize) -> Mix {
        let mut state = seed;
        let mut pairs: Vec<usize> = (0..PAIRS.len()).collect();
        shuffle(&mut pairs, &mut state);
        let (primed, rest) = pairs.split_at(PRIMED);
        let mut measured: Vec<Submission> = Vec::new();
        measured.extend((0..HOT).map(|i| Submission::new(Class::Hot, primed[i % PRIMED])));
        measured.extend(primed[..WARM].iter().map(|&p| Submission::new(Class::Warm, p)));
        measured.extend(rest.iter().map(|&p| Submission::new(Class::Cold, p)));
        shuffle(&mut measured, &mut state);
        Mix {
            clients,
            primed: primed.iter().map(|&p| Submission::new(Class::Hot, p)).collect(),
            measured,
        }
    }

    /// Measured submissions per round.
    pub fn submissions(&self) -> usize {
        self.measured.len()
    }

    pub fn describe(&self) -> String {
        let name = |s: &Submission| format!("{}@{:#x}", PAIRS[s.pair].0, PAIRS[s.pair].1);
        let primed: Vec<String> = self.primed.iter().map(name).collect();
        let order: Vec<String> =
            self.measured.iter().map(|s| format!("{}:{}", s.class.name(), name(s))).collect();
        format!(
            "{} clients, closed loop; primed {}; measured order {}",
            self.clients,
            primed.join(","),
            order.join(" ")
        )
    }
}

/// Key=value fields of a `STATS` line.
#[derive(Debug, Default, Clone, Copy)]
struct ServerStats {
    result_cache_hits: u64,
    cells_simulated: u64,
    queue_wait_ms: f64,
    wall_ms: f64,
}

fn parse_stats(line: &str) -> ServerStats {
    let mut s = ServerStats::default();
    for field in line.split_whitespace().skip(1) {
        let Some((key, value)) = field.split_once('=') else { continue };
        let value: f64 = value.parse().unwrap_or(0.0);
        match key {
            "result_cache_hits" => s.result_cache_hits = value as u64,
            "cells_simulated" => s.cells_simulated = value as u64,
            "queue_wait_ms" => s.queue_wait_ms = value,
            "wall_ms" => s.wall_ms = value,
            _ => {}
        }
    }
    s
}

/// One finished exchange, timed on the client.
struct Exchange {
    index: usize,
    class: Class,
    latency_ms: f64,
    admit_ms: f64,
    stream_ms: f64,
    cells: u64,
    stats: ServerStats,
    bytes: usize,
    digest: String,
    digest_ok: bool,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut client = Client { reader, writer };
        // A round trip proves the server's handler thread is running, so
        // the first timed submission does not wait for the accept loop.
        client.send(&format!("{}\n", protocol::PING))?;
        match client.line()?.as_str() {
            protocol::PONG => Ok(client),
            other => Err(format!("expected PONG, got {other}")),
        }
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer.write_all(text.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Submit one scenario and read its reply through `DONE`.
    fn submit(
        &mut self,
        index: usize,
        sub: &Submission,
        reference: &Reference,
    ) -> Result<Exchange, String> {
        let request = format!(
            "{}\n{}{}\n",
            protocol::submit_line(View::Long, Format::Ascii),
            sub.text,
            protocol::END_MARKER
        );
        let start = Instant::now();
        let mut attempts = 0;
        let (ok_at, cells) = loop {
            attempts += 1;
            self.send(&request)?;
            let reply = self.line()?;
            if let Some(n) = reply.strip_prefix("OK ") {
                break (start.elapsed(), n.parse::<u64>().map_err(|_| format!("bad {reply}"))?);
            }
            match protocol::parse_retry_after(&reply) {
                Some(ms) if attempts < BUSY_ATTEMPTS => {
                    std::thread::sleep(Duration::from_millis(ms))
                }
                _ => return Err(reply),
            }
        };
        let mut bytes = request.len() + format!("OK {cells}\n").len();
        let table = loop {
            let line = self.line()?;
            bytes += line.len() + 1;
            if let Some(n) = line.strip_prefix("TABLE ") {
                let n: usize = n.parse().map_err(|_| format!("bad {line}"))?;
                let mut table = vec![0u8; n];
                self.reader.read_exact(&mut table).map_err(|e| format!("receive: {e}"))?;
                bytes += n;
                break table;
            }
            if line.starts_with("ERR") {
                return Err(line);
            }
        };
        let stats_line = self.line()?;
        let done = self.line()?;
        bytes += stats_line.len() + done.len() + 2;
        if !stats_line.starts_with("STATS") || done != protocol::DONE {
            return Err(format!("unexpected reply tail: {stats_line} / {done}"));
        }
        let end = start.elapsed();
        let digest = hex(&sha256(&table));
        Ok(Exchange {
            index,
            class: sub.class,
            latency_ms: end.as_secs_f64() * 1e3,
            admit_ms: ok_at.as_secs_f64() * 1e3,
            stream_ms: (end - ok_at).as_secs_f64() * 1e3,
            cells,
            stats: parse_stats(&stats_line),
            bytes,
            digest_ok: reference.digest("serve", &sub.hash) == Some(digest.as_str()),
            digest,
        })
    }
}

/// Connect `n` clients, each proven live by a `PING` round trip.
fn connect_all(addr: SocketAddr, n: usize) -> Vec<Result<Client, String>> {
    (0..n.max(1)).map(|_| Client::connect(addr)).collect()
}

/// Run `subs` through the `clients` connections in a closed loop; every exchange
/// that fails or returns a table other than the reference counts as failed.
fn closed_loop(
    addr: SocketAddr,
    clients: Vec<Result<Client, String>>,
    subs: &[Submission],
    reference: &Reference,
    tracer: &Tracer,
    parent: spans::SpanId,
) -> (Vec<Exchange>, u64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new((Vec::new(), 0u64));
    std::thread::scope(|s| {
        for mut client in clients {
            let (next, out) = (&next, &out);
            s.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(sub) = subs.get(k) else { break };
                let result = match client.as_mut() {
                    Ok(c) => tracer.span(EXCHANGE_SPAN, parent, |_| c.submit(k, sub, reference)),
                    Err(e) => Err(e.clone()),
                };
                let mut out = out.lock().expect("a client thread panicked");
                match result {
                    Ok(x) => {
                        if !x.digest_ok {
                            eprintln!("serve-mix: table digest mismatch for {}", sub.hash);
                            out.1 += 1;
                        }
                        out.0.push(x);
                    }
                    Err(e) => {
                        eprintln!("serve-mix: submission failed: {e}");
                        out.1 += 1;
                        drop(out);
                        client = Client::connect(addr);
                    }
                }
            });
        }
    });
    out.into_inner().expect("a client thread panicked")
}

fn server_config(dir: &Path, threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.to_path_buf()),
        threads,
        ..ServerConfig::default()
    }
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

static ROUNDS: AtomicUsize = AtomicUsize::new(0);

/// A fresh store directory inside the working directory.
fn fresh_dir() -> PathBuf {
    let n = ROUNDS.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(".bench_tmp").join(format!("serve-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Start a server on a fresh store, prime it with the mix's primed
/// scenarios, and restart it with a cleared trace cache. Returns the
/// restarted server and the number of priming submissions that failed.
fn setup(mix: &Mix, dir: &Path, reference: &Reference) -> Result<(ServerHandle, u64), String> {
    TraceCache::global().clear();
    let server = start(server_config(dir, mix.clients))?;
    let off = Tracer::new(false);
    let clients = connect_all(server.addr(), mix.clients);
    let (_, failed) = closed_loop(server.addr(), clients, &mix.primed, reference, &off, 0);
    stop(server);
    TraceCache::global().clear();
    Ok((start(server_config(dir, mix.clients))?, failed))
}

/// Set-up alone, for extra `setup_s` samples.
pub fn setup_only(mix: &Mix, reference: &Reference) -> f64 {
    let dir = fresh_dir();
    let t = Instant::now();
    let server = setup(mix, &dir, reference).expect("the server starts on a fresh store");
    let setup_s = t.elapsed().as_secs_f64();
    stop(server.0);
    remove(&dir);
    setup_s
}

/// Delete a round's store directory, and its parent once it is empty.
fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_file()).collect())
        .unwrap_or_default()
}

pub fn round(mix: &Mix, reference: &Reference, tracer: &Tracer) -> Round {
    let dir = fresh_dir();
    let t = Instant::now();
    let (server, prime_failed) = setup(mix, &dir, reference).expect("the server starts");
    let setup_s = t.elapsed().as_secs_f64();
    let traces_before = entries(&dir.join("traces")).len() as u64;

    let clients = connect_all(server.addr(), mix.clients);
    let cpu0 = host::process_cpu();
    let start = Instant::now();
    let (exchanges, failed, measured) = tracer.span("measured", 0, |measured| {
        let (x, f) =
            closed_loop(server.addr(), clients, &mix.measured, reference, tracer, measured);
        (x, f, measured)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (host::process_cpu() - cpu0).as_secs_f64();
    let peak = server.metrics().peak_concurrent_jobs.load(Ordering::Relaxed);
    stop(server);

    let cells_simulated: u64 = exchanges.iter().map(|x| x.stats.cells_simulated).sum();
    let result_hits: u64 = exchanges.iter().map(|x| x.stats.result_cache_hits).sum();
    let traces_after = entries(&dir.join("traces")).len() as u64;
    let mut round = Round {
        setup_s,
        wall_s,
        cpu_s,
        uops: cells_simulated * (WARMUP + MEASURE),
        op_latencies_ms: exchanges.iter().map(|x| x.latency_ms).collect(),
        attempted: mix.measured.len() as u64 + prime_failed,
        failed: failed + prime_failed,
        digest: None,
        counts: vec![
            ("submissions_completed", exchanges.len() as u64),
            ("result_cache_hits", result_hits),
            ("cells_simulated", cells_simulated),
            ("trace_captures", traces_after - traces_before),
            ("trace_store_entries", traces_after),
            ("result_store_entries", entries(&dir.join("results")).len() as u64),
        ],
        layers: Metrics::new(),
    };
    if failed + prime_failed == 0 {
        let mut digests: Vec<(usize, &str)> =
            exchanges.iter().map(|x| (x.index, x.digest.as_str())).collect();
        digests.sort_unstable();
        let joined: String = digests.iter().map(|d| d.1).collect();
        round.digest = Some(hex(&sha256(joined.as_bytes())));
    }
    if tracer.enabled() {
        round.layers =
            layers(mix, &dir, tracer, measured, &exchanges, peak, traces_after - traces_before);
    }
    remove(&dir);
    round
}

fn p50(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v)
    }
}

/// Per-layer metrics of a traced round: client spans, `STATS` fields,
/// server counters, and direct calls on the round's own store afterwards.
fn layers(
    mix: &Mix,
    dir: &Path,
    tracer: &Tracer,
    measured: spans::SpanId,
    exchanges: &[Exchange],
    peak: u64,
    captures: u64,
) -> Metrics {
    let mut m = Metrics::new();
    let all = tracer.spans();
    let root = all.iter().find(|s| s.id == measured).expect("the measured span was recorded");
    let clients = mix.clients.max(1).min(mix.measured.len());
    m.set("trace.coverage", spans::thread_coverage(&all, root, EXCHANGE_SPAN, clients));
    m.set("serve.admit_ms.p50", p50(exchanges.iter().map(|x| x.admit_ms)));
    m.set("serve.stream_ms.p50", p50(exchanges.iter().map(|x| x.stream_ms)));
    m.set("serve.queue_wait_ms.p50", p50(exchanges.iter().map(|x| x.stats.queue_wait_ms)));
    m.set("serve.server_wall_ms.p50", p50(exchanges.iter().map(|x| x.stats.wall_ms)));
    for class in [Class::Hot, Class::Warm, Class::Cold] {
        let lat = exchanges.iter().filter(|x| x.class == class).map(|x| x.latency_ms);
        m.set(&format!("serve.latency_ms.p50.{}", class.name()), p50(lat));
    }
    m.set("serve.peak_concurrent_jobs", peak as f64);
    let cells: u64 = exchanges.iter().map(|x| x.cells).sum();
    let hits: u64 = exchanges.iter().map(|x| x.stats.result_cache_hits).sum();
    m.set("store.result_hit_ratio", hits as f64 / cells.max(1) as f64);
    // Each submission that simulates looks up its one workload's trace once;
    // every lookup that did not create a store entry was a hit.
    let lookups = exchanges.iter().filter(|x| x.stats.cells_simulated > 0).count() as u64;
    m.set("store.trace_hit_ratio", lookups.saturating_sub(captures) as f64 / lookups.max(1) as f64);
    m.set(
        "protocol.bytes_per_submission",
        exchanges.iter().map(|x| x.bytes as f64).sum::<f64>() / exchanges.len().max(1) as f64,
    );
    store_side_timings(mix, dir, &mut m);
    m
}

/// Timings of the store's and protocol's public calls on the round's own
/// store directory, after the server has stopped.
fn store_side_timings(mix: &Mix, dir: &Path, m: &mut Metrics) {
    const REPS: u32 = 20;
    let stores = Stores::open(dir).expect("the round's store reopens");
    let scratch = dir.join("scratch");
    let mut keys = Vec::new();
    let t = Instant::now();
    for sub in &mix.measured {
        let spec = sub.text.parse::<Scenario>().expect("catalog scenarios parse").to_spec();
        for job in spec.expand() {
            for _ in 0..REPS {
                std::hint::black_box(cell_key(&spec.settings, &job));
            }
            keys.push(cell_key(&spec.settings, &job));
        }
    }
    m.set("store.cell_key_us", t.elapsed().as_secs_f64() * 1e6 / (keys.len() as f64 * REPS as f64));
    let results = stores.results.as_deref().expect("the round's store has a result cache");
    let t = Instant::now();
    let loaded: Vec<_> = keys.iter().filter_map(|k| results.load(k)).collect();
    m.set("store.result_load_us", t.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64);
    let spare = ResultCache::open(scratch.join("results")).expect("scratch result cache");
    let t = Instant::now();
    for (k, r) in keys.iter().zip(&loaded) {
        spare.save(k, r);
    }
    m.set("store.result_save_us", t.elapsed().as_secs_f64() * 1e6 / loaded.len().max(1) as f64);

    let traces = stores.traces.as_deref().expect("the round's store has a trace store");
    let spare = TraceStore::open(scratch.join("traces")).expect("scratch trace store");
    let mb: f64 = entries(traces.dir())
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|md| md.len() as f64 / 1e6)
        .sum();
    let (mut map_s, mut load_s, mut save_s, mut capture_s) = (0.0, 0.0, 0.0, 0.0);
    for &(bench, seed) in &PAIRS {
        let t = Instant::now();
        let Some(mapped) = traces.map(bench, 1, seed) else { continue };
        map_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let stored = traces.load(bench, 1, seed).expect("a mapped entry also loads");
        load_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        spare.save(bench, 1, seed, stored.budget, stored.complete, &stored.trace);
        save_s += t.elapsed().as_secs_f64();
        let b = vpsim_workloads::workload(bench).expect("catalog workloads exist");
        let params = vpsim_workloads::WorkloadParams { scale: 1, seed };
        let t = Instant::now();
        std::hint::black_box(Trace::capture(&(b.build)(&params), mapped.budget()));
        capture_s += t.elapsed().as_secs_f64();
    }
    let mb = mb.max(1e-9);
    m.set("store.map_verify_ms_per_mb", map_s * 1e3 / mb);
    m.set("store.load_ms_per_mb", load_s * 1e3 / mb);
    m.set("store.trace_save_ms_per_mb", save_s * 1e3 / mb);
    m.set("store.hit_vs_recapture", map_s / capture_s.max(1e-12));

    let sub = mix.measured.iter().find(|s| s.class == Class::Warm).expect("the mix has warm work");
    let mut spec = sub.text.parse::<Scenario>().expect("catalog scenarios parse").to_spec();
    spec.stores = stores.clone();
    let results = spec.run();
    let t = Instant::now();
    for _ in 0..REPS * 10 {
        std::hint::black_box(render_output(&results, View::Long, Format::Ascii));
    }
    m.set("protocol.render_us", t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS * 10));
}
