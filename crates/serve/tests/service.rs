//! End-to-end service tests: a real server on an ephemeral port, real TCP
//! clients, and byte-identical comparison against local execution.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vpsim_bench::protocol::{self, Format, View};
use vpsim_bench::remote;
use vpsim_bench::scenario::preset;
use vpsim_serve::{start, ServerConfig, ServerHandle};

/// Fresh scratch directory per call (temp dir + pid + counter), so
/// parallel tests never share a store.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vpsim-serve-{tag}-{}-{n}", std::process::id()))
}

fn small_scenario() -> vpsim_bench::scenario::Scenario {
    let mut scenario = preset("smoke").expect("smoke preset exists");
    scenario.set("warmup=500").unwrap();
    scenario.set("measure=2000").unwrap();
    scenario.set("seed=0xBEEF").unwrap();
    scenario
}

#[test]
fn remote_submissions_match_local_and_repeat_from_cache() {
    let dir = scratch_dir("service");
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        threads: 2,
        queue_cap: 4,
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    remote::ping(&addr).expect("server answers PING");

    let scenario = small_scenario();
    let spec = scenario.to_spec();
    let job_count = spec.job_count();
    let local = spec.run();
    let local_long = protocol::render_output(&local, View::Long, Format::Csv);
    let local_matrix = protocol::render_output(&local, View::Matrix, Format::Ascii);
    // Job order: the baseline suite, then each grid point's suite.
    let local_cells: Vec<_> = std::iter::once(&local.baseline)
        .chain(local.points.iter().map(|(_, suite)| suite))
        .flat_map(|suite| suite.rows.iter())
        .collect();

    // First submission simulates every cell and fills the stores.
    let mut cells_first = Vec::new();
    let first = remote::submit(&addr, &scenario, View::Long, Format::Csv, |cell| {
        cells_first.push(cell.to_string())
    })
    .expect("first submission succeeds");
    assert_eq!(first.cells, job_count);
    assert_eq!(cells_first.len(), job_count);
    // Cells stream in job-index order, each equal to the local run's cell.
    for (k, (job, line)) in spec.expand().iter().zip(&cells_first).enumerate() {
        let (bench, result) = local_cells[k];
        assert_eq!(job.bench.name, *bench);
        let label = job.point.as_ref().map_or("baseline".to_string(), |p| p.label());
        let expected = format!("CELL {k} {bench} {label} {:.3}", result.metrics.ipc());
        assert_eq!(line, &expected, "cell {k}");
    }
    assert_eq!(first.table, local_long, "remote table is byte-identical to a local run");
    assert!(first.stats.contains("result_cache_hits=0"), "first run: {}", first.stats);

    // Second submission is served entirely from the result cache:
    // byte-identical output, zero cells simulated.
    let mut cells_second = Vec::new();
    let second = remote::submit(&addr, &scenario, View::Long, Format::Csv, |cell| {
        cells_second.push(cell.to_string())
    })
    .expect("second submission succeeds");
    assert_eq!(second.table, first.table, "resubmission is byte-identical");
    assert_eq!(cells_second, cells_first, "streamed cells are byte-identical");
    assert!(
        second.stats.contains(&format!("result_cache_hits={job_count}")),
        "second run served from cache: {}",
        second.stats
    );
    assert!(second.stats.contains("cells_simulated=0"), "second run: {}", second.stats);

    // A different view/format over the same cached cells still matches
    // local rendering exactly.
    let matrix = remote::submit(&addr, &scenario, View::Matrix, Format::Ascii, |_| {})
        .expect("matrix submission succeeds");
    assert_eq!(matrix.table, local_matrix);
    assert!(matrix.stats.contains("cells_simulated=0"), "cells stay cached: {}", matrix.stats);

    // Graceful shutdown over the wire; afterwards the port is closed.
    remote::shutdown(&addr).expect("server acknowledges SHUTDOWN");
    handle.join();
    assert!(remote::ping(&addr).is_err(), "server is gone after shutdown");

    // A second server on the same store directory serves every cell the
    // first one finished: byte-identical table, nothing simulated.
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        threads: 2,
        queue_cap: 4,
    })
    .expect("second server starts on the shared store");
    let addr = handle.addr().to_string();
    let shared = remote::submit(&addr, &scenario, View::Long, Format::Csv, |_| {})
        .expect("submission to the second server succeeds");
    assert_eq!(shared.table, first.table, "shared-store table is byte-identical");
    assert!(shared.stats.contains("cells_simulated=0"), "shared store: {}", shared.stats);
    assert!(
        shared.stats.contains(&format!("result_cache_hits={job_count}")),
        "shared store serves every cell: {}",
        shared.stats
    );
    remote::shutdown(&addr).expect("second server acknowledges SHUTDOWN");
    handle.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_input_gets_err_replies_without_losing_the_connection() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: None,
        threads: 1,
        queue_cap: 1,
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let mut line = String::new();

    // A scenario that does not parse: ERR, connection survives.
    stream.write_all(b"SUBMIT long csv\nnot a scenario\nEND\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR "), "bad scenario is rejected gracefully: {line}");

    // Bad SUBMIT arguments: ERR, connection survives.
    line.clear();
    stream.write_all(b"SUBMIT sideways yaml\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR "), "bad arguments are rejected gracefully: {line}");

    // Unknown commands: ERR, connection survives.
    line.clear();
    stream.write_all(b"FROBNICATE\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR "), "unknown command is rejected gracefully: {line}");

    // The same connection still answers a well-formed request.
    line.clear();
    stream.write_all(b"PING\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), protocol::PONG, "connection survived three errors");

    handle.shutdown();
    drop(stream);
    handle.join();
}

#[test]
fn a_line_without_newline_gets_err_and_a_hang_up() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: None,
        threads: 1,
        queue_cap: 1,
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // 1 MiB with no newline.
    let mut reader = send_raw(&addr, &vec![b'x'; 1 << 20]);
    expect_err_then_eof(&mut reader, "over-long line");

    // A scenario block of short lines that adds up past its cap.
    let mut block = b"SUBMIT long csv\n".to_vec();
    for _ in 0..20 {
        block.extend_from_slice(&[b'#'; 60_000]);
        block.push(b'\n');
    }
    let mut reader = send_raw(&addr, &block);
    expect_err_then_eof(&mut reader, "over-long scenario");

    handle.shutdown();
    handle.join();
}

/// Connect, send `bytes` and return the read half, with a 10 s read
/// timeout. The send may fail part-way once the server hangs up.
fn send_raw(addr: &str, bytes: &[u8]) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let _ = stream.write_all(bytes);
    reader
}

fn expect_err_then_eof(reader: &mut BufReader<TcpStream>, what: &str) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("the server answers before the timeout");
    assert!(line.starts_with("ERR "), "{what} is refused: {line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("EOF, not a timeout"), 0, "hang-up: {line}");
}

#[test]
fn in_memory_server_still_answers_and_stops_via_handle() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: None,
        threads: 1,
        queue_cap: 2,
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let scenario = small_scenario();
    let spec = scenario.to_spec();
    let local = protocol::render_output(&spec.run(), View::Long, Format::Json);
    let outcome = remote::submit(&addr, &scenario, View::Long, Format::Json, |_| {})
        .expect("submission succeeds without stores");
    assert_eq!(outcome.table, local);
    assert!(
        outcome.stats.contains("trace_store_hits=0 trace_store_misses=0"),
        "no stores configured: {}",
        outcome.stats
    );

    handle.shutdown();
    handle.join();
}

/// Send `request` and read its reply through `DONE`; returns the time
/// from the send to `DONE` and the reply's `STATS` line.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> (Duration, String) {
    let sent = Instant::now();
    stream.write_all(request.as_bytes()).unwrap();
    let mut stats = String::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("reply before the timeout") > 0, "hang-up");
        let line = line.trim_end();
        if line == protocol::DONE {
            return (sent.elapsed(), stats);
        } else if let Some(n) = line.strip_prefix("TABLE ") {
            let mut table = vec![0; n.parse().expect("table length")];
            reader.read_exact(&mut table).unwrap();
        } else if line.starts_with("STATS ") {
            stats = line.to_string();
        } else {
            assert!(line.starts_with("OK ") || line.starts_with("CELL "), "reply line: {line}");
        }
    }
}

#[test]
fn cached_resubmissions_are_not_held_by_delayed_acks() {
    let dir = scratch_dir("transport");
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        threads: 2,
        queue_cap: 2,
    })
    .expect("server starts");
    // One persistent connection with Nagle left on, like a plain client.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let line = protocol::submit_line(View::Long, Format::Csv);
    let request = format!("{line}\n{}{}\n", small_scenario(), protocol::END_MARKER);

    exchange(&mut stream, &mut reader, &request); // fills the result cache
    let mut hot: Vec<Duration> = (0..5)
        .map(|_| {
            let (elapsed, stats) = exchange(&mut stream, &mut reader, &request);
            assert!(stats.contains("cells_simulated=0"), "served from the cache: {stats}");
            elapsed
        })
        .collect();
    hot.sort();
    // A reply that leaves in pieces waits on the client's delayed ACK,
    // a step of about 40 ms per exchange.
    assert!(hot[2] < Duration::from_millis(20), "median cached exchange: {hot:?}");

    handle.shutdown();
    drop(stream);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server whose accept loop has gone back to blocking in `accept`
/// after one PING round trip. A stop issued before the loop first blocks
/// would pass without the wake-up and prove nothing.
fn blocked_server(addr: &str) -> ServerHandle {
    let handle =
        start(ServerConfig { addr: addr.into(), store_dir: None, threads: 1, queue_cap: 1 })
            .expect("server starts");
    let port = handle.addr().port();
    remote::ping(&format!("127.0.0.1:{port}")).expect("server answers PING");
    handle
}

/// Join `handle` on a helper thread and report whether it returned
/// within 10 s, so a stop that misses the blocked `accept` fails the test
/// instead of hanging it.
fn joins_in_time(handle: ServerHandle) -> bool {
    let (joined, done) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = joined.send(());
    });
    done.recv_timeout(Duration::from_secs(10)).is_ok()
}

#[test]
fn handle_shutdown_wakes_the_blocking_accept() {
    // An unspecified bind address is woken through loopback.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let handle = blocked_server(addr);
        handle.shutdown();
        assert!(joins_in_time(handle), "shutdown() stops a server bound to {addr}");
    }
}

#[test]
fn wire_shutdown_wakes_the_blocking_accept() {
    let handle = blocked_server("127.0.0.1:0");
    let addr = handle.addr().to_string();
    let idle = TcpStream::connect(&addr).expect("connect");
    remote::shutdown(&addr).expect("server acknowledges SHUTDOWN");
    assert!(joins_in_time(handle), "SHUTDOWN from a second connection stops the server");
    drop(idle);
}

#[test]
fn a_cloned_stop_handle_wakes_the_blocking_accept() {
    let handle = blocked_server("127.0.0.1:0");
    // Moved into a thread of its own, as the `serve` binary's signal and
    // stdin watchers hold it.
    let stop = handle.stop_handle();
    let watcher = std::thread::spawn(move || stop.stop());
    assert!(joins_in_time(handle), "a cloned stop handle stops the server");
    watcher.join().expect("the watcher returns");
}
