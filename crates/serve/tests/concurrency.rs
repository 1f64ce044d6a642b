//! Concurrent job execution: multiple in-flight submissions interleave on
//! the shared worker pool (byte-identically), busy refusals carry a
//! RETRY-AFTER hint the client honours, and abandoned jobs have their
//! pending cells reclaimed instead of being simulated for a dead socket.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use vpsim_bench::protocol::{self, Format, View};
use vpsim_bench::remote;
use vpsim_bench::scenario::{preset, Scenario};
use vpsim_serve::{start, ServerConfig};

fn scenario_with_seed(seed: u32) -> Scenario {
    let mut scenario = preset("smoke").expect("smoke preset exists");
    scenario.set("warmup=500").unwrap();
    scenario.set("measure=2000").unwrap();
    scenario.set(&format!("seed={seed}")).unwrap();
    scenario
}

#[test]
fn concurrent_submissions_interleave_and_stay_byte_identical() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: None,
        threads: 2,
        queue_cap: 8,
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    let scenarios: Vec<Scenario> = (0..4)
        .map(|i| {
            let mut s = scenario_with_seed(0x5EED + i);
            // Slow enough (hundreds of ms) that four simultaneous clients
            // reliably overlap in the admission window.
            s.set("measure=20000").unwrap();
            s
        })
        .collect();
    let local: Vec<String> = scenarios
        .iter()
        .map(|s| protocol::render_output(&s.to_spec().run(), View::Long, Format::Csv))
        .collect();

    // All four clients submit at once; the pool interleaves their cells
    // fairly, and each response is still byte-identical to a local run.
    let outcomes: Vec<(String, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scenarios
            .iter()
            .map(|scenario| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut cells = Vec::new();
                    let outcome = remote::submit(&addr, scenario, View::Long, Format::Csv, |c| {
                        cells.push(c.to_string())
                    })
                    .expect("concurrent submission succeeds");
                    (outcome.table, cells)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    for ((table, cells), (scenario, expected)) in outcomes.iter().zip(scenarios.iter().zip(&local))
    {
        assert_eq!(table, expected, "concurrent output is byte-identical to a local run");
        // Cells complete out of order on the shared pool but stream in
        // job-index order.
        let indices: Vec<usize> =
            cells.iter().map(|c| c.split(' ').nth(1).unwrap().parse().unwrap()).collect();
        assert_eq!(indices, (0..scenario.to_spec().job_count()).collect::<Vec<_>>());
    }

    // The completion counter ticks just after `DONE` is flushed, so a
    // client can observe its table before the server has counted it.
    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.jobs_completed.load(Ordering::Relaxed) < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 4);
    assert!(
        metrics.peak_concurrent_jobs.load(Ordering::Relaxed) >= 2,
        "simultaneous multi-second jobs were admitted together (peak {})",
        metrics.peak_concurrent_jobs.load(Ordering::Relaxed)
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn busy_refusals_carry_retry_after_and_clients_recover() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: None,
        threads: 1,
        queue_cap: 1,
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Occupy the single admission slot with a submission slow enough
    // (hundreds of ms of simulation) that the probe below lands while it
    // is still in flight.
    let mut slow = scenario_with_seed(0xA11CE);
    slow.set("measure=50000").unwrap();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let request =
        format!("{}\n{slow}{}\n", protocol::submit_line(View::Long, Format::Ascii), "END");
    stream.write_all(request.as_bytes()).unwrap();
    let mut ok = String::new();
    reader.read_line(&mut ok).unwrap();
    assert!(ok.starts_with("OK "), "occupying job is admitted: {ok}");

    // A second raw submission is refused with a parseable RETRY-AFTER.
    let probe = TcpStream::connect(&addr).expect("connect");
    let mut probe_reader = BufReader::new(probe.try_clone().expect("clone"));
    let mut probe = probe;
    probe.write_all(request.as_bytes()).unwrap();
    let mut refusal = String::new();
    probe_reader.read_line(&mut refusal).unwrap();
    let msg = refusal.trim_end().strip_prefix("ERR ").expect("busy refusal is an ERR").to_string();
    assert!(msg.contains("server busy"), "refusal names the condition: {msg}");
    assert!(
        protocol::parse_retry_after(&msg).is_some(),
        "refusal carries a RETRY-AFTER hint: {msg}"
    );
    drop(probe);
    drop(probe_reader);

    // The retrying client keeps backing off until the slot frees up. Drain
    // the occupying job concurrently so it does.
    let local = protocol::render_output(&slow.to_spec().run(), View::Long, Format::Ascii);
    let outcome = std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            remote::submit(&addr, &slow, View::Long, Format::Ascii, |_| {})
                .expect("retrying client eventually succeeds")
        });
        for line in (&mut reader).lines() {
            if line.map_or(true, |l| l == protocol::DONE) {
                break;
            }
        }
        drop(stream);
        submitter.join().expect("submitter thread")
    });
    assert_eq!(outcome.table, local, "post-retry output is byte-identical");

    handle.shutdown();
    handle.join();
}

#[test]
fn abandoned_jobs_reclaim_their_pending_cells() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: None,
        threads: 1,
        queue_cap: 2,
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // A wide, slow grid: 4 predictors over 2 benchmarks (plus baselines)
    // is 10 cells, so plenty remain pending when the client vanishes.
    let mut scenario = scenario_with_seed(0xDEAD);
    scenario.set("predictors=lvp,2d-str,fcm,vtage").unwrap();
    scenario.set("measure=20000").unwrap();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let line = protocol::submit_line(View::Long, Format::Ascii);
    let request = format!("{line}\n{scenario}{}\n", "END");
    stream.write_all(request.as_bytes()).unwrap();
    let mut ok = String::new();
    reader.read_line(&mut ok).unwrap();
    assert!(ok.starts_with("OK "), "job is admitted: {ok}");

    // Vanish mid-stream: the handler notices on its next cell write and
    // the scheduler reclaims everything still pending.
    drop(reader);
    drop(stream);

    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if metrics.jobs_abandoned.load(Ordering::Relaxed) >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(metrics.jobs_abandoned.load(Ordering::Relaxed), 1, "the disconnect was noticed");
    assert!(
        metrics.cells_reclaimed.load(Ordering::Relaxed) > 0,
        "pending cells were reclaimed instead of simulated for a dead socket"
    );
    assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 0);

    handle.shutdown();
    handle.join();
}
