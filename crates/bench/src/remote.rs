//! `sweep --remote` client: submit a scenario to a running `vpsim-serve`
//! job server and collect the streamed response.
//!
//! The client side of [`crate::protocol`]: it renders the scenario to its
//! canonical text, streams per-cell `CELL` lines to a progress callback
//! as the server completes them (strict job-index order), and returns the
//! final rendered table — byte-identical to what a local `sweep` run
//! would print to stdout — plus the server's `STATS` diagnostics line.
//!
//! A busy server (`ERR server busy … RETRY-AFTER <ms>`) is retried with
//! bounded exponential backoff and jitter; any other error is final.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::protocol::{self, Format, View};
use crate::scenario::Scenario;

/// Everything a successful remote submission returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteOutcome {
    /// The rendered table, byte-identical to a local run's stdout.
    pub table: String,
    /// The server's `STATS …` diagnostics line.
    pub stats: String,
    /// Grid cells in the submission (the server's `OK` count).
    pub cells: usize,
}

fn connect(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // Without Nagle, the tail of a request longer than one segment does
    // not wait for the server's delayed ACK.
    stream.set_nodelay(true).map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    let reader =
        BufReader::new(stream.try_clone().map_err(|e| format!("cannot clone connection: {e}"))?);
    Ok((reader, stream))
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let line = protocol::read_line_capped(reader, protocol::MAX_LINE_BYTES)
        .map_err(|e| format!("connection error: {e}"))?
        .ok_or("server closed the connection")?;
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Why one submission attempt failed: busy servers are retryable, every
/// other failure is final.
enum SubmitError {
    Busy { retry_after: Option<u64>, msg: String },
    Fatal(String),
}

fn classify_rejection(msg: &str) -> SubmitError {
    if msg.contains("server busy") {
        SubmitError::Busy { retry_after: protocol::parse_retry_after(msg), msg: msg.to_string() }
    } else {
        SubmitError::Fatal(format!("server rejected the scenario: {msg}"))
    }
}

/// Attempts per submission before a persistently busy server becomes an
/// error. With the 100 ms base and ×2 growth, the worst case sleeps
/// roughly 100+200+400+800+1600 ms ≈ 3 s (before jitter).
const BUSY_ATTEMPTS: u32 = 6;
const BUSY_BASE_MS: u64 = 100;
const BUSY_CAP_MS: u64 = 5_000;

/// 50 %–150 % of the nominal delay via xorshift64 — enough jitter that
/// clients refused together do not re-collide on the retry.
fn jittered(nominal_ms: u64, rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    nominal_ms / 2 + *rng % nominal_ms.max(1)
}

fn backoff_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64);
    ((std::process::id() as u64) << 32 | nanos) | 1
}

/// Run `attempt` under the bounded-backoff policy: busy refusals sleep
/// (honouring the server's `RETRY-AFTER` hint when present, capped and
/// jittered) and retry up to [`BUSY_ATTEMPTS`] times; anything else is
/// returned as-is.
fn with_busy_retry<T>(mut attempt: impl FnMut() -> Result<T, SubmitError>) -> Result<T, String> {
    let mut rng = backoff_seed();
    let mut delay = BUSY_BASE_MS;
    for tries in 1..=BUSY_ATTEMPTS {
        match attempt() {
            Ok(out) => return Ok(out),
            Err(SubmitError::Fatal(msg)) => return Err(msg),
            Err(SubmitError::Busy { retry_after, msg }) => {
                if tries == BUSY_ATTEMPTS {
                    return Err(format!("{msg} (gave up after {BUSY_ATTEMPTS} attempts)"));
                }
                let nominal = retry_after.unwrap_or(delay).clamp(1, BUSY_CAP_MS);
                std::thread::sleep(Duration::from_millis(jittered(nominal, &mut rng)));
                delay = (delay * 2).min(BUSY_CAP_MS);
            }
        }
    }
    unreachable!("the final attempt either succeeds or returns its error")
}

/// One submission attempt: send `request_line` and the scenario, then
/// read the reply up to `DONE`.
fn transact(
    addr: &str,
    request_line: &str,
    scenario: &Scenario,
    progress: &mut dyn FnMut(&str),
) -> Result<RemoteOutcome, SubmitError> {
    let fatal = SubmitError::Fatal;
    let (mut reader, mut stream) = connect(addr).map_err(fatal)?;
    let request = format!("{request_line}\n{scenario}{}\n", protocol::END_MARKER);
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| SubmitError::Fatal(format!("cannot send request: {e}")))?;

    let first = read_line(&mut reader).map_err(fatal)?;
    let cells = match first.split_once(' ') {
        Some(("OK", n)) => n
            .parse::<usize>()
            .map_err(|_| SubmitError::Fatal(format!("malformed acknowledgement: {first}")))?,
        Some(("ERR", msg)) => return Err(classify_rejection(msg)),
        _ => return Err(SubmitError::Fatal(format!("unexpected reply from server: {first}"))),
    };
    let (mut table, mut stats) = (None, String::new());
    loop {
        let line = read_line(&mut reader).map_err(fatal)?;
        if line == protocol::DONE {
            break;
        } else if line.starts_with("CELL ") {
            progress(&line);
        } else if let Some(n) = line.strip_prefix("TABLE ") {
            let nbytes: u64 = n
                .parse()
                .map_err(|_| SubmitError::Fatal(format!("malformed table header: {line}")))?;
            // The header is untrusted: buffer only the bytes that arrive,
            // so a huge announced length cannot allocate up front.
            let mut buf = Vec::new();
            reader
                .by_ref()
                .take(nbytes)
                .read_to_end(&mut buf)
                .map_err(|e| SubmitError::Fatal(format!("truncated table payload: {e}")))?;
            if (buf.len() as u64) < nbytes {
                return Err(SubmitError::Fatal(format!(
                    "truncated table payload: {} of {nbytes} bytes",
                    buf.len()
                )));
            }
            table = Some(
                String::from_utf8(buf)
                    .map_err(|e| SubmitError::Fatal(format!("non-UTF-8 table: {e}")))?,
            );
        } else if line.starts_with("STATS ") {
            stats = line;
        } else if let Some(msg) = line.strip_prefix("ERR ") {
            return Err(SubmitError::Fatal(format!("server error: {msg}")));
        } else {
            return Err(SubmitError::Fatal(format!("unexpected line from server: {line}")));
        }
    }
    let table = table
        .ok_or_else(|| SubmitError::Fatal("server finished without sending a table".into()))?;
    Ok(RemoteOutcome { table, stats, cells })
}

/// Submit `scenario` to the server at `addr` and collect the response.
/// `progress` is invoked once per streamed `CELL` line, in job-index
/// order, as the server completes cells. A busy server is retried with
/// bounded, jittered exponential backoff; any other server-side `ERR`
/// (a malformed scenario above all) comes back as this function's `Err`.
pub fn submit(
    addr: &str,
    scenario: &Scenario,
    view: View,
    format: Format,
    mut progress: impl FnMut(&str),
) -> Result<RemoteOutcome, String> {
    with_busy_retry(|| {
        transact(addr, &protocol::submit_line(view, format), scenario, &mut progress)
    })
}

/// Liveness probe: `PING` → `PONG`.
pub fn ping(addr: &str) -> Result<(), String> {
    let (mut reader, mut stream) = connect(addr)?;
    stream.write_all(b"PING\n").map_err(|e| format!("cannot send PING: {e}"))?;
    match read_line(&mut reader)?.as_str() {
        protocol::PONG => Ok(()),
        other => Err(format!("unexpected PING reply: {other}")),
    }
}

/// Ask the server at `addr` to shut down gracefully (`SHUTDOWN` → `BYE`).
pub fn shutdown(addr: &str) -> Result<(), String> {
    let (mut reader, mut stream) = connect(addr)?;
    stream.write_all(b"SHUTDOWN\n").map_err(|e| format!("cannot send SHUTDOWN: {e}"))?;
    match read_line(&mut reader)?.as_str() {
        protocol::BYE => Ok(()),
        other => Err(format!("unexpected SHUTDOWN reply: {other}")),
    }
}
