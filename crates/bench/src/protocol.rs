//! Wire protocol shared by the `vpsim-serve` job server and the `sweep
//! --remote` client.
//!
//! Newline-delimited text over TCP, deliberately simple enough to drive
//! with `nc`. One request per connection lifetime-phase; the connection
//! stays open across requests and across errors.
//!
//! Client → server:
//!
//! ```text
//! SUBMIT <view> <format>
//!     view: long|matrix   format: ascii|csv|json
//! <scenario text, key = value lines>
//! END
//! ```
//!
//! plus `PING` (liveness) and `SHUTDOWN` (graceful stop). Server →
//! client, for a submission:
//!
//! ```text
//! OK <ncells>
//! CELL <index> <benchmark> <point-label> <ipc>      (strict index order)
//! …
//! TABLE <nbytes>
//! <nbytes of rendered table, byte-identical to a local run's stdout>
//! STATS result_cache_hits=… cells_simulated=… trace_store_hits=… trace_store_misses=… queue_wait_ms=… wall_ms=…
//! DONE
//! ```
//!
//! Any failure — a malformed scenario above all — is a single `ERR <msg>`
//! line and the connection stays open for the next request. A loaded
//! server refuses with `ERR server busy … RETRY-AFTER <ms>`; the client
//! backs off (bounded, jittered) and retries. Responses to
//! `PING`/`SHUTDOWN` are `PONG`/`BYE`.
//!
//! Determinism: the sweep engine streams cells in job-index order and is
//! bit-identical across thread counts, so resubmitting a scenario yields
//! byte-identical `CELL` and `TABLE` payloads — whether the cells were
//! simulated or served from the persistent result cache. Only the `STATS`
//! diagnostics line reflects cache state.

use std::io::{self, BufRead, Read};

use crate::sweep::{SweepJob, SweepResults, SweepTiming};
use vpsim_stats::table::Table;
use vpsim_uarch::RunResult;

/// Table orientation of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// Long-form table: one row per (grid point, benchmark).
    Long,
    /// Speedup matrix: benchmark rows × grid-point columns.
    Matrix,
}

impl std::fmt::Display for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            View::Long => "long",
            View::Matrix => "matrix",
        })
    }
}

impl std::str::FromStr for View {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "long" => Ok(View::Long),
            "matrix" => Ok(View::Matrix),
            other => Err(format!("unknown view {other} (long|matrix)")),
        }
    }
}

/// Rendering format of a submission's final table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned text, exactly what a local `sweep` prints to stdout.
    Ascii,
    /// Comma-separated values.
    Csv,
    /// JSON array of row objects.
    Json,
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Format::Ascii => "ascii",
            Format::Csv => "csv",
            Format::Json => "json",
        })
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ascii" => Ok(Format::Ascii),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format {other} (ascii|csv|json)")),
        }
    }
}

/// Terminator of a `SUBMIT` scenario block.
pub const END_MARKER: &str = "END";
/// Liveness probe; answered with [`PONG`].
pub const PING: &str = "PING";
/// Liveness answer.
pub const PONG: &str = "PONG";
/// Graceful server stop; answered with [`BYE`].
pub const SHUTDOWN: &str = "SHUTDOWN";
/// Acknowledgement of [`SHUTDOWN`].
pub const BYE: &str = "BYE";
/// Last line of a successful submission response.
pub const DONE: &str = "DONE";
/// Longest line either end accepts, newline included.
pub const MAX_LINE_BYTES: usize = 64 * 1024;
/// Longest scenario block (the lines between `SUBMIT` and `END`) the
/// server accepts.
pub const MAX_SCENARIO_BYTES: usize = 1024 * 1024;

/// Read one line of at most `cap` bytes, newline included; `Ok(None)` is
/// a clean EOF. A longer line is an `InvalidData` error raised after at
/// most `cap + 1` bytes, so a peer that never sends a newline cannot grow
/// the buffer past the cap. The framing is lost after that error.
pub fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader.take(cap as u64 + 1).read_line(&mut line)?;
    if n > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line longer than {cap} bytes"),
        ));
    }
    Ok((n > 0).then_some(line))
}

/// A parsed `SUBMIT` request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submit {
    /// Table orientation.
    pub view: View,
    /// Rendering format.
    pub format: Format,
}

/// The `SUBMIT <view> <format>` request line.
pub fn submit_line(view: View, format: Format) -> String {
    format!("SUBMIT {view} {format}")
}

/// Parse a `SUBMIT <view> <format>` line (`None` if it is not a SUBMIT
/// at all, `Some(Err)` if it is one with bad arguments).
pub fn parse_submit(line: &str) -> Option<Result<Submit, String>> {
    let rest = line.strip_prefix("SUBMIT")?;
    let words: Vec<&str> = rest.split_whitespace().collect();
    let parsed = match words.as_slice() {
        [view, format] => view
            .parse::<View>()
            .and_then(|view| format.parse::<Format>().map(|format| Submit { view, format })),
        _ => Err("SUBMIT takes: SUBMIT <long|matrix> <ascii|csv|json>".into()),
    };
    Some(parsed)
}

/// The `OK <ncells>` acknowledgement of an accepted submission.
pub fn ok_line(ncells: usize) -> String {
    format!("OK {ncells}")
}

/// One streamed per-cell result line, in strict job-index order:
/// `CELL <index> <benchmark> <point-label> <ipc>`.
pub fn cell_line(job: &SweepJob, result: &RunResult) -> String {
    let label = match &job.point {
        Some(p) => p.label(),
        None => "baseline".to_string(),
    };
    format!("CELL {} {} {} {:.3}", job.index, job.bench.name, label, result.metrics.ipc())
}

/// The `TABLE <nbytes>` header announcing the rendered table payload.
pub fn table_header(nbytes: usize) -> String {
    format!("TABLE {nbytes}")
}

/// The `STATS …` diagnostics line of a finished submission.
pub fn stats_line(timing: &SweepTiming) -> String {
    format!(
        "STATS result_cache_hits={} cells_simulated={} trace_store_hits={} trace_store_misses={}",
        timing.result_cache_hits,
        timing.jobs as u64 - timing.result_cache_hits,
        timing.trace_store_hits,
        timing.trace_store_misses,
    )
}

/// [`stats_line`] plus the server-side concurrency diagnostics: how long
/// the job sat admitted-but-unscheduled (`queue_wait_ms`) and its total
/// admission-to-reply wall-clock (`wall_ms`). Appending keeps every
/// existing `STATS` consumer (substring greps included) working.
pub fn stats_line_served(
    timing: &SweepTiming,
    queue_wait: std::time::Duration,
    wall: std::time::Duration,
) -> String {
    format!(
        "{} queue_wait_ms={} wall_ms={}",
        stats_line(timing),
        queue_wait.as_millis(),
        wall.as_millis()
    )
}

/// The `ERR server busy … RETRY-AFTER <ms>` refusal of a server at its
/// admission cap, carrying the suggested back-off.
pub fn busy_line(active_jobs: usize, retry_after_ms: u64) -> String {
    err_line(&format!(
        "server busy: {active_jobs} job(s) in flight, queue full — RETRY-AFTER {retry_after_ms}"
    ))
}

/// Extract the `RETRY-AFTER <ms>` hint from a busy error message, if the
/// message is a busy refusal carrying one.
pub fn parse_retry_after(msg: &str) -> Option<u64> {
    let (_, after) = msg.split_once("RETRY-AFTER ")?;
    after.split_whitespace().next()?.parse().ok()
}

/// An `ERR <msg>` reply: the message is collapsed to one line so it can
/// never break the framing.
pub fn err_line(msg: &str) -> String {
    let one_line: String =
        msg.chars().map(|c| if c == '\n' || c == '\r' { ' ' } else { c }).collect();
    format!("ERR {}", one_line.trim())
}

/// Render a submission's final table exactly as a local `sweep` run
/// prints it to stdout (see [`render_table`]), so `sweep --remote` output
/// is byte-identical to local output.
pub fn render_output(results: &SweepResults, view: View, format: Format) -> String {
    let table = match view {
        View::Long => results.table(),
        View::Matrix => results.matrix(),
    };
    render_table(&table, format)
}

/// The one text rendering of a `sweep` table, local or remote:
/// `to_csv()`/`to_json()` verbatim for those formats, and the aligned
/// text plus a closing newline for ascii.
pub fn render_table(table: &Table, format: Format) -> String {
    match format {
        Format::Ascii => format!("{table}\n"),
        Format::Csv => table.to_csv(),
        Format::Json => table.to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_and_format_round_trip() {
        for view in [View::Long, View::Matrix] {
            assert_eq!(view.to_string().parse::<View>().unwrap(), view);
        }
        for format in [Format::Ascii, Format::Csv, Format::Json] {
            assert_eq!(format.to_string().parse::<Format>().unwrap(), format);
        }
        assert!("wide".parse::<View>().is_err());
        assert!("yaml".parse::<Format>().is_err());
    }

    #[test]
    fn submit_lines_parse_back() {
        let line = submit_line(View::Matrix, Format::Csv);
        assert_eq!(line, "SUBMIT matrix csv");
        assert_eq!(
            parse_submit(&line).unwrap().unwrap(),
            Submit { view: View::Matrix, format: Format::Csv }
        );
        assert!(parse_submit("PING").is_none());
        assert!(parse_submit("SUBMIT").unwrap().is_err());
        assert!(parse_submit("SUBMIT long").unwrap().is_err());
        assert!(parse_submit("SUBMIT long ascii extra").unwrap().is_err());
        assert!(parse_submit("SUBMIT sideways ascii").unwrap().is_err());
    }

    #[test]
    fn err_lines_never_contain_newlines() {
        let err = err_line("line 1: bad key\nline 2: worse");
        assert_eq!(err, "ERR line 1: bad key line 2: worse");
        assert_eq!(err.lines().count(), 1);
    }

    #[test]
    fn stats_line_reports_simulated_complement() {
        let timing = SweepTiming {
            jobs: 10,
            result_cache_hits: 7,
            trace_store_hits: 2,
            trace_store_misses: 1,
            ..SweepTiming::default()
        };
        assert_eq!(
            stats_line(&timing),
            "STATS result_cache_hits=7 cells_simulated=3 trace_store_hits=2 trace_store_misses=1"
        );
        // The served variant appends — never reorders — so substring
        // consumers of the base line keep working.
        let served = stats_line_served(
            &timing,
            std::time::Duration::from_millis(12),
            std::time::Duration::from_millis(345),
        );
        assert!(served.starts_with(&stats_line(&timing)), "{served}");
        assert!(served.ends_with("queue_wait_ms=12 wall_ms=345"), "{served}");
    }

    #[test]
    fn capped_reads_stop_at_the_cap() {
        let mut input: &[u8] = b"PING\nabcdefghij\nlast";
        assert_eq!(read_line_capped(&mut input, 8).unwrap().as_deref(), Some("PING\n"));
        let err = read_line_capped(&mut input, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Only `cap + 1` bytes were consumed: the rest is still unread.
        assert_eq!(input, b"j\nlast");
        assert_eq!(read_line_capped(&mut input, 8).unwrap().as_deref(), Some("j\n"));
        assert_eq!(read_line_capped(&mut input, 8).unwrap().as_deref(), Some("last"));
        assert_eq!(read_line_capped(&mut input, 8).unwrap(), None);
        // A line of exactly `cap` bytes, newline included, fits.
        let mut exact: &[u8] = b"1234567\n";
        assert_eq!(read_line_capped(&mut exact, 8).unwrap().as_deref(), Some("1234567\n"));
    }

    #[test]
    fn busy_lines_carry_a_parseable_retry_hint() {
        let line = busy_line(3, 250);
        assert!(line.starts_with("ERR server busy"), "{line}");
        assert_eq!(parse_retry_after(line.strip_prefix("ERR ").unwrap()), Some(250));
        assert_eq!(parse_retry_after("some other error"), None);
    }
}
