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
//! SUBMIT <view> <format> [shard <i>/<n>]
//!     view: long|matrix   format: ascii|csv|json
//! <scenario text, key = value lines>
//! END
//! ```
//!
//! plus `PING` (liveness) and `SHUTDOWN` (graceful stop). Server →
//! client, for a full (unsharded) submission:
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
//! A *sharded* submission (`shard <i>/<n>`) restricts the server to the
//! grid cells whose `index % n == i`. The reply carries the raw per-cell
//! counters instead of a rendered table — `CELL` progress lines for the
//! shard's cells, then one `RESULT <index> <hex(RunResult)>` frame per
//! cell — and the client merges the shards by index
//! ([`crate::sweep::SweepSpec::assemble`]) into the exact table a local
//! run prints. N servers pointed at one shared `--store` directory cover
//! the grid disjointly and dedupe finished cells through the shared
//! result cache.
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

use crate::sweep::{SweepJob, SweepResults, SweepTiming};
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

/// A parsed `SUBMIT` request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submit {
    /// Table orientation.
    pub view: View,
    /// Rendering format.
    pub format: Format,
    /// `Some((i, n))` restricts the server to cells with `index % n == i`
    /// and switches the reply to raw `RESULT` frames.
    pub shard: Option<(u32, u32)>,
}

/// The `SUBMIT <view> <format>` request line (unsharded).
pub fn submit_line(view: View, format: Format) -> String {
    format!("SUBMIT {view} {format}")
}

/// The `SUBMIT <view> <format> shard <i>/<n>` request line.
pub fn submit_line_sharded(view: View, format: Format, shard: (u32, u32)) -> String {
    format!("SUBMIT {view} {format} shard {}/{}", shard.0, shard.1)
}

fn parse_shard(spec: &str) -> Option<(u32, u32)> {
    let (i, n) = spec.split_once('/')?;
    let (i, n) = (i.parse::<u32>().ok()?, n.parse::<u32>().ok()?);
    (n >= 1 && i < n).then_some((i, n))
}

/// Parse a `SUBMIT <view> <format> [shard <i>/<n>]` line (`None` if it
/// is not a SUBMIT at all, `Some(Err)` if it is one with bad arguments).
pub fn parse_submit(line: &str) -> Option<Result<Submit, String>> {
    const USAGE: &str =
        "SUBMIT takes: SUBMIT <long|matrix> <ascii|csv|json> [shard <i>/<n>, i < n]";
    let rest = line.strip_prefix("SUBMIT")?;
    let words: Vec<&str> = rest.split_whitespace().collect();
    let parsed = match words.as_slice() {
        [view, format] => view.parse::<View>().and_then(|v| {
            format.parse::<Format>().map(|f| Submit { view: v, format: f, shard: None })
        }),
        [view, format, "shard", spec] => match parse_shard(spec) {
            Some(shard) => view.parse::<View>().and_then(|v| {
                format.parse::<Format>().map(|f| Submit { view: v, format: f, shard: Some(shard) })
            }),
            None => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
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

/// One raw per-cell counter frame of a sharded reply:
/// `RESULT <index> <hex(RunResult)>`. The full counters travel so the
/// client can rebuild the exact table — IPC alone would lose coverage
/// and accuracy columns.
pub fn result_line(index: usize, result: &RunResult) -> String {
    let bytes = result.to_bytes();
    let mut hex = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        hex.push_str(&format!("{b:02x}"));
    }
    format!("RESULT {index} {hex}")
}

/// Parse a `RESULT <index> <hex>` frame back into its cell index and
/// counters (`None` if the line is not a RESULT frame at all).
pub fn parse_result(line: &str) -> Option<Result<(usize, RunResult), String>> {
    let rest = line.strip_prefix("RESULT ")?;
    let parsed = (|| {
        let (index, hex) = rest.split_once(' ').ok_or("RESULT takes an index and a payload")?;
        let index: usize = index.parse().map_err(|_| format!("bad RESULT index {index}"))?;
        if hex.len() % 2 != 0 {
            return Err("odd-length RESULT payload".to_string());
        }
        let bytes: Vec<u8> = (0..hex.len() / 2)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16))
            .collect::<Result<_, _>>()
            .map_err(|_| "non-hex RESULT payload".to_string())?;
        Ok((index, RunResult::from_bytes(&bytes)?))
    })();
    Some(parsed)
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
/// prints it to stdout: `to_csv()`/`to_json()` verbatim for those
/// formats, and the aligned text plus the `println!` newline for ascii —
/// so `sweep --remote` output is byte-identical to local output.
pub fn render_output(results: &SweepResults, view: View, format: Format) -> String {
    let table = match view {
        View::Long => results.table(),
        View::Matrix => results.matrix(),
    };
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
            Submit { view: View::Matrix, format: Format::Csv, shard: None }
        );
        assert!(parse_submit("PING").is_none());
        assert!(parse_submit("SUBMIT").unwrap().is_err());
        assert!(parse_submit("SUBMIT long").unwrap().is_err());
        assert!(parse_submit("SUBMIT long ascii extra").unwrap().is_err());
        assert!(parse_submit("SUBMIT sideways ascii").unwrap().is_err());
    }

    #[test]
    fn sharded_submit_lines_parse_back_and_reject_bad_shards() {
        let line = submit_line_sharded(View::Long, Format::Ascii, (1, 3));
        assert_eq!(line, "SUBMIT long ascii shard 1/3");
        assert_eq!(
            parse_submit(&line).unwrap().unwrap(),
            Submit { view: View::Long, format: Format::Ascii, shard: Some((1, 3)) }
        );
        // Shard index must stay below the count; zero shards is nonsense.
        assert!(parse_submit("SUBMIT long ascii shard 3/3").unwrap().is_err());
        assert!(parse_submit("SUBMIT long ascii shard 0/0").unwrap().is_err());
        assert!(parse_submit("SUBMIT long ascii shard x/2").unwrap().is_err());
        assert!(parse_submit("SUBMIT long ascii frag 0/2").unwrap().is_err());
    }

    #[test]
    fn result_lines_round_trip_the_full_counters() {
        let spec = crate::scenario::preset("smoke").unwrap().to_spec();
        let settings =
            crate::RunSettings { warmup: 200, measure: 1_000, ..crate::RunSettings::default() };
        let result = settings.run_job(&spec.benches[0], settings.core());
        let line = result_line(7, &result);
        assert!(line.starts_with("RESULT 7 "), "{line}");
        let (index, back) = parse_result(&line).unwrap().unwrap();
        assert_eq!(index, 7);
        assert_eq!(back, result, "hex round-trip must preserve every counter");
        assert!(parse_result("CELL 0 gzip baseline 1.0").is_none());
        assert!(parse_result("RESULT x ff").unwrap().is_err());
        assert!(parse_result("RESULT 1 f").unwrap().is_err());
        assert!(parse_result("RESULT 1 zz").unwrap().is_err());
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
    fn busy_lines_carry_a_parseable_retry_hint() {
        let line = busy_line(3, 250);
        assert!(line.starts_with("ERR server busy"), "{line}");
        assert_eq!(parse_retry_after(line.strip_prefix("ERR ").unwrap()), Some(250));
        assert_eq!(parse_retry_after("some other error"), None);
    }
}
