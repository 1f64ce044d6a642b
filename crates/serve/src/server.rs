//! The TCP job server: accept loop, per-connection handlers, and the
//! fair-scheduled worker pool shared by every in-flight job. See the
//! [crate docs](crate) for the shape and [`vpsim_bench::protocol`] for
//! the wire format.

use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use vpsim_bench::protocol::{self, Submit};
use vpsim_bench::scenario::Scenario;
use vpsim_bench::store::Stores;

use crate::scheduler::{JobEntry, Scheduler, ServeMetrics};

/// Everything the `serve` binary can configure.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7014` (`:0` picks a free port;
    /// [`ServerHandle::addr`] reports the actual one).
    pub addr: String,
    /// Root of the persistent stores (traces + results). `None` runs
    /// fully in-memory: still correct, nothing survives the process.
    pub store_dir: Option<PathBuf>,
    /// Size of the shared worker pool. Workers interleave cells from
    /// every in-flight job round-robin, so one submission on an idle
    /// server still uses the whole pool. Submitted scenarios' own
    /// `threads` keys are ignored for execution — the sweep engine is
    /// byte-identical across thread counts anyway.
    pub threads: usize,
    /// Maximum concurrently admitted jobs. Submissions beyond it receive
    /// a graceful `ERR server busy … RETRY-AFTER <ms>` reply instead of
    /// queueing unboundedly; `sweep --remote` retries on that hint.
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: None,
            threads: thread::available_parallelism().map_or(1, |n| n.get()),
            queue_cap: 16,
        }
    }
}

/// The one way to stop a server, cloneable for signal handlers and
/// watchers. The accept loop blocks in `accept`, so a stop is two steps
/// that only this type performs together: set the flag, then connect once
/// to the listener so the blocked `accept` returns and sees the flag.
#[derive(Debug, Clone)]
pub struct StopHandle {
    requested: Arc<AtomicBool>,
    /// The listener's own address, with an unspecified IP (`0.0.0.0`,
    /// `::`) replaced by loopback, which every such listener also accepts.
    wake: SocketAddr,
}

impl StopHandle {
    fn new(listening: SocketAddr) -> Self {
        let wake = match listening.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => {
                SocketAddr::new(Ipv4Addr::LOCALHOST.into(), listening.port())
            }
            IpAddr::V6(ip) if ip.is_unspecified() => {
                SocketAddr::new(Ipv6Addr::LOCALHOST.into(), listening.port())
            }
            _ => listening,
        };
        StopHandle { requested: Arc::new(AtomicBool::new(false)), wake }
    }

    /// Request a graceful stop: the accept loop closes, in-flight jobs
    /// finish, handler connections are closed. Safe to call more than
    /// once and from any thread; it returns without waiting for the stop.
    pub fn stop(&self) {
        self.requested.store(true, Ordering::SeqCst);
        // The wake-up connection carries nothing: the accept loop sees the
        // flag and drops it. It fails harmlessly once the listener is gone.
        let _ = TcpStream::connect(self.wake);
    }

    fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or [`StopHandle::stop`] on a clone
/// from [`ServerHandle::stop_handle`], or send `SHUTDOWN` over the wire),
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: StopHandle,
    metrics: Arc<ServeMetrics>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A stop handle for signal handlers and watchers: its
    /// [`StopHandle::stop`] stops the server exactly like
    /// [`ServerHandle::shutdown`].
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Live observability counters: completed/abandoned jobs, reclaimed
    /// cells, peak concurrency.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Request a graceful stop; see [`StopHandle::stop`].
    pub fn shutdown(&self) {
        self.stop.stop();
    }

    /// Block until the server has fully stopped.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Bind and start serving in background threads; returns once the socket
/// is listening. Fails on an unbindable address or an unusable store
/// directory.
pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
    let stores = match &config.store_dir {
        Some(dir) => Stores::open(dir)?,
        None => Stores::default(),
    };
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener.local_addr().map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let stop = StopHandle::new(addr);
    let scheduler = Scheduler::new(config.queue_cap);
    let metrics = Arc::clone(&scheduler.metrics);
    let accept = {
        let stop = stop.clone();
        thread::spawn(move || accept_loop(listener, stores, &config, scheduler, stop))
    };
    Ok(ServerHandle { addr, stop, metrics, accept: Some(accept) })
}

/// Everything a connection handler needs, shared across all of them.
struct Shared {
    scheduler: Arc<Scheduler>,
    stores: Stores,
    stop: StopHandle,
    /// Monotonically increasing job ids, for disconnect logs.
    next_job: AtomicU64,
}

fn accept_loop(
    listener: TcpListener,
    stores: Stores,
    config: &ServerConfig,
    scheduler: Arc<Scheduler>,
    stop: StopHandle,
) {
    let workers: Vec<_> = (0..config.threads.max(1))
        .map(|_| {
            let scheduler = Arc::clone(&scheduler);
            thread::spawn(move || scheduler.worker_loop())
        })
        .collect();
    let shared = Arc::new(Shared { scheduler, stores, stop, next_job: AtomicU64::new(0) });
    // Live connections, so shutdown can force-close them and unblock
    // their handlers' reads; each handler deregisters itself on exit.
    let live: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::default();
    let mut handlers = Vec::new();
    let mut next_id = 0u64;
    while !shared.stop.requested() {
        match listener.accept() {
            // The stop's wake-up connection, or a client that raced it.
            Ok(_) if shared.stop.requested() => break,
            Ok((stream, peer)) => {
                // `Reply` already coalesces each burst into one write;
                // Nagle would only hold its last partial segment for the
                // client's delayed ACK.
                if let Err(e) = stream.set_nodelay(true) {
                    eprintln!("warning: cannot set TCP_NODELAY for {peer}: {e}");
                }
                let id = next_id;
                next_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    live.lock().unwrap().push((id, clone));
                }
                let shared = Arc::clone(&shared);
                let live = Arc::clone(&live);
                handlers.push(thread::spawn(move || {
                    handle_connection(stream, peer, &shared);
                    live.lock().unwrap().retain(|(i, _)| *i != id);
                }));
            }
            Err(e) => {
                // Back off so a listener that keeps failing (EMFILE, say)
                // cannot spin.
                eprintln!("warning: accept failed: {e}");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Graceful stop: no new connections; force-close the live sockets to
    // unblock handler reads; close the scheduler — workers drain every
    // pending cell first, so a handler blocked on a result always wakes
    // (its subsequent writes fail and it bails) — then join everyone.
    for (_, stream) in live.lock().unwrap().iter() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    shared.scheduler.close();
    for worker in workers {
        let _ = worker.join();
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Write one reply line and its newline in a single call, so it leaves
/// as one segment.
fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

/// End a connection whose input broke the framing: over-long or non-UTF-8
/// input gets one `ERR` line before the hang-up, an I/O failure just the
/// hang-up. Shutting the write half down sends EOF before the socket
/// closes, so the client reads the `ERR` line and then EOF even though
/// the input it sent past the cap, still unread, resets the connection.
fn hang_up(stream: &mut TcpStream, e: &std::io::Error) {
    if e.kind() == ErrorKind::InvalidData {
        let _ = write_line(stream, &protocol::err_line(&e.to_string()));
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// Releases the admission ticket on every exit path.
struct Ticket<'a>(&'a Scheduler);

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Serve one connection: commands in, replies out, until EOF or a fatal
/// I/O error. Malformed input of every kind gets an `ERR` line and the
/// loop continues — a bad scenario never costs the client its connection.
/// Input that breaks the framing (a line over [`protocol::MAX_LINE_BYTES`],
/// a scenario over [`protocol::MAX_SCENARIO_BYTES`], bytes that are not
/// UTF-8) gets one `ERR` line and a hang-up, so no client can grow the
/// handler's buffers without bound.
fn handle_connection(stream: TcpStream, peer: SocketAddr, shared: &Shared) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    loop {
        let line = match protocol::read_line_capped(&mut reader, protocol::MAX_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => return, // client EOF
            Err(e) => return hang_up(&mut stream, &e),
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let reply_err = |stream: &mut TcpStream, msg: &str| -> std::io::Result<()> {
            write_line(stream, &protocol::err_line(msg))
        };
        if line == protocol::PING {
            if write_line(&mut stream, protocol::PONG).is_err() {
                return;
            }
        } else if line == protocol::SHUTDOWN {
            let _ = write_line(&mut stream, protocol::BYE);
            shared.stop.stop();
            return;
        } else if let Some(parsed) = protocol::parse_submit(line) {
            let submit = match parsed {
                Ok(submit) => submit,
                Err(e) => {
                    // Malformed SUBMIT arguments: the scenario block was
                    // never announced, so there is nothing to drain.
                    if reply_err(&mut stream, &e).is_err() {
                        return;
                    }
                    continue;
                }
            };
            let mut text = String::new();
            loop {
                let block_line =
                    match protocol::read_line_capped(&mut reader, protocol::MAX_LINE_BYTES) {
                        Ok(Some(line)) => line,
                        Ok(None) => return, // EOF mid-submission
                        Err(e) => return hang_up(&mut stream, &e),
                    };
                if block_line.trim_end_matches(['\r', '\n']) == protocol::END_MARKER {
                    break;
                }
                text.push_str(&block_line);
                if text.len() > protocol::MAX_SCENARIO_BYTES {
                    let msg =
                        format!("scenario longer than {} bytes", protocol::MAX_SCENARIO_BYTES);
                    return hang_up(&mut stream, &std::io::Error::new(ErrorKind::InvalidData, msg));
                }
            }
            let scenario = match text.parse::<Scenario>() {
                Ok(scenario) => scenario,
                Err(e) => {
                    if reply_err(&mut stream, &format!("invalid scenario: {e}")).is_err() {
                        return;
                    }
                    continue;
                }
            };
            match serve_submission(&mut stream, peer, shared, submit, scenario) {
                Served::Next => {}
                Served::Hangup => return,
            }
        } else {
            let head: String = line.chars().take(32).collect();
            if reply_err(&mut stream, &format!("unknown command {head} (SUBMIT|PING|SHUTDOWN)"))
                .is_err()
            {
                return;
            }
        }
    }
}

enum Served {
    /// Keep reading commands on this connection.
    Next,
    /// The connection is dead (or the server is stopping): hang up.
    Hangup,
}

/// Admit, prepare, and stream one submission. The handler thread owns the
/// response wire format; the worker pool owns the simulation.
fn serve_submission(
    stream: &mut TcpStream,
    peer: SocketAddr,
    shared: &Shared,
    submit: Submit,
    scenario: Scenario,
) -> Served {
    if let Err(active) = shared.scheduler.admit() {
        // Crude load-proportional hint: the busier the pool, the longer
        // the suggested wait.
        let retry_after_ms = 100 * active.max(1) as u64;
        let busy = protocol::busy_line(active, retry_after_ms);
        return if write_line(stream, &busy).is_err() { Served::Hangup } else { Served::Next };
    }
    let ticket = Ticket(&shared.scheduler);
    let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
    let mut spec = scenario.to_spec();
    spec.settings.threads = 1;
    spec.stores = shared.stores.clone();
    let prepared = Arc::new(spec.prepare());
    let entry = JobEntry::new(id, Arc::clone(&prepared));
    if shared.scheduler.enqueue(Arc::clone(&entry)).is_err() {
        let _ = write_line(stream, &protocol::err_line("server is shutting down"));
        return Served::Hangup;
    }
    let mut reply = Reply { writer: BufWriter::new(stream), broken: false };
    reply.line(&protocol::ok_line(prepared.jobs().len()));
    for index in 0..prepared.jobs().len() {
        let result = match prepared.result(index) {
            Some(result) => result,
            None => {
                // Send what is buffered before blocking on a cell that is
                // still running; a dead client shows here, before the wait.
                if !reply.flush() {
                    break;
                }
                match entry.wait_cell(index) {
                    Ok(result) => result,
                    Err(e) => {
                        // A worker died in one of our cells: reclaim the
                        // rest and report, but keep the connection usable.
                        // This is an internal failure, not a disconnect —
                        // `fail`, not `abandon`, so the abandonment
                        // metrics stay honest.
                        shared.scheduler.fail(&entry);
                        reply.line(&protocol::err_line(&e));
                        return if reply.flush() { Served::Next } else { Served::Hangup };
                    }
                }
            }
        };
        reply.line(&protocol::cell_line(&prepared.jobs()[index], &result));
    }
    if reply.broken {
        eprintln!("client {peer} disconnected mid-job {id}; reclaiming its unfinished cells");
        shared.scheduler.abandon(&entry);
        return Served::Hangup;
    }
    drop(ticket);
    let results = prepared.finish();
    let table = protocol::render_output(&results, submit.view, submit.format);
    reply.line(&protocol::table_header(table.len()));
    reply.raw(table.as_bytes());
    reply.line(&protocol::stats_line_served(&prepared.timing(), entry.queue_wait(), entry.wall()));
    reply.line(protocol::DONE);
    if !reply.flush() {
        eprintln!("client {peer} disconnected mid-job {id}");
        shared.scheduler.abandon(&entry);
        return Served::Hangup;
    }
    shared.scheduler.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
    Served::Next
}

/// Buffered response writer for one submission. Lines collect in the
/// buffer and leave only at [`Reply::flush`], which the handler calls
/// before it blocks on a running cell and once when the reply ends, so a
/// reply served from the result cache leaves in one write. Write errors
/// turn into a sticky no-op: a client that disconnects mid-stream stops
/// receiving, and the handler abandons the job so its pending cells are
/// reclaimed.
struct Reply<'a> {
    writer: BufWriter<&'a mut TcpStream>,
    broken: bool,
}

impl Reply<'_> {
    fn line(&mut self, line: &str) {
        self.raw(line.as_bytes());
        self.raw(b"\n");
    }

    fn raw(&mut self, bytes: &[u8]) {
        if !self.broken && self.writer.write_all(bytes).is_err() {
            self.broken = true;
        }
    }

    /// Send everything buffered; `false` once the client is gone.
    fn flush(&mut self) -> bool {
        if !self.broken && self.writer.flush().is_err() {
            self.broken = true;
        }
        !self.broken
    }
}
