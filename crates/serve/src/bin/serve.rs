//! `serve` — run the sweep job server.
//!
//! ```text
//! Usage: serve [options]
//!
//! Options:
//!   --addr HOST:PORT  Bind address (port 0 picks a free port; the
//!                     actual address is printed to stderr)
//!                                          [default: 127.0.0.1:7014]
//!   --store DIR       Persist captured traces (DIR/traces) and finished
//!                     per-cell results (DIR/results) under DIR; without
//!                     it the server runs fully in-memory
//!   --threads N       Simulation worker threads, shared by all in-flight
//!                     jobs                 [default: all hardware threads]
//!   --queue N         Max concurrent jobs; further submissions get a
//!                     graceful "ERR server busy" reply with a
//!                     RETRY-AFTER hint                       [default: 16]
//!   --no-stdin-exit   Do not shut down on stdin EOF (for running the
//!                     server in the background with stdin closed)
//! ```
//!
//! The server stops gracefully — in-flight jobs finish, connections are
//! closed — on SIGINT/SIGTERM, on stdin EOF (unless `--no-stdin-exit`),
//! or on a `SHUTDOWN` protocol command from any client.

use std::process::ExitCode;

use vpsim_serve::{start, ServerConfig};

#[cfg(unix)]
mod sig {
    use std::fs::File;
    use std::io::{self, Read};
    use std::os::fd::FromRawFd;
    use std::sync::atomic::{AtomicI32, Ordering};

    /// Write end of the self-pipe, taken by the first signal (-1 before
    /// [`install`] and after it).
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_signal(_signum: i32) {
        // Only the first signal writes: one byte wakes the watcher, so the
        // blocking pipe never fills and the handler never blocks.
        let fd = WAKE_FD.swap(-1, Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: write(2) is async-signal-safe and reads one byte of a
            // static.
            unsafe {
                write(fd, &1u8, 1);
            }
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn pipe(fds: *mut i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// Make the self-pipe and route SIGINT (2) and SIGTERM (15) into it:
    /// the handler writes one byte, and [`wait`] on the returned read end
    /// wakes as soon as it arrives.
    pub fn install() -> io::Result<File> {
        let mut fds = [-1i32; 2];
        // SAFETY: `fds` has room for the two descriptors pipe(2) writes.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        WAKE_FD.store(fds[1], Ordering::SeqCst);
        for signum in [2, 15] {
            // SAFETY: `on_signal` only swaps an atomic and calls write(2).
            unsafe {
                signal(signum, on_signal as *const () as usize);
            }
        }
        // SAFETY: pipe(2) just opened `fds[0]`, and nothing else owns it.
        Ok(unsafe { File::from_raw_fd(fds[0]) })
    }

    /// Block until a signal has written its byte.
    pub fn wait(mut pipe: File) -> io::Result<()> {
        // `read_exact` retries a read the signal itself interrupted.
        pipe.read_exact(&mut [0u8; 1])
    }
}

struct Options {
    config: ServerConfig,
    stdin_exit: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut config = ServerConfig { addr: "127.0.0.1:7014".into(), ..ServerConfig::default() };
    let mut stdin_exit = true;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = val()?.clone(),
            "--store" => config.store_dir = Some(val()?.into()),
            "--threads" => {
                config.threads =
                    val()?.parse().map_err(|_| "--threads requires a number".to_string())?
            }
            "--queue" => {
                config.queue_cap =
                    val()?.parse().map_err(|_| "--queue requires a number".to_string())?
            }
            "--no-stdin-exit" => stdin_exit = false,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if config.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(Options { config, stdin_exit })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: serve [options]; see the source header for details");
            return ExitCode::FAILURE;
        }
    };
    // Route signals before the server starts, so one that arrives while it
    // binds is held in the pipe rather than killing the process.
    #[cfg(unix)]
    let signals = match sig::install() {
        Ok(pipe) => pipe,
        Err(e) => {
            eprintln!("error: signal pipe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let store = options.config.store_dir.clone();
    let handle = match start(options.config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("listening on {}", handle.addr());
    match &store {
        Some(dir) => eprintln!("stores under {}", dir.display()),
        None => eprintln!("no --store directory: running in-memory only"),
    }

    // Every shutdown path goes through a clone of the server's stop
    // handle, which both sets its flag and wakes its blocking accept.
    #[cfg(unix)]
    {
        let stop = handle.stop_handle();
        std::thread::spawn(move || match sig::wait(signals) {
            Ok(()) => stop.stop(),
            Err(e) => eprintln!("signal pipe failed, SIGINT/SIGTERM will not stop the server: {e}"),
        });
    }
    if options.stdin_exit {
        let stop = handle.stop_handle();
        std::thread::spawn(move || {
            // Drain stdin; EOF means whoever launched us has hung up.
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut sink);
            stop.stop();
        });
    }

    handle.join();
    eprintln!("server stopped");
    ExitCode::SUCCESS
}
