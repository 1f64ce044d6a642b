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
use std::time::Duration;

use vpsim_serve::{start, ServerConfig};

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Route SIGINT (2) and SIGTERM (15) into a flag the main thread can
    /// poll; only async-signal-safe work happens in the handler itself.
    pub fn install() {
        for signum in [2, 15] {
            unsafe {
                signal(signum, on_signal as *const () as usize);
            }
        }
    }

    pub fn pending() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
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
        sig::install();
        let stop = handle.stop_handle();
        std::thread::spawn(move || loop {
            if sig::pending() {
                stop.stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
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
