//! The `serve` binary stops cleanly on SIGTERM and on SIGINT.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Start a fresh server on a free port, send it `SIG<signal>` with `kill`
/// once it listens, and check that it exits with success.
fn stops_on(signal: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--no-stdin-exit", "--threads", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    // Held open until the server exits: it reports its stop on stderr.
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut line = String::new();
    // The signal handlers are installed before the server prints this.
    while !line.starts_with("listening on") {
        line.clear();
        let n = stderr.read_line(&mut line).expect("read serve's stderr");
        assert!(n > 0, "serve exited before listening");
    }

    let kill = Command::new("kill")
        .arg(format!("-{signal}"))
        .arg(child.id().to_string())
        .status()
        .expect("kill runs");
    assert!(kill.success(), "kill -{signal} failed");

    // A generous deadline: the host is shared, and this checks that the
    // signal stops the server at all, not how fast.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for serve") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("serve still running 30 s after SIG{signal}");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "serve exited with {status} after SIG{signal}");
}

#[test]
fn sigterm_stops_the_server() {
    stops_on("TERM");
}

#[test]
fn sigint_stops_the_server() {
    stops_on("INT");
}
