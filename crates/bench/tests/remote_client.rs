//! The `sweep --remote` client against a hostile server: a reply whose
//! framing lies about its payload must come back as an `Err`, never as a
//! panic or an allocation sized by the server's claim.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;

use vpsim_bench::protocol::{Format, View, END_MARKER};
use vpsim_bench::remote;
use vpsim_bench::scenario::preset;

/// A one-shot server on an ephemeral port: it reads one request up to
/// its `END` line, sends `reply` verbatim and hangs up.
fn fake_server(reply: &'static [u8]) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept the client");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 && line.trim_end() != END_MARKER {
            line.clear();
        }
        let mut stream = stream;
        let _ = stream.write_all(reply);
    });
    (addr, server)
}

fn submit_to(reply: &'static [u8]) -> Result<remote::RemoteOutcome, String> {
    let (addr, server) = fake_server(reply);
    let scenario = preset("smoke").expect("smoke preset exists");
    let outcome = remote::submit(&addr, &scenario, View::Long, Format::Csv, |_| {});
    server.join().expect("fake server ran");
    outcome
}

#[test]
fn lying_table_headers_are_errors_not_panics() {
    // A length no allocator can satisfy, and a payload cut short.
    for (reply, expected) in [
        (&b"OK 1\nTABLE 9223372036854775808\n"[..], "truncated table payload: 0 of"),
        (&b"OK 1\nTABLE 10\nabc"[..], "truncated table payload: 3 of 10 bytes"),
    ] {
        let err = submit_to(reply).unwrap_err();
        assert!(err.contains(expected), "{err}");
    }
}
