//! Host measurements: process CPU time, peak RSS, and the host-information
//! header printed above every report.
//!
//! Both system calls are bound std-only through `extern "C"`, the same way
//! the store layer binds `mmap`. The declarations match the 64-bit Linux
//! ABI (`time_t`, `long` and `suseconds_t` are all 64 bits wide), so they
//! are compiled only there.

use std::process::Command;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    #[repr(C)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage`: two timevals followed by fourteen `long`s.
    #[repr(C)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// CPU time consumed by every thread of this process so far (user +
/// system), from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu() -> Duration {
    let mut ts = sys::Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the 64-bit
    // Linux ABI, and the clock id is a constant the kernel accepts.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process in MB (the kernel's RSS
/// high-water mark, `VmHWM`, as `getrusage` reports it in KiB).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    let zero = sys::Timeval { tv_sec: 0, tv_usec: 0 };
    let mut usage = sys::Rusage {
        ru_utime: zero,
        ru_stime: sys::Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the 64-bit
    // Linux ABI; RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.ru_maxrss as f64 / 1024.0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench measures process CPU time and peak RSS through the 64-bit Linux ABI");

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DD HH:MM:SS` (UTC) for a Unix timestamp.
pub fn utc_datetime(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (H. Hinnant), valid for every date after 1970.
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02} {:02}:{:02}:{:02}",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// The host-information table printed at the top of every report.
pub fn header() -> String {
    let now = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let rows = [
        ("Architecture", std::env::consts::ARCH.to_string()),
        ("OS", std::env::consts::OS.to_string()),
        ("nproc", nproc().to_string()),
        ("Rust", command_line("rustc", &["-V"])),
        ("Git rev", command_line("git", &["rev-parse", "--short=12", "HEAD"])),
        ("Date (UTC)", utc_datetime(now)),
        ("Build profile", profile.to_string()),
    ];
    let width = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0).max(5);
    let mut out = String::from("## System Information\n\n");
    out.push_str(&format!("| Property      | {:<width$} |\n", "Value"));
    out.push_str(&format!("|---------------|-{}-|\n", "-".repeat(width)));
    for (k, v) in rows {
        out.push_str(&format!("| {k:<13} | {v:<width$} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_datetime_matches_known_instants() {
        assert_eq!(utc_datetime(0), "1970-01-01 00:00:00");
        assert_eq!(utc_datetime(951_782_400), "2000-02-29 00:00:00");
        assert_eq!(utc_datetime(1_792_126_159), "2026-10-16 04:49:19");
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
