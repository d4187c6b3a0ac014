//! Host-side readings: process CPU time and peak memory from
//! `/proc/self`, and a fixed calibration kernel that scores the machine.

use std::hint::black_box;
use std::time::Instant;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, fixed at 100.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of every thread of this process, from
/// fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks =
        |i: usize| -> f64 { fields[i - 3].parse::<u64>().expect("numeric CPU ticks") as f64 };
    (ticks(14) + ticks(15)) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Score of a fixed single-thread integer kernel, in million iterations
/// per second (median of three). Informational: it describes the host
/// next to the metrics and gates nothing.
pub fn calibration_mops() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut scores: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for i in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            ITERS as f64 / start.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    scores.sort_by(f64::total_cmp);
    scores[1]
}
