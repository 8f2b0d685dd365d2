//! Process-level measurements read from `/proc/self`: CPU time, thread
//! count and peak resident set size.

use std::fs;

/// Clock ticks per second of `utime`/`stime` in `/proc/self/stat`
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) consumed by every thread of this process so
/// far, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Number of threads of this process.
pub fn threads() -> u64 {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count() as u64)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
