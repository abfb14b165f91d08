//! What the process can say about the machine it ran on and the memory
//! it used.

use std::fs;

fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set so far, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Current resident set, bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0) * 1024.0
}

/// Load threads a workload may use: never more than the host has.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `{"nproc":..,"cpu":..,"kernel":..,"rustc":..}` for the report files.
/// `rustc` is handed in by `run.sh` (the binary does not shell out).
pub fn fingerprint_json() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::env::var("CBAT_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{},\"cpu\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\"}}",
        nproc(),
        escape(&cpu),
        escape(&kernel),
        escape(&rustc)
    )
}

/// Minimal JSON string escaping (the inputs are one-line host strings).
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
