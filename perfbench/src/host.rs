//! Host fingerprint printed with every result, and the process's peak
//! resident memory.

use std::fmt::Write as _;

/// Everything a figure depends on besides the code: machine, toolchain,
/// build profile and the thread count the program's pool runs with.
pub fn fingerprint(threads: usize) -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"nproc\": {nproc}, \"available_parallelism\": {available}, \"cpu_model\": {}, \
         \"rustc\": {}, \"git_rev\": {}, \"source_hash\": {}, \"profile\": {}, \
         \"threads\": {threads}",
        quote(&cpu),
        quote(env!("PERFBENCH_RUSTC")),
        quote(env!("PERFBENCH_GIT_REV")),
        quote(env!("PERFBENCH_SRC_HASH")),
        quote(env!("PERFBENCH_PROFILE")),
    );
    out.push('}');
    out
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets `VmHWM` so the next workload of a multi-workload run reports its
/// own peak. Best effort: kernels without the interface keep the
/// process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
