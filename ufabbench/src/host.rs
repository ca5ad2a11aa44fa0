//! What the host says about a process and about itself: CPU time,
//! peak resident memory, core count, CPU model, toolchain.

use crate::json::Json;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI Rust targets; std has no `sysconf`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of all threads (live and reaped) from the
/// text of `/proc/<pid>/stat`. The command name may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kb_from_status(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds this process has used so far (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .expect("/proc/self/stat unreadable")
}

/// Peak resident set of this process in MB (of 1024 kB, the kernel's kB
/// being 1024 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kb_from_status(&s))
        .expect("/proc/self/status unreadable") as f64
        / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The part of a result file's provenance that does not depend on the
/// run's arguments.
pub fn provenance() -> Vec<(&'static str, Json)> {
    vec![
        ("git_rev", Json::from(bench::report::git_rev())),
        ("dirty", Json::Bool(bench::report::git_dirty())),
        ("nproc", Json::from(nproc() as u64)),
        ("cpu_model", Json::from(cpu_model())),
        ("rustc", Json::from(rustc_version())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_comm() {
        let stat = "4242 (ufab) bench (x)) R 1 4242 4242 0 -1 4194304 1691 0 0 0 \
                    137 12 0 0 20 0 3 0 8337 1234567 890 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(cpu_seconds_from_stat(stat), Some(1.49));
        assert_eq!(cpu_seconds_from_stat("1 (x) R 1 2"), None);
        assert_eq!(cpu_seconds_from_stat("no parens"), None);
    }

    #[test]
    fn status_parser_reads_hwm() {
        let status =
            "Name:\tufabbench\nVmPeak:\t  200000 kB\nVmHWM:\t   28176 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kb_from_status(status), Some(28176));
        assert_eq!(vm_hwm_kb_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }
}
