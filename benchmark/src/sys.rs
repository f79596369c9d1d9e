//! What the benchmark asks of the operating system: a clean environment,
//! process CPU time and peak memory from `/proc`, one-core pinning through
//! `taskset`, and the facts recorded beside every result.

use std::process::Command;

/// Removes every `SECNDP_*` variable from this process, and so from every
/// child it spawns. The knobs silently change what is measured
/// (`SECNDP_PAD_CACHE_BLOCKS`, `SECNDP_TRANSPORT`, …). Call before any
/// thread exists.
pub fn scrub_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("SECNDP_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

/// utime + stime of this process in seconds (`/proc/self/stat` fields 14
/// and 15, in USER_HZ ticks, which Linux fixes at 100 for user space).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) / 100.0
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status_field(&status, "VmHWM:")
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

/// Restarts `VmHWM` at the current resident size (`clear_refs` value 5).
/// Returns whether the kernel allowed it; if not, the mark keeps covering
/// everything since the process started, which the caller records.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(str::trim)
}

/// The last CPU of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`.
fn last_cpu(list: &str) -> Option<u32> {
    list.rsplit([',', '-']).next()?.trim().parse().ok()
}

/// Pins every thread of this process (and so every later thread and child)
/// to one of its allowed cores. Returns whether the pin was applied;
/// `false` when `taskset` is missing, which callers report as
/// `pinned=false` instead of measuring an unpinned run silently.
pub fn pin_to_one_core() -> bool {
    let Some(cpu) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "Cpus_allowed_list:").and_then(last_cpu))
    else {
        return false;
    };
    Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu.to_string()])
        .arg(std::process::id().to_string())
        .output()
        .is_ok_and(|o| o.status.success())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First line of a command's standard output, or `unknown`.
pub fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_an_allowed_list() {
        assert_eq!(last_cpu("0-1"), Some(1));
        assert_eq!(last_cpu("3"), Some(3));
        assert_eq!(last_cpu("0,2-7"), Some(7));
        assert_eq!(last_cpu("0-3,9"), Some(9));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }
}
