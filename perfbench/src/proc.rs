//! Process-level probes: CPU time, resident memory and thread count,
//! read from `getrusage(2)` and `/proc/self`.

use std::time::Duration;

/// User + system CPU time this process has used so far.
pub fn cpu_time() -> Duration {
    // SAFETY: `getrusage` fills the zeroed out-parameter; RUSAGE_SELF is
    // always a valid target.
    let usage = unsafe {
        let mut usage: libc::rusage = std::mem::zeroed();
        if libc::getrusage(libc::RUSAGE_SELF, &mut usage) != 0 {
            return Duration::ZERO;
        }
        usage
    };
    let tv = |t: libc::timeval| {
        Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
    };
    tv(usage.ru_utime) + tv(usage.ru_stime)
}

/// One numeric field of `/proc/self/status` (`VmRSS`, `VmHWM` in kB,
/// `Threads` as a count).
pub fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

pub fn rss_bytes() -> u64 {
    status_field("VmRSS").unwrap_or(0) * 1024
}

pub fn peak_rss_bytes() -> u64 {
    status_field("VmHWM").unwrap_or(0) * 1024
}

pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a fresh memory high-water mark: hands freed heap back to the
/// kernel (so input preparation leaves no resident residue), then resets
/// `VmHWM` to the current RSS. Fails where `/proc/self/clear_refs` is not
/// writable, since the peak would then include preparation.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim only releases free pages; any pad is valid.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// On-CPU time (ns) of every live thread of this process, from
/// `/proc/self/task/<tid>/schedstat`, as `(tid, ns)` pairs.
pub fn thread_cpu_ns() -> Vec<(u64, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// Highest thread id of this process right now.
pub fn max_tid() -> u64 {
    thread_cpu_ns()
        .iter()
        .map(|&(tid, _)| tid)
        .max()
        .unwrap_or(0)
}
