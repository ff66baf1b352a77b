//! What the benchmark needs to know about, and ask of, the machine it runs
//! on: CPU pinning, peak memory, identification of the host in results.

use std::time::{SystemTime, UNIX_EPOCH};

/// Nanoseconds since the Unix epoch. Spans recorded by different processes
/// (driver, workload child, proc workers) are merged on this clock.
pub fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock is before 1970")
        .as_nanos() as u64
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Bytes in the CPU mask handed to the kernel (1024 CPUs).
    const MASK_BYTES: usize = 128;

    // libc is already linked into every Rust binary on Linux; declaring the
    // two calls avoids a crate the offline build does not have.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        // The highest allowed CPU: CPU 0 is where interrupts and the rest of
        // the system's housekeeping tend to land.
        let cpu = (0..MASK_BYTES * 8).rfind(|c| mask[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = [0u8; MASK_BYTES];
        one[cpu / 8] = 1 << (cpu % 8);
        // SAFETY: `one` is a live buffer of exactly the size passed and is
        // only read; pid 0 names the calling thread.
        (unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } == 0).then_some(cpu)
    }
}

/// Restrict the calling thread — and every thread or process it starts
/// afterwards — to the last CPU it is currently allowed on. Returns that CPU, or
/// `None` when pinning is unavailable (non-Linux, or the call failed);
/// results then record `pinned = false`. Call before any pool or worker
/// thread exists: threads already running keep their own mask.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        affinity::pin_to_one_cpu()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|rest| rest.trim_start_matches([':', ' ', '\t']).trim().to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model string for the results header.
pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

/// CPUs this process may run on right now (honours an affinity mask).
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(stolen, total)` CPU time so far, in clock ticks summed over all CPUs,
/// from the first line of `/proc/stat`. "Stolen" is time a virtual CPU was
/// runnable but the hypervisor ran someone else: on a shared host it is the
/// one disturbance no pinning or repetition inside the guest can remove, so
/// every run reports the share it lost (`host.steal_pct`).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let line = proc_field("/proc/stat", "cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Percent of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_elapsed_ticks() {
        assert_eq!(steal_pct(Some((10, 1000)), Some((60, 2000))), 5.0);
        assert_eq!(steal_pct(Some((10, 1000)), Some((10, 1000))), 0.0);
        assert_eq!(steal_pct(None, Some((1, 2))), 0.0);
        if cfg!(target_os = "linux") {
            let (steal, total) = cpu_ticks().expect("/proc/stat");
            assert!(steal <= total && total > 0);
        }
    }

    #[test]
    fn host_facts_are_sane() {
        assert!(epoch_ns() > 1_600_000_000_000_000_000);
        assert!(parallelism() >= 1);
        assert!(!cpu_model().is_empty());
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    /// Pinning narrows what `available_parallelism` reports to one CPU —
    /// the property the simulator workloads rely on for a width-1 kernel
    /// pool. Runs on its own thread so the test harness thread keeps its
    /// mask.
    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_narrows_parallelism_to_one() {
        let seen = std::thread::spawn(|| pin_to_one_cpu().map(|_| parallelism()))
            .join()
            .expect("pin thread");
        if let Some(p) = seen {
            assert_eq!(p, 1);
        }
    }
}
