//! The little the harness needs from the operating system: pinning the client
//! thread, the process's peak resident set, the VM's steal time, and the
//! machine fingerprint. Linux-only facts degrade to `None`/0 elsewhere.

use std::os::raw::{c_int, c_ulong};

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// Pin the calling thread to the highest-numbered CPU it is allowed on and
/// return that CPU. CPU 0 takes most interrupts, so the last one is the
/// quieter choice on a small VM.
pub fn pin_client_thread() -> Option<usize> {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let bits = c_ulong::BITS as usize;
    let cpu = (0..MASK_WORDS * bits)
        .rev()
        .find(|&c| mask[c / bits] >> (c % bits) & 1 == 1)?;
    let mut only = [0 as c_ulong; MASK_WORDS];
    only[cpu / bits] = 1 << (cpu % bits);
    // SAFETY: `only` is a readable buffer of exactly `bytes` bytes.
    if unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Fix glibc's mmap threshold at its initial 128 KiB.
///
/// Left alone, glibc raises the threshold every time a large block is freed,
/// after which blocks of that size come from the heap and are kept there. The
/// run's large transients — a reopen's crash image is a hash map of millions of
/// entries that doubles as it fills — then peak at one of two resident sizes
/// 14 % apart, depending on the order in which buffers of seed-dependent size
/// happened to be freed. With the threshold fixed every large block is mapped
/// when needed and unmapped when freed, and `peak_rss_mb` repeats. A no-op
/// where the allocator is not glibc's.
pub fn fix_malloc_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only sets an allocator parameter; called before
        // any other thread exists.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative steal time of the whole VM in clock ticks (`/proc/stat`, 8th
/// field of the `cpu` line), 0 when unknown.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Clock ticks per second of `/proc/stat` (USER_HZ is 100 on every Linux the
/// benchmark runs on).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `rustc -V` of the toolchain on `PATH`, or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Number of CPUs online in this machine (not the affinity mask, which
/// pinning narrows to one).
pub fn nproc() -> usize {
    let listed = std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    if listed > 0 {
        listed
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}
