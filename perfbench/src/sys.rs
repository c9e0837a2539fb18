//! Process probes the standard library lacks (Linux): the CPU set,
//! pinning to one CPU, process CPU time and peak resident set size.

use std::io;

/// `cpu_set_t` is a 1024-bit mask.
const CPU_SET_BYTES: usize = 128;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..CPU_SET_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect())
}

/// Confine the calling thread, and every thread it spawns afterwards,
/// to `cpu`.
pub fn pin_to(cpu: usize) -> io::Result<()> {
    if cpu >= CPU_SET_BYTES * 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu out of range",
        ));
    }
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// User + system CPU time of the whole process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
    Ok(kb / 1024.0)
}
