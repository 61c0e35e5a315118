//! The host side of a result: CPU pinning, process accounting, and the
//! fingerprint every result carries so two runs can be judged comparable.

use crate::json::Value;
use std::process::Command;

mod sys {
    //! `extern "C"` against the libc `std` already links (as `vendor/minipoll`
    //! does for epoll) — the container has no `libc` crate.
    use std::os::raw::{c_int, c_long};

    /// glibc's fixed-size CPU mask: 1024 bits.
    pub const MASK_WORDS: usize = 16;

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: c_long,
        pub usec: c_long,
    }

    /// `struct rusage` on Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss_kb: c_long,
        pub unused: [c_long; 11],
        pub nvcsw: c_long,
        pub nivcsw: c_long,
    }

    pub const RUSAGE_SELF: c_int = 0;
    pub const M_TRIM_THRESHOLD: c_int = -1;
    pub const M_TOP_PAD: c_int = -2;
    pub const M_MMAP_THRESHOLD: c_int = -3;

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        pub fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
    }
}

/// Pins the calling thread — and every thread it spawns afterwards — to the
/// highest-numbered CPU its affinity mask allows (CPU 0 takes most of a small
/// VM's interrupts). Returns the CPU, or `None` when the kernel refuses.
///
/// There is no `taskset` fallback: `taskset` is the same system call, so
/// wherever this fails it fails too.
pub fn pin_to_one_cpu() -> Option<u32> {
    let mut mask = [0u64; sys::MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..(sys::MASK_WORDS * 64) as u32)
        .rev()
        .find(|&c| mask[c as usize / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; sys::MASK_WORDS];
    one[cpu as usize / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the kernel
    // only reads.
    (unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// Fixes glibc malloc's trim, top-pad and mmap thresholds, which are
/// otherwise adjusted on the fly from the sizes the process happens to free.
/// Why: with the dynamic defaults `olap.scan` (200 000 small allocations per
/// query, all freed at its end) runs in modes of ~66, ~74 or ~81 queries/s
/// that last for seconds, depending on whether each query's frees trim the
/// heap and the next query faults it back in. Fixed, every run sits at 82-83.
/// Like pinning, this removes a bimodal host effect; it is the same on both
/// sides of any comparison. Call it before the first large allocation.
pub fn fix_allocator_thresholds() -> bool {
    // SAFETY: `mallopt` only stores tuning integers in the allocator's own
    // state; it is called once, before any other thread exists.
    unsafe {
        sys::mallopt(sys::M_TRIM_THRESHOLD, i32::MAX) == 1
            && sys::mallopt(sys::M_TOP_PAD, 64 << 20) == 1
            && sys::mallopt(sys::M_MMAP_THRESHOLD, 32 << 20) == 1
    }
}

/// Process accounting since start, all threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    pub user_us: u64,
    pub sys_us: u64,
    pub ctx_switches: u64,
    pub peak_rss_mb: f64,
}

pub fn proc_usage() -> ProcUsage {
    let mut ru = sys::Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout Linux
    // fills; the call writes nothing beyond it.
    if unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) } != 0 {
        return ProcUsage::default();
    }
    let us = |t: &sys::Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    ProcUsage {
        user_us: us(&ru.utime),
        sys_us: us(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
    }
}

/// One-minute load average, or -1 where `/proc` is absent.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Outside a git work tree `git` would walk up and report some other
    // repository's commit.
    if program == "git" && !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fields that say where and on what a result was measured.
/// `nproc` is read before pinning: afterwards the affinity mask says 1.
pub fn fingerprint(nproc: u64, pinned_cpu: Option<u32>, load_before: f64) -> Value {
    Value::obj([
        ("nproc", nproc.into()),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Value::Null, |c| u64::from(c).into()),
        ),
        ("loadavg_before", load_before.into()),
        ("loadavg_after", loadavg().into()),
        (
            "git_sha",
            command_line("git", &["rev-parse", "--short", "HEAD"])
                .as_str()
                .into(),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).as_str().into(),
        ),
    ])
}
