//! Core placement for the closed-loop runs.
//!
//! On the two-core machine the benchmark is sized for, the scheduler's
//! wake-up placement otherwise decides run by run whether a woken client
//! or the accept thread lands on the worker's core and preempts it, which
//! moved throughput by 15% between identical runs. Pinning fixes the
//! layout the load sizing assumes: the server's `/eval` worker owns the
//! second allowed core; the accept thread, the server's other threads and
//! the client threads share the first. With fewer than two allowed cores
//! nothing is pinned.

use std::fs;

/// `cpu_set_t` as glibc defines it: 1024 bits.
const CPU_SET_WORDS: usize = 16;
type CpuSet = [u64; CPU_SET_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The first two cores this process may run on: (shared, worker).
pub fn cores() -> Option<(usize, usize)> {
    let mut mask: CpuSet = [0; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let mut allowed =
        (0..CPU_SET_WORDS * 64).filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0);
    Some((allowed.next()?, allowed.next()?))
}

/// Pins thread `tid` (0: the calling thread) to `cpu`.
fn pin(tid: i32, cpu: usize) -> bool {
    let mut mask: CpuSet = [0; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; an
    // unknown or exited `tid` only makes the call fail.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// Pins the calling thread to the shared core.
pub fn pin_client() {
    if let Some((shared, _)) = cores() {
        pin(0, shared);
    }
}

/// Pins the `/eval` worker threads of server process `pid` to the worker
/// core and its other threads to the shared core. Returns how many worker
/// threads were found.
pub fn place_server(pid: u32) -> usize {
    let Some((shared, worker)) = cores() else {
        return 0;
    };
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    let mut workers = 0;
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        let name = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        // Workers are named `uavail-eval-<index>`; the supervisor shares
        // the prefix but not the numeric suffix.
        let is_worker = name
            .trim()
            .strip_prefix("uavail-eval-")
            .is_some_and(|index| !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()));
        if is_worker {
            workers += usize::from(pin(tid, worker));
        } else {
            pin(tid, shared);
        }
    }
    workers
}
