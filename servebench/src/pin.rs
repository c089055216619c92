//! Pinning the serving threads to one CPU.
//!
//! In a closed loop the client and the service worker hand each query
//! back and forth, and one of them always waits. On different CPUs
//! each hand-off wakes a sleeping CPU, and on a shared virtual machine
//! that wake-up waits on the host's scheduler: it added milliseconds
//! per query, and changed with the host's load from minute to minute.
//! On one CPU a hand-off is a context switch.

use std::os::raw::c_int;

/// Words of the CPU mask (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getcpu() -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// The calling thread pinned to one CPU; dropping it restores the
/// thread's previous CPU mask. Threads it spawns meanwhile inherit the
/// pin.
pub struct Pinned([u64; WORDS]);

/// Pin the calling thread to the CPU it runs on, or `None` if the
/// system refuses.
pub fn here() -> Option<Pinned> {
    let mut old = [0u64; WORDS];
    // SAFETY: both masks are `WORDS` words long, as the size says; pid
    // 0 names the calling thread.
    unsafe {
        if sched_getaffinity(0, WORDS * 8, old.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = usize::try_from(sched_getcpu()).ok()?;
        if cpu >= WORDS * 64 {
            return None;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        if sched_setaffinity(0, WORDS * 8, mask.as_ptr()) != 0 {
            return None;
        }
    }
    Some(Pinned(old))
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: as in `here`.
        unsafe {
            sched_setaffinity(0, WORDS * 8, self.0.as_ptr());
        }
    }
}
