//! Keeping a lane's threads on the CPU its baton is on.
//!
//! A lane runs one thread at a time, but each user-level thread is an OS
//! thread, and the OS places every woken thread wherever it likes: when
//! another core is idle — which, now that idle lanes sleep, it often is
//! — each baton hand-off lands on the *other* core, and the lane's
//! shared state (run queue, thread directory, counters) ping-pongs
//! between two caches on every context switch. Spinning lanes used to
//! hide this by never leaving a core idle.
//!
//! So a busy lane behaves like the single processor it models: a
//! thread granted the baton is confined, before it is woken, to the CPU
//! the lane is on (one `sched_setaffinity` per thread *per change of
//! CPU* — none in steady state). Which CPU that is remains the kernel's
//! decision, made with the whole machine in view: the lane *floats* —
//! releases its baton holder and adopts wherever the kernel runs it —
//! after every sleep, whenever a thread is re-dispatched to itself, and
//! every few hundred switches regardless (`Vp::follow_baton`). Errors
//! are ignored: this is a placement hint.
//!
//! Linux only; elsewhere every call is a no-op. The whole module goes
//! away when a lane becomes one OS thread (ROADMAP item 3).

use std::sync::atomic::{AtomicI32, Ordering};

/// "No CPU": a lane that has not adopted one, a thread not confined.
pub(crate) const NO_CPU: i32 = -1;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub const SET_BYTES: usize = 128;

    extern "C" {
        pub fn sched_getcpu() -> i32;
        pub fn gettid() -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    }
}

/// The CPUs this process may use, captured once per VP, or `None` when
/// confinement is pointless (one CPU) or unavailable.
#[derive(Clone)]
pub(crate) struct Allowed {
    #[cfg(target_os = "linux")]
    mask: [u8; sys::SET_BYTES],
}

impl Allowed {
    #[cfg(target_os = "linux")]
    pub fn capture() -> Option<Allowed> {
        let mut mask = [0u8; sys::SET_BYTES];
        // Safety: `mask` is a live buffer of the size passed.
        let r = unsafe { sys::sched_getaffinity(0, sys::SET_BYTES, mask.as_mut_ptr()) };
        let cpus: u32 = mask.iter().map(|b| b.count_ones()).sum();
        (r == 0 && cpus > 1).then_some(Allowed { mask })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn capture() -> Option<Allowed> {
        None
    }
}

/// The calling OS thread's kernel id (for [`confine`]).
pub(crate) fn os_tid() -> i32 {
    #[cfg(target_os = "linux")]
    // Safety: no arguments, no preconditions.
    unsafe {
        sys::gettid()
    }
    #[cfg(not(target_os = "linux"))]
    0
}

/// The CPU the calling thread is running on, or [`NO_CPU`].
pub(crate) fn current_cpu() -> i32 {
    #[cfg(target_os = "linux")]
    // Safety: no arguments, no preconditions.
    unsafe {
        sys::sched_getcpu()
    }
    #[cfg(not(target_os = "linux"))]
    NO_CPU
}

/// Confine OS thread `tid` to `cpu`, remembering it in `pinned` so the
/// call is skipped while nothing changes.
pub(crate) fn confine(tid: i32, pinned: &AtomicI32, cpu: i32) {
    if cpu == NO_CPU || pinned.load(Ordering::Relaxed) == cpu {
        return;
    }
    #[cfg(target_os = "linux")]
    if (cpu as usize) < sys::SET_BYTES * 8 {
        let mut mask = [0u8; sys::SET_BYTES];
        mask[cpu as usize / 8] = 1 << (cpu as usize % 8);
        // Safety: `mask` is a live buffer of the size passed.
        if unsafe { sys::sched_setaffinity(tid, sys::SET_BYTES, mask.as_ptr()) } == 0 {
            pinned.store(cpu, Ordering::Relaxed);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = tid;
}

/// Release OS thread `tid`'s confinement (0 = the calling thread), if
/// it has one, back to `allowed`.
pub(crate) fn release(tid: i32, pinned: &AtomicI32, allowed: &Allowed) {
    if pinned.load(Ordering::Relaxed) == NO_CPU {
        return;
    }
    #[cfg(target_os = "linux")]
    // Safety: `mask` is a live buffer of the size passed.
    unsafe {
        sys::sched_setaffinity(tid, sys::SET_BYTES, allowed.mask.as_ptr());
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (tid, allowed);
    pinned.store(NO_CPU, Ordering::Relaxed);
}
