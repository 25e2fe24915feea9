//! Guard-paged, lazily committed stacks for user-level contexts.
//!
//! A stack is one anonymous private mapping: the lowest page stays
//! `PROT_NONE` (the guard), the rest is read-write. The mapping is
//! reserved with `MAP_NORESERVE`, so only the pages a thread has
//! actually touched are resident — a 2 MiB stack whose thread never
//! goes deeper than 12 KiB costs three pages, not five hundred. Stacks
//! grow downwards on both supported architectures, so an overflow runs
//! into the guard page and the process dies by `SIGSEGV`; it can never
//! write into whatever happens to be mapped below (the compiler's stack
//! probes touch every page of a large frame in order, so a frame cannot
//! step over the guard either).
//!
//! Stacks of the default size are recycled through a small process-wide
//! pool: a recycled stack costs no system call and its hot pages are
//! already resident. Everything else is unmapped on drop.
//!
//! The vendor tree has no `libc`; the four calls needed are declared by
//! hand, the way `chant-comm`'s `transport/sys.rs` declares epoll.

use std::io;
use std::ptr::NonNull;

use parking_lot::Mutex;

/// Stack size when [`crate::SpawnAttr::stack_size`] is not set: what a
/// `std::thread` gets by default, so code that ran on an OS-thread-backed
/// ULT runs on this one.
pub(crate) const DEFAULT_STACK_SIZE: usize = 2 * 1024 * 1024;

/// Smallest usable stack: the scheduler, a hook sweep and the start of a
/// panic all run on the departing thread's stack.
const MIN_STACK_SIZE: usize = 16 * 1024;

/// Default-size stacks kept for reuse. Bounds what the pool can pin:
/// at most this many stacks' worth of touched pages stay resident.
const POOL_CAP: usize = 32;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;
const SC_PAGESIZE: i32 = 30;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn sysconf(name: i32) -> isize;
}

fn page_size() -> usize {
    // SAFETY: `sysconf` takes no pointers and has no preconditions.
    let n = unsafe { sysconf(SC_PAGESIZE) };
    usize::try_from(n)
        .ok()
        .filter(|n| n.is_power_of_two())
        .unwrap_or(4096)
}

/// One mapped stack: a guard page at `base`, then `len - guard` usable
/// bytes up to [`Stack::top`].
pub(crate) struct Stack {
    base: NonNull<u8>,
    len: usize,
    /// Usable bytes, as requested (rounded to pages); the pool key.
    usable: usize,
}

// SAFETY: a `Stack` exclusively owns its mapping (nothing else holds the
// address: it came from `mmap(NULL, ..)` and is unmapped only in `drop`),
// so moving it to, or sharing `&Stack` with, another OS thread is no
// different from moving a `Box<[u8]>`; `&Stack` exposes only the
// addresses, never the bytes.
unsafe impl Send for Stack {}
// SAFETY: as above.
unsafe impl Sync for Stack {}

static POOL: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

impl Stack {
    /// A stack with at least `size` usable bytes (`None` = the default),
    /// from the pool when one of that size is waiting there.
    pub fn new(size: Option<usize>) -> io::Result<Stack> {
        let page = page_size();
        let usable = size
            .unwrap_or(DEFAULT_STACK_SIZE)
            .max(MIN_STACK_SIZE)
            .checked_next_multiple_of(page)
            .ok_or(io::ErrorKind::InvalidInput)?;
        // (2 MiB is a whole number of pages at every page size in use.)
        if usable == DEFAULT_STACK_SIZE {
            if let Some(s) = POOL.lock().pop() {
                return Ok(s);
            }
        }
        let len = usable
            .checked_add(page)
            .ok_or(io::ErrorKind::InvalidInput)?;
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing; no existing memory is affected.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let base = NonNull::new(base).ok_or(io::ErrorKind::OutOfMemory)?;
        // Owns the mapping from here on: an error below unmaps it.
        let stack = Stack { base, len, usable };
        // SAFETY: `[base + page, base + len)` lies inside the mapping just
        // created, which nothing else refers to yet.
        if unsafe { mprotect(base.as_ptr().add(page), usable, PROT_READ | PROT_WRITE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest usable byte; page-aligned, hence 16-aligned.
    pub fn top(&self) -> *mut u8 {
        // SAFETY: `base + len` is one past the end of the owned mapping.
        unsafe { self.base.as_ptr().add(self.len) }
    }

    /// Usable bytes between the guard page and [`Stack::top`].
    #[cfg(test)]
    pub fn usable(&self) -> usize {
        self.usable
    }

    /// Give the stack up: back to the pool if it is a default-size one
    /// and there is room, unmapped otherwise. The caller guarantees no
    /// code is running on it (see `Inner`'s `Drop`).
    pub fn release(self) {
        if self.usable == DEFAULT_STACK_SIZE {
            let mut pool = POOL.lock();
            if pool.len() < POOL_CAP {
                pool.push(self);
            }
        }
        // Otherwise dropped here: unmapped.
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `[base, base + len)` is exactly the mapping this value
        // owns, and no context runs on it: a `Stack` is only ever dropped
        // by `Stack::release` or by an `Inner` that is not running (never
        // ran, is done, or was abandoned while suspended).
        unsafe { munmap(self.base.as_ptr(), self.len) };
    }
}
