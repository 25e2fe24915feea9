//! Execution contexts: what a user-level thread *is* underneath its TCB.
//!
//! The scheduler above this module thinks in terms of one operation —
//! "stop running this thread here, run that one there" — and this is the
//! one private seam where that operation is implemented:
//!
//! ```text
//! Context::new(kind, entry, stack_size)   a suspended context that will run `entry`
//! Context::switch(from, to)               suspend `from` (the caller), resume `to`
//! ```
//!
//! plus [`Host`], which gives the OS thread a lane runs on a context of
//! its own to switch away from and back to. An entry closure returns the
//! context to resume when its thread is finished; the final switch is
//! made by this module *after* the closure and everything it owned is
//! gone, so nothing is ever leaked on a stack that will not run again.
//!
//! # Two implementations
//!
//! * [`Kind::Native`] — a **stackful user-level switch**. A context is a
//!   saved stack pointer plus a guard-paged `mmap`'d stack ([`stack`]);
//!   `switch` is [`arch`]'s `global_asm!` routine, which saves the
//!   callee-saved registers and swaps stack pointers: no system call, no
//!   kernel scheduling decision, a few nanoseconds. Every context of a
//!   lane runs on the lane's one OS thread. x86-64 and AArch64 Linux.
//! * [`Kind::OsThread`] — every context is an OS thread and `switch` is
//!   a baton hand-off (grant the target's permit, wait on one's own):
//!   the mechanism this crate used before it had the native switch. It
//!   remains for two reasons only: it is what [`Kind::DEFAULT`] resolves
//!   to on targets with no asm routine, and it is the *reference
//!   implementation* — the crate's own tests run the same seeded
//!   programs through both kinds and require identical schedules and
//!   counters. It is not selectable by any feature, variable or
//!   configuration field.
//!
//! # What this module guarantees, and how
//!
//! The API is safe to call; the protocol below is enforced at run time,
//! so a scheduler bug is a panic or an abort, never two threads on one
//! stack.
//!
//! * **A context runs in at most one place.** Each has a state word:
//!   `FRESH`/`SUSPENDED` (resumable), `RUNNING`, `DONE`. `switch` claims
//!   the target with a compare-exchange to `RUNNING` and panics if it
//!   was not resumable. The departing context is marked `SUSPENDED` (or
//!   `DONE`) **by the context that runs next**, after the registers are
//!   saved — never by the departing side, which cannot know when its
//!   own save has finished. The scheduler queues a departing thread
//!   before it switches away; a claim that reached it that early would
//!   find it `RUNNING` and panic rather than put two executions on one
//!   stack.
//! * **The caller of `switch(from, ..)` is `from`.** A per-OS-thread
//!   cell records which context is running there; `switch` checks it.
//!   That cell, like every `thread_local!` in this crate, is only
//!   touched inside `#[inline(never)]` leaf functions: this layer does
//!   not assume a context resumes on the OS thread it left (that a
//!   VP's threads all run on its one OS thread is the VP's rule, not
//!   this module's), so no function here may cache a thread-local's address
//!   across a switch.
//! * **No stack is unmapped or recycled while code runs on it.** A
//!   running context holds a reference to itself, taken at its first
//!   resume and released — together with its stack — by its successor,
//!   from the successor's stack. Dropping every handle to a context
//!   that is mid-flight leaks it rather than freeing it.
//! * **Nothing unwinds through the asm.** A native context's root frame
//!   is an `extern "C"` function; the entry closure is expected to catch
//!   its own panics (the VP's is one `catch_unwind`), and a panic that
//!   escaped anyway aborts at that frame instead of unwinding into the
//!   boot stub.
//! * **An overflow faults.** See [`stack`].

#[cfg(chant_native_ctx)]
mod arch;
#[cfg(chant_native_ctx)]
mod stack;

use std::cell::Cell;
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Which implementation a context (and so a whole VP) uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Saved registers and an `mmap`'d stack on the lane's own OS thread.
    #[cfg(chant_native_ctx)]
    Native,
    /// One OS thread per context, baton hand-off to switch.
    #[cfg_attr(all(chant_native_ctx, not(test)), allow(dead_code))]
    OsThread,
}

impl Kind {
    /// What every VP uses: the native switch where there is one.
    #[cfg(chant_native_ctx)]
    pub const DEFAULT: Kind = Kind::Native;
    /// What every VP uses: no asm routine for this target.
    #[cfg(not(chant_native_ctx))]
    pub const DEFAULT: Kind = Kind::OsThread;
}

/// What a context runs: returns the context to resume once it is done.
pub(crate) type Entry = Box<dyn FnOnce() -> Context + Send + 'static>;

/// Never resumed yet; resumable.
const FRESH: u8 = 0;
/// Registers saved; resumable.
const SUSPENDED: u8 = 1;
/// Executing (or still leaving: its successor has not marked it yet).
const RUNNING: u8 = 2;
/// Its entry returned and its successor has taken over.
const DONE: u8 = 3;

/// [`Inner::arrival`] bit: the previous context is finished, not
/// suspended, and has handed over the reference that kept it alive (a
/// native context's self-reference, an OS-thread context's closure's):
/// the arriving context releases it.
const PREV_DONE: u8 = 1;
/// [`Inner::arrival`] bit: the previous context also passed on the
/// strong reference it held to *this* one (the handle its entry
/// returned), which it had no way to drop after the switch.
const HANDLE_PASSED: u8 = 2;

/// The baton of an OS-thread context.
struct Permit {
    granted: Mutex<bool>,
    cv: Condvar,
}

impl Permit {
    fn new() -> Permit {
        Permit {
            granted: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn grant(&self) {
        let mut g = self.granted.lock();
        debug_assert!(!*g, "double grant of a context permit");
        *g = true;
        // Notify with the lock released: the woken thread must not find
        // the lock it needs still held by its waker.
        drop(g);
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut g = self.granted.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }
}

#[cfg(chant_native_ctx)]
struct Native {
    /// The saved stack pointer while not running. An atomic only so that
    /// `Inner` is `Sync` without an `unsafe impl`: it is written by the
    /// asm routine of the context that is leaving and read by the one
    /// that resumes it, and the state word's claim orders the two.
    sp: std::sync::atomic::AtomicUsize,
    /// `None` for a host (it runs on the OS thread's own stack).
    stack: Option<stack::Stack>,
    entry: Mutex<Option<Entry>>,
}

enum Imp {
    #[cfg(chant_native_ctx)]
    Native(Native),
    OsThread(Permit),
}

struct Inner {
    state: AtomicU8,
    /// The context that switched to this one last, for this one to mark
    /// once it is running (null = nothing to mark).
    prev: AtomicPtr<Inner>,
    /// `PREV_DONE` / `HANDLE_PASSED` for that switch.
    arrival: AtomicU8,
    imp: Imp,
}

/// A handle to an execution context. Cheap to clone; the context lives
/// until its last handle is gone *and* it is not mid-flight.
#[derive(Clone)]
pub(crate) struct Context(Arc<Inner>);

thread_local! {
    /// The context running on this OS thread (null outside any).
    static RUNNING_HERE: Cell<*const Inner> = const { Cell::new(std::ptr::null()) };
}

#[inline(never)]
fn running_here() -> *const Inner {
    RUNNING_HERE.with(Cell::get)
}

#[inline(never)]
fn set_running_here(p: *const Inner) {
    RUNNING_HERE.with(|c| c.set(p));
}

impl Inner {
    fn new(state: u8, imp: Imp) -> Arc<Inner> {
        Arc::new(Inner {
            state: AtomicU8::new(state),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            arrival: AtomicU8::new(0),
            imp,
        })
    }

    /// Claim `self` for the calling OS thread to resume: at most one
    /// claimant ever succeeds per suspension.
    fn claim(self: &Arc<Inner>) {
        let was_fresh = self
            .state
            .compare_exchange(FRESH, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if was_fresh {
            // The self-reference of a context in flight, released by the
            // successor that marks it DONE (`arrived`). An OS-thread
            // context's closure owns that reference from birth instead.
            #[cfg(chant_native_ctx)]
            if matches!(self.imp, Imp::Native(_)) {
                std::mem::forget(Arc::clone(self));
            }
            return;
        }
        let claimed =
            self.state
                .compare_exchange(SUSPENDED, RUNNING, Ordering::SeqCst, Ordering::SeqCst);
        assert!(
            claimed.is_ok(),
            "switch to a context that is running or finished (state {:?})",
            claimed
        );
    }

    /// Leave word for `self`, about to be resumed, on who is leaving.
    fn announce(&self, prev: *const Inner, arrival: u8) {
        self.prev.store(prev.cast_mut(), Ordering::Relaxed);
        self.arrival.store(arrival, Ordering::Relaxed);
    }

    /// First thing a context does when it starts or resumes running:
    /// record that it runs here, and mark the context it took over from.
    fn arrived(&self) {
        set_running_here(self);
        let prev = self.prev.swap(std::ptr::null_mut(), Ordering::Relaxed);
        if prev.is_null() {
            return;
        }
        let arrival = self.arrival.load(Ordering::Relaxed);
        let done = arrival & PREV_DONE != 0;
        // SAFETY: `prev` was stored by `announce` from a live `&Inner`
        // and is still alive: if it is merely suspended, the frame that
        // called `switch` is intact on its stack and borrows a handle to
        // it; if it is done, it handed over a strong reference to itself
        // (`PREV_DONE`), released just below.
        unsafe { &*prev }
            .state
            .store(if done { DONE } else { SUSPENDED }, Ordering::SeqCst);
        // From here on a suspended `prev` may be resumed, finish and be
        // freed on another OS thread at any moment: not touched again.
        if arrival & HANDLE_PASSED != 0 {
            // SAFETY: balances the `Arc::into_raw` in `exit_native`. Not
            // the last reference: this context is running, so it holds
            // one to itself (`claim`) or is a host, kept by its `Host`.
            unsafe { Arc::decrement_strong_count(self as *const Inner) };
        }
        if done {
            // SAFETY: balances the `forget` in `claim` (native) or the
            // `Arc::into_raw` in the carrier closure (OS thread). `prev`
            // is DONE: it runs nowhere and is never resumed, so this may
            // free it and recycle its stack — which is not the stack
            // this code is running on.
            unsafe { Arc::decrement_strong_count(prev.cast_const()) };
        }
    }
}

impl Context {
    /// A suspended context that, when first switched to, runs `entry`
    /// and then resumes whatever context `entry` returned.
    ///
    /// `stack_size` is the number of usable bytes wanted (`None` = 2 MiB,
    /// the `std::thread` default). Natively the stack is reserved, guard
    /// paged and lazily committed; the OS-thread kind forwards the size
    /// to the OS.
    pub fn new(kind: Kind, entry: Entry, stack_size: Option<usize>) -> io::Result<Context> {
        match kind {
            #[cfg(chant_native_ctx)]
            Kind::Native => {
                let stack = stack::Stack::new(stack_size)?;
                let top = stack.top();
                let inner = Inner::new(
                    FRESH,
                    Imp::Native(Native {
                        sp: std::sync::atomic::AtomicUsize::new(0),
                        stack: Some(stack),
                        entry: Mutex::new(Some(entry)),
                    }),
                );
                // SAFETY: `top` is the page-aligned top of the stack just
                // mapped, which `inner` now owns and nothing runs on. The
                // argument outlives its use: `native_root` only runs after
                // `claim` has taken the context's self-reference.
                let sp =
                    unsafe { arch::init_stack(top, native_root, Arc::as_ptr(&inner).cast::<()>()) };
                inner.native().sp.store(sp, Ordering::Relaxed);
                Ok(Context(inner))
            }
            Kind::OsThread => {
                let inner = Inner::new(FRESH, Imp::OsThread(Permit::new()));
                let me = Arc::clone(&inner);
                let mut builder = std::thread::Builder::new();
                if let Some(sz) = stack_size {
                    builder = builder.stack_size(sz);
                }
                // Detached on purpose, as a user-level thread has always
                // been: its completion is observed through the scheduler
                // (the VP joins its *threads*, not their carriers).
                builder.spawn(move || {
                    me.permit().wait();
                    me.arrived();
                    let to = entry();
                    to.0.claim();
                    // `to` marks this context DONE on arrival, possibly
                    // after this OS thread is gone: it gets the closure's
                    // reference to do it with.
                    to.0.announce(Arc::into_raw(me), PREV_DONE);
                    to.0.permit().grant();
                    // `to` drops here, after the grant has finished
                    // touching it.
                })?;
                Ok(Context(inner))
            }
        }
    }

    /// True when the context is resumable: it has never run, or its
    /// registers are saved. False while it runs — which includes the
    /// window in which it is already queued somewhere but has not yet
    /// switched away — and once it is done.
    #[cfg(test)]
    pub fn is_suspended(&self) -> bool {
        matches!(self.0.state.load(Ordering::SeqCst), FRESH | SUSPENDED)
    }

    /// Suspend the calling context `from` and resume `to`; returns when
    /// something switches back to `from` — possibly on another OS thread.
    ///
    /// # Panics
    /// If `from` is not the context running on the calling OS thread, if
    /// `to` is not resumable, or if the two are of different kinds.
    pub fn switch(from: &Context, to: &Context) {
        assert!(
            std::ptr::eq(running_here(), Arc::as_ptr(&from.0)),
            "Context::switch: `from` is not the context running on this OS thread"
        );
        to.0.claim();
        to.0.announce(Arc::as_ptr(&from.0), 0);
        match (&from.0.imp, &to.0.imp) {
            #[cfg(chant_native_ctx)]
            (Imp::Native(f), Imp::Native(t)) => {
                // SAFETY: `to` was claimed above, so it runs nowhere, its
                // saved stack pointer was stored by the routine (or by
                // `init_stack`) and its stack is mapped (`Inner` keeps it
                // until the context is DONE or never ran). `from.sp` stays
                // writable: `from` is borrowed for the whole call.
                unsafe { arch::chant_ult_ctx_switch(f.sp.as_ptr(), t.sp.as_ptr()) };
            }
            (Imp::OsThread(f), Imp::OsThread(t)) => {
                t.grant();
                f.wait();
            }
            #[cfg(chant_native_ctx)]
            _ => panic!("Context::switch between contexts of different kinds"),
        }
        from.0.arrived();
    }
}

impl Inner {
    fn permit(&self) -> &Permit {
        match &self.imp {
            Imp::OsThread(p) => p,
            #[cfg(chant_native_ctx)]
            Imp::Native(_) => unreachable!("permit of a native context"),
        }
    }

    #[cfg(chant_native_ctx)]
    fn native(&self) -> &Native {
        match &self.imp {
            Imp::Native(n) => n,
            Imp::OsThread(_) => unreachable!("native half of an OS-thread context"),
        }
    }
}

/// Root frame of every native context: reached from the boot stub on the
/// context's first resume, left by a final switch, never by returning.
#[cfg(chant_native_ctx)]
extern "C" fn native_root(arg: *const ()) -> ! {
    // SAFETY: `arg` is the `Arc::as_ptr` given to `init_stack` in
    // `Context::new`; whoever switched here went through `claim`, which
    // took this context's self-reference, so it is alive until its
    // successor releases that reference.
    let me = unsafe { &*arg.cast::<Inner>() };
    me.arrived();
    let entry = me
        .native()
        .entry
        .lock()
        .take()
        .expect("a native context booted twice");
    // A panic escaping `entry` aborts here: this is an `extern "C"`
    // function, and unwinding out of one is not allowed to happen.
    let to = entry();
    exit_native(me, to)
}

/// The last thing a finished native context does: resume `to`, leaving
/// nothing behind on its own stack.
#[cfg(chant_native_ctx)]
fn exit_native(me: &Inner, to: Context) -> ! {
    to.0.claim();
    to.0.announce(me, PREV_DONE | HANDLE_PASSED);
    // The handle `entry` returned cannot be dropped after the switch (no
    // code runs here again) and must not be dropped before it (it may be
    // what keeps `to` alive): its reference travels with the switch and
    // `to` drops it on arrival.
    let to = Arc::into_raw(to.0);
    // SAFETY: `to` is a live `Inner` (reference just leaked above).
    let load = unsafe { &*to }.native().sp.as_ptr();
    // SAFETY: as in `Context::switch`; `to` was claimed above. The save
    // slot is this context's own, alive until `to` releases it on arrival.
    unsafe { arch::chant_ult_ctx_switch(me.native().sp.as_ptr(), load) };
    // Nothing can switch back to a DONE context (`claim` refuses).
    std::process::abort()
}

impl Drop for Inner {
    fn drop(&mut self) {
        #[cfg(chant_native_ctx)]
        if let Imp::Native(n) = &mut self.imp {
            if let Some(stack) = n.stack.take() {
                match *self.state.get_mut() {
                    // Never ran, or ran to completion and its successor
                    // has taken over: nothing executes on the stack.
                    FRESH | DONE => stack.release(),
                    // Suspended mid-flight (its VP was dropped with the
                    // thread blocked): the frames on the stack are
                    // abandoned, never run again, so unmapping is safe;
                    // whatever they owned is leaked, as `mem::forget`
                    // would. Not pooled: never reuse a stack that was
                    // not unwound.
                    SUSPENDED => drop(stack),
                    // Unreachable: a running context holds a reference
                    // to itself. Leak rather than unmap under live code.
                    _ => std::mem::forget(stack),
                }
            }
        }
    }
}

/// The calling OS thread's own context for as long as this value lives:
/// what a lane host switches away from when it dispatches its first
/// thread, and what the lane's last exiting thread switches back to.
/// Not `Send`: it stands for the OS thread it was created on.
pub(crate) struct Host {
    ctx: Context,
    _not_send: PhantomData<*const ()>,
}

impl Host {
    /// Enter: the calling OS thread is now running the returned context.
    ///
    /// # Panics
    /// If the OS thread is already inside a context (nested hosts).
    pub fn enter(kind: Kind) -> Host {
        assert!(
            running_here().is_null(),
            "Host::enter on an OS thread that is already running a context"
        );
        let imp = match kind {
            #[cfg(chant_native_ctx)]
            Kind::Native => Imp::Native(Native {
                sp: std::sync::atomic::AtomicUsize::new(0),
                stack: None,
                entry: Mutex::new(None),
            }),
            Kind::OsThread => Imp::OsThread(Permit::new()),
        };
        let inner = Inner::new(RUNNING, imp);
        set_running_here(Arc::as_ptr(&inner));
        Host {
            ctx: Context(inner),
            _not_send: PhantomData,
        }
    }

    /// The host's context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        // Dropped on the OS thread it was entered on (`!Send`), which is
        // running it again: every switch away has been switched back.
        if std::ptr::eq(running_here(), Arc::as_ptr(&self.ctx.0)) {
            set_running_here(std::ptr::null());
        }
    }
}

#[cfg(test)]
mod tests;
