//! Thread control blocks.
//!
//! "Each thread stores its polling request in its thread control block
//! (TCB), which is a data structure that defines a thread, similar to how
//! a process control block (PCB) defines a process" (paper §4.2). The TCB
//! here carries exactly that pending-request slot, plus identity,
//! priority, lifecycle state, join bookkeeping, and thread-local data.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::attr::Priority;
use crate::hooks::PendingPoll;

/// Local thread identifier, unique within one VP for its lifetime.
///
/// This is the third component of Chant's global thread 3-tuple
/// `(pe, process, thread)`; the paper's `pthread_chanter_pthread` extracts
/// exactly this value.
pub type Tid = u32;

/// The thread id every VP assigns to its first (main) thread.
pub const MAIN_TID: Tid = 1;

/// Lifecycle phase of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// On the ready queue (or about to be), context not running.
    Ready,
    /// Currently executing on the VP.
    Running,
    /// Off the ready queue, waiting for an explicit unblock.
    Blocked,
    /// Finished; exit value (if any) may still be waiting for a joiner.
    Done,
}

/// How a thread terminated.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// Returned normally with this value.
    Value(Box<dyn Any + Send>),
    /// Unwound with a panic payload.
    Panicked(Box<dyn Any + Send>),
    /// Exited in response to a cancellation request.
    Cancelled,
}

/// Mutable lifecycle state, guarded by one lock per TCB.
pub(crate) struct Lifecycle {
    pub phase: Phase,
    /// Set when the thread finishes; taken by the (single) joiner.
    pub outcome: Option<Outcome>,
    /// True once some joiner consumed the outcome.
    pub joined: bool,
    /// Threads blocked in `join` on this one, to unblock at exit.
    pub joiners: Vec<Tid>,
}

/// The permit a parked thread waits on. The scheduler "grants" the permit
/// to hand the VP's baton to this thread.
pub(crate) struct Permit {
    granted: Mutex<bool>,
    cv: Condvar,
}

impl Permit {
    fn new() -> Self {
        Permit {
            granted: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Hand the baton to this thread. Called by the departing thread.
    pub fn grant(&self) {
        let mut g = self.granted.lock();
        debug_assert!(!*g, "double grant of a thread permit");
        *g = true;
        // Notify with the lock released: when another core is free the
        // woken thread starts at once, and must not find the lock it
        // needs still held by its waker.
        drop(g);
        self.cv.notify_one();
    }

    /// Park until the baton is granted, then consume it.
    pub fn wait(&self) {
        let mut g = self.granted.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }
}

/// A thread control block.
pub(crate) struct Tcb {
    pub id: Tid,
    pub name: String,
    pub priority: AtomicU8,
    pub detached: AtomicBool,
    pub cancel_requested: AtomicBool,
    pub permit: Permit,
    /// The PS-policy pending-request slot (paper §4.2): the outstanding
    /// receive this thread is waiting on, tested by the scheduler before
    /// completing a switch to this thread.
    pub pending: Mutex<Option<Box<dyn PendingPoll>>>,
    pub life: Mutex<Lifecycle>,
    /// Wakeup token consumed by `block` if an `unblock` raced ahead of it.
    pub wake_token: Mutex<bool>,
    /// The worker (VP lane) this thread requeues on when it becomes ready:
    /// its placement affinity. Stealing moves a single dispatch, never the
    /// home — a stolen thread's next yield/unblock returns it here.
    pub home: AtomicUsize,
    /// The worker whose scheduling baton this thread currently holds (set
    /// by the dispatcher just before the permit is granted). `yield`,
    /// `block`, and exit reschedule on behalf of this worker.
    pub running_on: AtomicUsize,
    /// True while the thread is parked on (or guaranteed to next consume)
    /// its permit, i.e. it is safe for *another* worker to grant it. False
    /// from the moment `permit.wait()` returns until just before the next
    /// `wait` — in that window the thread may still be running the
    /// scheduler for its old worker, and granting it from elsewhere would
    /// strand that worker's baton. Single-worker VPs never consult this.
    pub parked: AtomicBool,
    /// Kernel id of the backing OS thread (0 until it has started), and
    /// the CPU it is currently confined to — see [`crate::affinity`].
    pub os_tid: AtomicI32,
    pub cpu_pin: AtomicI32,
    /// Condvar (paired with `life`) for joiners on foreign OS threads.
    pub ext_cv: Condvar,
    /// Thread-local data slots (pthread_key style), keyed by TlsKey id.
    pub tls: Mutex<HashMap<u64, Box<dyn Any + Send>>>,
    /// When this thread last entered Blocked (tracer clock, ns), for the
    /// blocked-time histogram.
    #[cfg(feature = "trace")]
    pub blocked_at_ns: std::sync::atomic::AtomicU64,
}

impl Tcb {
    pub fn new(id: Tid, name: String, priority: Priority, detached: bool) -> Arc<Tcb> {
        Arc::new(Tcb {
            id,
            name,
            priority: AtomicU8::new(priority.0),
            detached: AtomicBool::new(detached),
            cancel_requested: AtomicBool::new(false),
            permit: Permit::new(),
            pending: Mutex::new(None),
            life: Mutex::new(Lifecycle {
                phase: Phase::Ready,
                outcome: None,
                joined: false,
                joiners: Vec::new(),
            }),
            tls: Mutex::new(HashMap::new()),
            wake_token: Mutex::new(false),
            home: AtomicUsize::new(0),
            running_on: AtomicUsize::new(0),
            // A thread that has not yet been dispatched will consume the
            // first grant whenever its OS thread reaches `permit.wait`.
            parked: AtomicBool::new(true),
            os_tid: AtomicI32::new(0),
            cpu_pin: AtomicI32::new(crate::affinity::NO_CPU),
            ext_cv: Condvar::new(),
            #[cfg(feature = "trace")]
            blocked_at_ns: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Wake any foreign-OS-thread joiners waiting on `ext_cv`.
    pub fn ext_cv_notify(&self) {
        self.ext_cv.notify_all();
    }

    #[inline]
    pub fn priority(&self) -> Priority {
        Priority(self.priority.load(Ordering::Relaxed))
    }

    #[inline]
    pub fn set_priority(&self, p: Priority) {
        self.priority.store(p.0, Ordering::Relaxed);
    }

    /// Store a pending poll request (PS policy). Returns the previous one.
    pub fn set_pending(&self, poll: Box<dyn PendingPoll>) -> Option<Box<dyn PendingPoll>> {
        self.pending.lock().replace(poll)
    }

    /// Remove and return the pending poll request, if any.
    pub fn take_pending(&self) -> Option<Box<dyn PendingPoll>> {
        self.pending.lock().take()
    }

    /// Whether a pending request exists and is not yet satisfied.
    #[cfg(test)]
    pub fn pending_unready(&self) -> bool {
        match &*self.pending.lock() {
            Some(p) => !p.ready(),
            None => false,
        }
    }
}

impl std::fmt::Debug for Tcb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tcb")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("priority", &self.priority())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permit_grant_then_wait_does_not_block() {
        let p = Permit::new();
        p.grant();
        p.wait(); // must return immediately and consume the grant
        let g = p.granted.lock();
        assert!(!*g);
    }

    #[test]
    fn permit_wait_blocks_until_grant() {
        let tcb = Tcb::new(1, "t".into(), Priority::NORMAL, false);
        let t2 = Arc::clone(&tcb);
        let h = std::thread::spawn(move || t2.permit.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!h.is_finished());
        tcb.permit.grant();
        h.join().unwrap();
    }

    #[test]
    fn pending_slot_roundtrip() {
        let tcb = Tcb::new(2, "t".into(), Priority::NORMAL, false);
        assert!(!tcb.pending_unready());
        tcb.set_pending(Box::new(|| false));
        assert!(tcb.pending_unready());
        tcb.set_pending(Box::new(|| true));
        assert!(!tcb.pending_unready());
        assert!(tcb.take_pending().is_some());
        assert!(tcb.take_pending().is_none());
    }

    #[test]
    fn priority_is_mutable() {
        let tcb = Tcb::new(3, "t".into(), Priority::NORMAL, false);
        assert_eq!(tcb.priority(), Priority::NORMAL);
        tcb.set_priority(Priority::HIGH);
        assert_eq!(tcb.priority(), Priority::HIGH);
    }
}
