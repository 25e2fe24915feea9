//! Thread control blocks.
//!
//! "Each thread stores its polling request in its thread control block
//! (TCB), which is a data structure that defines a thread, similar to how
//! a process control block (PCB) defines a process" (paper §4.2). The TCB
//! here carries exactly that pending-request slot, plus identity,
//! priority, lifecycle state, join bookkeeping, and thread-local data.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use crate::attr::Priority;
use crate::ctx::Context;
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
    pub joiners: Vec<Arc<Tcb>>,
}

/// A thread control block.
pub(crate) struct Tcb {
    pub id: Tid,
    pub name: String,
    pub priority: AtomicU8,
    pub detached: AtomicBool,
    pub cancel_requested: AtomicBool,
    /// The thread's execution context: its saved registers and its stack
    /// (see [`crate::ctx`]). Set once, by `Vp::spawn`, before the TCB is
    /// first queued.
    pub ctx: OnceLock<Context>,
    /// The PS-policy pending-request slot (paper §4.2): the outstanding
    /// receive this thread is waiting on, tested by the scheduler before
    /// completing a switch to this thread.
    pub pending: Mutex<Option<Box<dyn PendingPoll>>>,
    pub life: Mutex<Lifecycle>,
    /// Wakeup token consumed by `block` if an `unblock` raced ahead of it.
    pub wake_token: Mutex<bool>,
    /// Condvar (paired with `life`) for joiners on foreign OS threads.
    pub ext_cv: Condvar,
    /// Thread-local data slots (pthread_key style), keyed by TlsKey id.
    pub tls: Mutex<HashMap<u64, Box<dyn Any + Send>>>,
    /// When this thread last entered Blocked (tracer clock, ns), for the
    /// blocked-time histogram.
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
            ctx: OnceLock::new(),
            pending: Mutex::new(None),
            life: Mutex::new(Lifecycle {
                phase: Phase::Ready,
                outcome: None,
                joined: false,
                joiners: Vec::new(),
            }),
            tls: Mutex::new(HashMap::new()),
            wake_token: Mutex::new(false),
            ext_cv: Condvar::new(),
            blocked_at_ns: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The thread's context.
    ///
    /// # Panics
    /// Before `Vp::spawn` has attached one (never observable: only the
    /// dispatcher asks, and the TCB is on no run queue until then).
    pub fn ctx(&self) -> &Context {
        self.ctx.get().expect("TCB without a context")
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
