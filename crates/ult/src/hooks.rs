//! Scheduler hook points.
//!
//! The Chant paper's two "scheduler polls" algorithms require cooperation
//! from the thread scheduler (paper §3.1, §4.2):
//!
//! * *Scheduler polls (WQ)*: "a list of polling requests ... examined at
//!   each scheduling point to see if any outstanding messages have
//!   arrived" — provided here by [`SchedulerHook::at_schedule_point`].
//! * *Scheduler polls (PS)*: "each thread stores its polling request in
//!   its thread control block ... When the scheduler is invoked to perform
//!   a context switch, it selects the next available TCB from the thread
//!   queue and determines if a request is pending. ... If the message has
//!   arrived, the thread is restored, otherwise the TCB is placed back on
//!   the thread queue" — provided here by
//!   [`SchedulerHook::before_dispatch`] returning
//!   [`DispatchDecision::Requeue`] (a *partial switch*).
//!
//! The paper notes that "some thread packages may not allow modification
//! of the scheduler activities"; this crate deliberately does, since that
//! is precisely the design space being measured.
//!
//! A VP's hooks are installed before its lane starts
//! ([`crate::Vp::install_hook`], which panics afterwards) and are fixed
//! from then on: the scheduler reads the set at every schedule point
//! with one load — no lock, no refcount — because it cannot change
//! under it. A policy is chosen when its node is built, so nothing
//! needs to swap hooks on a running lane.

use std::sync::Arc;

use crate::tcb::Tid;

/// A request a blocked-in-place thread is waiting on, stored in its TCB.
///
/// Chant stores the handle of an outstanding nonblocking receive here; the
/// PS policy's pre-dispatch check calls [`PendingPoll::ready`], which maps
/// to a single `msgtest` on the underlying communication layer.
pub trait PendingPoll: Send {
    /// Test (without blocking) whether the awaited event has occurred.
    fn ready(&self) -> bool;
}

impl<F: Fn() -> bool + Send> PendingPoll for F {
    fn ready(&self) -> bool {
        self()
    }
}

/// Decision returned by [`SchedulerHook::before_dispatch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchDecision {
    /// Complete the context switch and run the candidate thread.
    Run,
    /// The candidate's pending request is not satisfied; put its TCB back
    /// on the ready queue and try the next one. This is the paper's
    /// "partial switch": the thread's context is *not* restored.
    Requeue,
}

/// A scheduler extension installed on a [`crate::Vp`].
///
/// Hooks run on the VP's one OS thread, on the stack of whichever of
/// its threads holds the scheduling baton, never while any VP-internal
/// run-queue or directory lock is held (so a hook may freely call back
/// into the VP, e.g. to unblock a thread). As in the paper's scheduler,
/// a hook never runs concurrently with itself on a VP:
/// [`Self::at_schedule_point`] runs at every schedule point, and
/// [`Self::before_dispatch`] once per candidate, one after the other.
///
/// # Hooks and the sleeping lane
///
/// A lane whose round dispatched nothing **parks its OS thread** until
/// the nearest armed timer or [`crate::Vp::wake`]; it does not keep
/// calling hooks while nothing happens. Whatever can turn a hook's
/// answer from "not yet" into "ready" from *outside* the VP's own
/// threads — a message arrival completing a receive, an external OS
/// thread setting the flag a [`PendingPoll`] reads — must therefore call
/// [`crate::Vp::wake`] after publishing the change (Chant's endpoints
/// do so on every delivery). Changes made by a running thread of the VP
/// need no wake: the lane is awake and reaches a schedule point when
/// that thread next yields, blocks or exits. A poll that becomes ready
/// with the passage of time arms a timer ([`crate::Vp::timer_arm`]).
pub trait SchedulerHook: Send + Sync {
    /// Called at every schedule point, before the ready queue is examined.
    /// A WQ-style hook scans its request list here and wakes every thread
    /// whose message has arrived ([`crate::Vp::unblock_all`]).
    fn at_schedule_point(&self);

    /// Called for a candidate thread popped from the ready queue, before
    /// its context is restored. `pending` is the poll request stored in
    /// the candidate's TCB, if any. The default implementation performs
    /// the PS algorithm's test: run if there is no pending request or it
    /// is ready, requeue otherwise.
    fn before_dispatch(&self, tid: Tid, pending: Option<&dyn PendingPoll>) -> DispatchDecision {
        let _ = tid;
        match pending {
            Some(p) if !p.ready() => DispatchDecision::Requeue,
            _ => DispatchDecision::Run,
        }
    }

    /// Whether this hook wants [`Self::before_dispatch`] to be consulted.
    /// Hooks that only use the schedule point (WQ) return `false` so the
    /// dispatcher can skip the per-candidate call entirely.
    fn wants_dispatch_check(&self) -> bool {
        true
    }
}

/// A no-op hook, useful in tests and as a default.
#[derive(Debug, Default)]
pub struct NullHook;

impl SchedulerHook for NullHook {
    fn at_schedule_point(&self) {}
    fn wants_dispatch_check(&self) -> bool {
        false
    }
}

/// Shared, dynamically-dispatched hook handle.
pub(crate) type HookRef = Arc<dyn SchedulerHook>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn closure_is_pending_poll() {
        let flag = AtomicBool::new(false);
        let poll = || flag.load(Ordering::Relaxed);
        assert!(!PendingPoll::ready(&poll));
        flag.store(true, Ordering::Relaxed);
        assert!(PendingPoll::ready(&poll));
    }

    #[test]
    fn default_before_dispatch_implements_partial_switch() {
        struct H;
        impl SchedulerHook for H {
            fn at_schedule_point(&self) {}
        }
        let not_ready = || false;
        let ready = || true;
        assert_eq!(
            H.before_dispatch(1, Some(&not_ready)),
            DispatchDecision::Requeue
        );
        assert_eq!(H.before_dispatch(1, Some(&ready)), DispatchDecision::Run);
        assert_eq!(H.before_dispatch(1, None), DispatchDecision::Run);
    }
}
