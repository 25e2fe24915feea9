//! The three polling policies for blocking receives (paper §3.1, §4.2).
//!
//! "Although Chant supports, at the user interface, both blocking and
//! nonblocking message operations, only nonblocking communication
//! primitives from the underlying communication system are utilized"
//! (§3.1). A blocking receive therefore posts a nonblocking receive and
//! arranges — via one of these policies — to be resumed when it
//! completes, while other ready threads use the processor:
//!
//! * [`PollingPolicy::ThreadPolls`] — the paper's Figure 5: the blocked
//!   thread stays on the ready queue and re-tests its own request every
//!   time it is scheduled. Works with *any* thread package (no scheduler
//!   modification), at the cost of a full context switch per failed test.
//! * [`PollingPolicy::SchedulerPollsWq`] — the paper's Figure 6 with a
//!   *waiting queue*: the thread registers its request with the scheduler
//!   and blocks; the scheduler tests **every** outstanding request at
//!   each schedule point (NX has no `msgtestany`, so each is a separate
//!   `msgtest` call).
//! * [`PollingPolicy::SchedulerPollsPs`] — *partial switch*: the request
//!   lives in the thread's TCB; the scheduler tests it only when that TCB
//!   is the next dispatch candidate, requeueing on failure without
//!   restoring the context.
//! * [`PollingPolicy::SchedulerPollsWqTestany`] — the paper's §4.2
//!   hypothesis: WQ "as originally intended, with a single msgtestany
//!   call rather than a test for each individual message", possible on
//!   MPI-class layers.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use chant_comm::{CompletionSet, RecvHandle};
use serde::{Deserialize, Serialize};
use chant_ult::{current_tid, Priority, SchedulerHook, Tid, Vp};
use parking_lot::Mutex;

use crate::error::ChantError;

/// Which algorithm resumes threads blocked on a receive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PollingPolicy {
    /// Figure 5: each blocked thread polls for itself when scheduled.
    ThreadPolls,
    /// Figure 6 with a waiting queue: the scheduler tests every
    /// outstanding request at each schedule point.
    SchedulerPollsWq,
    /// Partial switch: the scheduler tests the pending request in the
    /// next candidate's TCB before completing the switch.
    #[default]
    SchedulerPollsPs,
    /// WQ with a single MPI-style `msgtestany` call per schedule point.
    SchedulerPollsWqTestany,
}

impl PollingPolicy {
    /// All policies, in the order the paper discusses them.
    pub const ALL: [PollingPolicy; 4] = [
        PollingPolicy::ThreadPolls,
        PollingPolicy::SchedulerPollsPs,
        PollingPolicy::SchedulerPollsWq,
        PollingPolicy::SchedulerPollsWqTestany,
    ];

    /// Short label used in reports (matches the paper's terminology).
    pub fn label(self) -> &'static str {
        match self {
            PollingPolicy::ThreadPolls => "Thread polls",
            PollingPolicy::SchedulerPollsWq => "Scheduler polls (WQ)",
            PollingPolicy::SchedulerPollsPs => "Scheduler polls (PS)",
            PollingPolicy::SchedulerPollsWqTestany => "Scheduler polls (WQ+testany)",
        }
    }

    /// Whether this policy requires the ability to modify the scheduler.
    /// The paper's portability argument: TP "can be applied to any
    /// lightweight thread package"; the scheduler-polls variants cannot.
    pub fn needs_scheduler_support(self) -> bool {
        !matches!(self, PollingPolicy::ThreadPolls)
    }
}

/// The waiting-queue table, in one of the two §4.2 variants.
enum WqTable {
    /// NX profile: a flat request list, every entry `msgtest`ed in turn
    /// at each schedule point.
    Nx(Vec<(Tid, RecvHandle)>),
    /// MPI profile: an event-driven [`CompletionSet`] plus the token ↔
    /// thread bookkeeping, so each `msgtestany` call is O(completed)
    /// rather than a scan of every outstanding request.
    Testany {
        set: CompletionSet,
        owner: HashMap<u64, Tid>,
        /// A thread's tokens (several under wait-any), for wake-once
        /// cleanup of its sibling entries.
        by_tid: HashMap<Tid, Vec<u64>>,
    },
}

/// The waiting queue shared between blocking receives and the scheduler
/// hook (WQ policies). "The scheduler polls method is based on a list of
/// polling requests that are examined at each scheduling point" (§4.2).
pub(crate) struct WqHook {
    // Weak: the VP owns this hook (via its hook list), so a strong
    // back-reference would form a cycle and leak the whole VP.
    vp: Mutex<Option<std::sync::Weak<Vp>>>,
    table: Mutex<WqTable>,
}

impl WqHook {
    fn new(use_testany: bool) -> Arc<WqHook> {
        let table = if use_testany {
            WqTable::Testany {
                set: CompletionSet::new(),
                owner: HashMap::new(),
                by_tid: HashMap::new(),
            }
        } else {
            WqTable::Nx(Vec::new())
        };
        Arc::new(WqHook {
            vp: Mutex::new(None),
            table: Mutex::new(table),
        })
    }

    fn bind(&self, vp: &Arc<Vp>) {
        *self.vp.lock() = Some(Arc::downgrade(vp));
    }

    fn register(&self, tid: Tid, handle: RecvHandle) {
        match &mut *self.table.lock() {
            WqTable::Nx(entries) => entries.push((tid, handle)),
            WqTable::Testany { set, owner, by_tid } => {
                let token = set.insert(handle);
                owner.insert(token, tid);
                by_tid.entry(tid).or_default().push(token);
            }
        }
    }

    /// Drop every request `tid` registered — a timed-out waiter must not
    /// linger in the table and be "completed" at it later.
    fn unregister(&self, tid: Tid) {
        match &mut *self.table.lock() {
            WqTable::Nx(entries) => entries.retain(|(t, _)| *t != tid),
            WqTable::Testany { set, owner, by_tid } => {
                for token in by_tid.remove(&tid).unwrap_or_default() {
                    set.remove(token);
                    owner.remove(&token);
                }
            }
        }
    }

    /// Number of requests currently waiting (used by tests and metrics).
    #[allow(dead_code)]
    pub fn waiting(&self) -> usize {
        match &*self.table.lock() {
            WqTable::Nx(entries) => entries.len(),
            WqTable::Testany { set, .. } => set.len(),
        }
    }
}

impl SchedulerHook for WqHook {
    fn at_schedule_point(&self) {
        let Some(vp) = self.vp.lock().as_ref().and_then(std::sync::Weak::upgrade) else {
            return;
        };
        // Every thread whose receive completed is woken in one batch.
        let mut woken = Vec::new();
        match &mut *self.table.lock() {
            WqTable::Testany { set, owner, by_tid } => {
                // One msgtestany call per completed request (plus a final
                // call returning "none") — the counting the free-function
                // loop had, but each call pops the completion list
                // instead of probing every entry.
                while let Some(token) = set.testany() {
                    let tid = owner.remove(&token).expect("token without an owner");
                    // Drop the thread's other wait-any entries so it is
                    // woken exactly once.
                    for sibling in by_tid.remove(&tid).unwrap_or_default() {
                        if sibling != token {
                            set.remove(sibling);
                            owner.remove(&sibling);
                        }
                    }
                    woken.push(tid);
                }
            }
            WqTable::Nx(entries) => {
                // NX style: "each outstanding request will be tested in
                // turn. This implies that all outstanding messages are
                // checked at each context switch" (§4.2).
                let mut i = 0;
                while i < entries.len() {
                    if entries[i].1.msgtest() {
                        let (tid, _) = entries.swap_remove(i);
                        // A thread may have registered several requests
                        // (wait-any); drop its other entries so it is
                        // woken exactly once.
                        entries.retain(|(t, _)| *t != tid);
                        woken.push(tid);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        if !woken.is_empty() {
            vp.unblock_all(&woken);
        }
    }

    fn wants_dispatch_check(&self) -> bool {
        false
    }
}

/// The partial-switch hook: pure pre-dispatch checking (the default
/// [`SchedulerHook::before_dispatch`] implements the PS test-or-requeue).
struct PsHook;

impl SchedulerHook for PsHook {
    fn at_schedule_point(&self) {}
}

/// Per-node polling machinery: installs the right scheduler hooks for a
/// policy and implements the blocking-receive wait loops.
pub(crate) struct PollEngine {
    vp: Arc<Vp>,
    policy: PollingPolicy,
    wq: Option<Arc<WqHook>>,
}

impl PollEngine {
    /// Create the engine and install the policy's hooks on `vp`.
    pub fn install(vp: Arc<Vp>, policy: PollingPolicy) -> PollEngine {
        let wq = match policy {
            PollingPolicy::SchedulerPollsWq => Some(WqHook::new(false)),
            PollingPolicy::SchedulerPollsWqTestany => Some(WqHook::new(true)),
            PollingPolicy::SchedulerPollsPs => {
                vp.install_hook(Arc::new(PsHook));
                None
            }
            PollingPolicy::ThreadPolls => None,
        };
        if let Some(w) = &wq {
            w.bind(&vp);
            vp.install_hook(Arc::clone(w) as Arc<dyn SchedulerHook>);
        }
        PollEngine { vp, policy, wq }
    }

    pub fn policy(&self) -> PollingPolicy {
        self.policy
    }

    /// Block the calling user-level thread until `handle` completes,
    /// using the configured polling policy. Never blocks the VP.
    pub fn wait(&self, handle: &RecvHandle) {
        self.wait_first(&[handle], None)
            .expect("an untimed wait cannot time out");
    }

    /// Like [`PollEngine::wait`], but give up once `deadline` passes.
    /// Returns `Err(ChantError::Timeout)` on expiry; the handle stays
    /// valid (the message may still arrive later).
    pub fn wait_deadline(
        &self,
        handle: &RecvHandle,
        deadline: Instant,
    ) -> Result<(), ChantError> {
        self.wait_first(&[handle], Some(deadline)).map(|_| ())
    }

    /// Block the calling thread until *any* of `handles` completes,
    /// returning the index of one completed receive (MPI `WAITANY` at
    /// the Chant level).
    pub fn wait_any(&self, handles: &[&RecvHandle]) -> usize {
        assert!(!handles.is_empty(), "wait_any needs at least one handle");
        self.wait_first(handles, None)
            .expect("an untimed wait cannot time out")
    }

    /// The one wait: block until any of `handles` completes — returning
    /// its index — or, with a `deadline`, until that passes
    /// (`Err(ChantError::Timeout)`). Each policy is written out here once;
    /// [`PollEngine::wait`] and [`PollEngine::wait_deadline`] are the
    /// one-handle callers.
    ///
    /// An untimed wait arms no timer and never reads the clock. Under the
    /// scheduler-polls policies a deadline is a timer in the VP
    /// ([`Vp::block_until`] / [`Vp::timer_arm`]), so a lane with nothing
    /// else to run sleeps until the message or the deadline instead of
    /// re-reading the clock. TP keeps the paper's loop: its waiter is
    /// ready anyway, re-testing each time it is scheduled, and reads the
    /// clock while it is there.
    fn wait_first(
        &self,
        handles: &[&RecvHandle],
        deadline: Option<Instant>,
    ) -> Result<usize, ChantError> {
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let first_arrived = || handles.iter().position(|h| h.msgtest());
        let first_complete = || handles.iter().position(|h| h.is_complete());
        // Eager first pass, as in Figures 5/6.
        if let Some(i) = first_arrived() {
            return Ok(i);
        }
        match self.policy {
            // Figure 5: while (probe != true) yield.
            PollingPolicy::ThreadPolls => loop {
                if expired() {
                    return Err(ChantError::Timeout);
                }
                self.vp.yield_now();
                if let Some(i) = first_arrived() {
                    return Ok(i);
                }
            },
            PollingPolicy::SchedulerPollsWq | PollingPolicy::SchedulerPollsWqTestany => {
                // Figure 6: add probe request to scheduler table; yield.
                let me = current_tid().expect("wait outside a user-level thread");
                let wq = self.wq.as_ref().expect("WQ policy without its hook");
                for h in handles {
                    wq.register(me, (*h).clone());
                }
                // `block` can also be completed by a stale wakeup token
                // (e.g. a condvar notify that raced the notified
                // waiter's departure elsewhere on this VP): re-park
                // until a receive is really complete — our table
                // entries are still registered on a spurious wake.
                let outcome = loop {
                    match deadline {
                        None => self.vp.block(),
                        Some(d) => self.vp.block_until(d),
                    }
                    if let Some(i) = first_complete() {
                        break Ok(i);
                    }
                    if expired() {
                        break Err(ChantError::Timeout);
                    }
                };
                // Idempotent: the hook's completion wake already dropped
                // our entries; an exit via stale token or deadline (even
                // one that raced a late completion) has not.
                wq.unregister(me);
                outcome
            }
            PollingPolicy::SchedulerPollsPs => {
                // §4.2: store the request in the TCB; the scheduler tests
                // it before completing a switch to us. With a deadline it
                // resumes us when a receive completes *or* the deadline
                // passes, and we disambiguate here; the armed timer is
                // what makes a sleeping lane run the round in which the
                // pending check reads the clock.
                let timer = deadline.map(|d| self.vp.timer_arm(d));
                let outcome = loop {
                    let owned: Vec<RecvHandle> = handles.iter().map(|h| (*h).clone()).collect();
                    self.vp.set_current_pending(Box::new(move || {
                        owned.iter().any(|h| h.msgtest())
                            || deadline.is_some_and(|d| Instant::now() >= d)
                    }));
                    self.vp.yield_now();
                    self.vp.take_current_pending();
                    if let Some(i) = first_complete() {
                        break Ok(i);
                    }
                    if expired() {
                        break Err(ChantError::Timeout);
                    }
                    assert!(
                        deadline.is_some(),
                        "PS dispatch resumed a thread whose receive is incomplete"
                    );
                };
                if let Some(t) = timer {
                    self.vp.timer_disarm(t);
                }
                outcome
            }
        }
    }

    /// Server-thread variant of [`PollEngine::wait`] implementing the
    /// paper's priority rule (§3.2): the server waits at normal priority
    /// but "assumes a higher scheduling priority than the computation
    /// threads" the moment a request is in hand, "ensuring that it is
    /// scheduled at the next context switch point".
    pub fn wait_boosting(&self, handle: &RecvHandle) {
        let me = current_tid().expect("wait outside a user-level thread");
        match self.policy {
            PollingPolicy::ThreadPolls => {
                // The server must poll fairly (a permanently-HIGH ready
                // thread would monopolize a TP scheduler), so it waits at
                // NORMAL and boosts itself once the request has arrived.
                let _ = self.vp.set_priority(me, Priority::NORMAL);
                self.wait(handle);
                let _ = self.vp.set_priority(me, Priority::HIGH);
            }
            _ => {
                // Scheduler-polls policies park the server off the run
                // path, so it can sit at HIGH the whole time: when its
                // message arrives it is queued ahead of all computation
                // threads — the "next context switch point" guarantee.
                let _ = self.vp.set_priority(me, Priority::HIGH);
                self.wait(handle);
            }
        }
    }

    /// Drop the server back to computation priority after handling a
    /// request.
    pub fn unboost(&self) {
        if let Some(me) = current_tid() {
            let _ = self.vp.set_priority(me, Priority::NORMAL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(PollingPolicy::ThreadPolls.label(), "Thread polls");
        assert_eq!(
            PollingPolicy::SchedulerPollsWq.label(),
            "Scheduler polls (WQ)"
        );
        assert_eq!(
            PollingPolicy::SchedulerPollsPs.label(),
            "Scheduler polls (PS)"
        );
    }

    #[test]
    fn portability_classification() {
        assert!(!PollingPolicy::ThreadPolls.needs_scheduler_support());
        assert!(PollingPolicy::SchedulerPollsWq.needs_scheduler_support());
        assert!(PollingPolicy::SchedulerPollsPs.needs_scheduler_support());
        assert!(PollingPolicy::SchedulerPollsWqTestany.needs_scheduler_support());
    }

    #[test]
    fn all_contains_each_once() {
        let mut set = std::collections::HashSet::new();
        for p in PollingPolicy::ALL {
            assert!(set.insert(p));
        }
        assert_eq!(set.len(), 4);
    }
}
