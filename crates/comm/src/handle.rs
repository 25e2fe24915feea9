//! Completion handles for nonblocking operations.
//!
//! "When a non-blocking operation is performed, the communication system
//! returns a 'handle' that can be used to check the completion of the
//! operation at a later point in time" (paper §3.1). [`RecvHandle`] is
//! that handle; [`RecvHandle::msgtest`] and [`RecvHandle::msgwait`] are
//! NX's `msgtest`/`msgwait`, and [`crate::testany`] is MPI's
//! `MPI_TEST_ANY`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::guard::assert_may_block;
use crate::header::Header;
use crate::stats::CommStats;
use crate::testany::CompletionInner;

/// Longest one event-loop turn of a blocked OS thread lasts before it
/// re-tests its receive: an arrival another thread's turn delivered
/// is seen within this.
const DRIVE_SLICE: Duration = Duration::from_millis(1);

#[derive(Default)]
pub(crate) struct RecvState {
    pub done: bool,
    pub header: Option<Header>,
    pub body: Option<Bytes>,
    /// Completion-list subscription: on completion, push the token onto
    /// the subscribed set's ready list (see [`crate::CompletionSet`]).
    pub notify: Option<(Arc<CompletionInner>, u64)>,
    /// When the receive was posted (tracer clock, ns), for the
    /// posted-receive wait histogram.
    pub posted_at_ns: u64,
    /// OS threads asleep on the condvar in `wait_until`: completion
    /// notifies only when there is one, since a notify is a syscall
    /// whether or not anyone waits.
    pub sleepers: u32,
}

pub(crate) struct RecvShared {
    pub state: Mutex<RecvState>,
    pub cv: Condvar,
}

impl RecvShared {
    pub fn new() -> Arc<RecvShared> {
        Arc::new(RecvShared {
            state: Mutex::new(RecvState::default()),
            cv: Condvar::new(),
        })
    }

    /// Deliver a message into this receive and mark it complete.
    pub fn complete(&self, header: Header, body: Bytes) {
        let mut st = self.state.lock();
        debug_assert!(!st.done, "receive completed twice");
        st.header = Some(header);
        st.body = Some(body);
        st.done = true;
        let notify = st.notify.take();
        if st.sleepers > 0 {
            self.cv.notify_all();
        }
        drop(st);
        // Posted-match completions run under the endpoint delivery lock,
        // so ready-list order is delivery order.
        if let Some((inner, token)) = notify {
            inner.ready.lock().push_back(token);
        }
    }

    /// Subscribe this receive to a completion list: on completion, push
    /// `token` onto `inner`'s ready list. An already-complete receive is
    /// pushed immediately, so the subscriber cannot miss the event.
    pub fn subscribe(&self, inner: &Arc<CompletionInner>, token: u64) {
        let mut st = self.state.lock();
        if st.done {
            inner.ready.lock().push_back(token);
        } else {
            debug_assert!(
                st.notify.is_none(),
                "a receive can feed one completion list at a time"
            );
            st.notify = Some((Arc::clone(inner), token));
        }
    }

    /// Cancel a subscription made with `token` (no-op if the receive has
    /// already completed or was never subscribed with that token).
    pub fn unsubscribe(&self, token: u64) {
        let mut st = self.state.lock();
        if matches!(st.notify, Some((_, t)) if t == token) {
            st.notify = None;
        }
    }
}

/// Handle to an outstanding nonblocking receive.
///
/// Cloneable so that a polling policy (e.g. the PS algorithm's per-TCB
/// pending request) can test the same receive the blocked thread owns.
///
/// When the **last** clone is dropped with the receive still unmatched,
/// the posted entry is retired from the endpoint's matching tables —
/// an abandoned receive must not claim (and silently lose) a future
/// arrival.
#[derive(Clone)]
pub struct RecvHandle {
    pub(crate) shared: Arc<RecvShared>,
    pub(crate) stats: Arc<CommStats>,
    /// Retire-on-drop token shared by all clones; `None` for receives
    /// satisfied at posting time (nothing left in the tables to retire).
    pub(crate) owner: Option<Arc<crate::endpoint::RecvOwner>>,
    /// The owning endpoint's trace lane, so completion inquiries land on
    /// the endpoint's timeline track.
    pub(crate) lane: Option<chant_obs::LaneHandle>,
}

impl RecvHandle {
    /// Test for completion, counting one `msgtest` call (NX `msgdone`).
    pub fn msgtest(&self) -> bool {
        self.stats.msgtests.incr();
        let done = self.shared.state.lock().done;
        if !done {
            self.stats.msgtest_failures.incr();
        }
        if let Some(lane) = &self.lane {
            lane.emit(chant_obs::Event::Msgtest { ok: done });
        }
        done
    }

    /// Completion status *without* counting a `msgtest` call. Used by
    /// [`testany`](crate::testany()) and by bookkeeping that the paper's
    /// counters must not see (e.g. re-checking after a successful test).
    pub fn is_complete(&self) -> bool {
        self.shared.state.lock().done
    }

    /// Block the calling **OS thread** until completion (NX `msgwait`).
    ///
    /// # Panics
    /// Panics if called from a user-level thread while a blocking guard
    /// is installed — thread runtimes must poll instead (paper §3.1).
    pub fn msgwait(&self) {
        assert_may_block("msgwait");
        self.stats.blocking_waits.incr();
        self.wait_until(None);
    }

    /// Block the calling **OS thread** until completion or until
    /// `timeout` elapses; returns whether the receive completed. Same
    /// blocking-guard rules as [`RecvHandle::msgwait`].
    pub fn msgwait_timeout(&self, timeout: Duration) -> bool {
        assert_may_block("msgwait_timeout");
        self.stats.blocking_waits.incr();
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// Wait for completion until `deadline` (`None`: no limit). Over a
    /// transport with no thread of its own, the waiter runs its turns —
    /// each at most [`DRIVE_SLICE`] long, then the receive is re-tested;
    /// otherwise it sleeps on the receive's condvar.
    fn wait_until(&self, deadline: Option<Instant>) -> bool {
        let drive = self.owner.as_ref().and_then(|o| o.transport_to_drive());
        loop {
            let mut st = self.shared.state.lock();
            if st.done {
                return true;
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return false;
            }
            match (&drive, left) {
                (Some(t), _) => {
                    // Unlocked: the turn may complete this very receive.
                    drop(st);
                    t.poll(left.map_or(DRIVE_SLICE, |l| l.min(DRIVE_SLICE)));
                }
                (None, left) => {
                    st.sleepers += 1;
                    match left {
                        None => self.shared.cv.wait(&mut st),
                        Some(l) => {
                            self.shared.cv.wait_for(&mut st, l);
                        }
                    }
                    st.sleepers -= 1;
                }
            }
        }
    }

    /// Give up on this receive: take it out of the endpoint's matching
    /// tables *now*, instead of when the last clone is dropped. Returns
    /// `true` if it was retired unmatched — no later arrival can be
    /// claimed by it. Returns `false` if an arrival got there first: the
    /// receive is complete and [`RecvHandle::take`] yields the message,
    /// which a caller timing out must then deliver rather than drop.
    /// (A timeout and an arrival can always race; deciding the race
    /// under the endpoint lock is what keeps the message from being
    /// lost in it.)
    pub fn retire(&self) -> bool {
        match &self.owner {
            Some(owner) => owner.retire(),
            None => false, // satisfied at posting time
        }
    }

    /// Claim the delivered message. Returns `None` until completion, and
    /// `None` again after the first successful claim.
    pub fn take(&self) -> Option<(Header, Bytes)> {
        let mut st = self.shared.state.lock();
        if !st.done {
            return None;
        }
        match (st.header.take(), st.body.take()) {
            (Some(h), Some(b)) => {
                self.stats.bytes_received.add(b.len() as u64);
                Some((h, b))
            }
            _ => None,
        }
    }
}

impl std::fmt::Debug for RecvHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvHandle")
            .field("done", &self.is_complete())
            .finish()
    }
}

/// Handle to a nonblocking send.
///
/// The in-memory transport delivers synchronously, so sends are complete
/// (in the NX "locally blocking" sense: the buffer is reusable) as soon
/// as `isend` returns; the handle exists for interface fidelity and for
/// transports with deferred delivery.
#[derive(Clone, Debug)]
pub struct SendHandle {
    pub(crate) complete: bool,
}

impl SendHandle {
    /// Test for completion.
    pub fn msgtest(&self) -> bool {
        self.complete
    }

    /// Wait for completion (a no-op for the in-memory transport).
    pub fn msgwait(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{kind, Address};
    use crate::testany::testany;

    fn handle() -> RecvHandle {
        RecvHandle {
            shared: RecvShared::new(),
            stats: Arc::new(CommStats::default()),
            owner: None,
            lane: None,
        }
    }

    fn dummy_header(len: u32) -> Header {
        Header {
            src: Address::new(0, 0),
            dst: Address::new(1, 0),
            tag: 0,
            ctx: 0,
            kind: kind::DATA,
            len,
            trace: 0,
        }
    }

    #[test]
    fn msgtest_counts_and_reports() {
        let h = handle();
        assert!(!h.msgtest());
        assert!(!h.msgtest());
        h.shared.complete(dummy_header(3), Bytes::from_static(b"abc"));
        assert!(h.msgtest());
        let s = h.stats.snapshot();
        assert_eq!(s.msgtests, 3);
        assert_eq!(s.msgtest_failures, 2);
    }

    #[test]
    fn take_is_single_shot() {
        let h = handle();
        assert!(h.take().is_none());
        h.shared.complete(dummy_header(2), Bytes::from_static(b"hi"));
        let (hdr, body) = h.take().unwrap();
        assert_eq!(hdr.len, 2);
        assert_eq!(&body[..], b"hi");
        assert!(h.take().is_none(), "second take must yield nothing");
        assert_eq!(h.stats.snapshot().bytes_received, 2);
    }

    #[test]
    fn msgwait_returns_after_completion() {
        let h = handle();
        let h2 = h.clone();
        let t = std::thread::spawn(move || h2.msgwait());
        // Complete only once the waiter is asleep on the condvar: the
        // completion must wake it, not find it still testing.
        let deadline = Instant::now() + Duration::from_secs(10);
        while h.shared.state.lock().sleepers == 0 {
            assert!(Instant::now() < deadline, "the waiter never went to sleep");
            std::thread::yield_now();
        }
        assert!(!t.is_finished());
        h.shared.complete(dummy_header(0), Bytes::new());
        t.join().unwrap();
        assert_eq!(h.shared.state.lock().sleepers, 0);
        assert_eq!(h.stats.snapshot().blocking_waits, 1);
    }

    #[test]
    fn testany_finds_a_completed_handle_with_one_counted_call() {
        let a = handle();
        let b = RecvHandle {
            shared: RecvShared::new(),
            stats: Arc::clone(&a.stats),
            owner: None,
            lane: None,
        };
        assert_eq!(testany(&[&a, &b]), None);
        b.shared.complete(dummy_header(0), Bytes::new());
        assert_eq!(testany(&[&a, &b]), Some(1));
        let s = a.stats.snapshot();
        assert_eq!(s.testany_calls, 2);
        assert_eq!(s.msgtests, 0, "testany must not count per-request tests");
    }

    #[test]
    fn testany_on_empty_slice_is_none() {
        assert_eq!(testany(&[]), None);
    }
}
