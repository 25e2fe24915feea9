//! MPI-style test-any and the event-driven completion list behind it.
//!
//! The Chant paper could not use `MPI_TEST_ANY` on NX ("on other systems,
//! such as the Intel NX system Chant is currently using, this
//! functionality is not supported", §4.2) and hypothesised that WQ
//! polling would fare better with it. [`testany`] provides the one-call
//! interface over a plain handle slice; [`CompletionSet`] provides the
//! same interface over a *subscription*: each member receive pushes a
//! token onto the set's ready list at the moment it completes, so a
//! `testany` call costs O(completed) instead of O(outstanding).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::handle::RecvHandle;

/// MPI-style `MPI_TEST_ANY`: test a set of outstanding receives with a
/// *single* call, returning the index of one completed receive, if any.
///
/// Exactly one `testany` call is counted (against the first handle's
/// endpoint), however many requests are covered; the per-request probes
/// are *not* counted as `msgtest` calls, which is the whole point.
pub fn testany(handles: &[&RecvHandle]) -> Option<usize> {
    let first = handles.first()?;
    first.stats.testany_calls.incr();
    let found = handles.iter().position(|h| h.is_complete());
    #[cfg(feature = "trace")]
    if let Some(lane) = &first.lane {
        lane.emit(chant_obs::Event::Testany {
            ready: found.is_some(),
        });
    }
    found
}

/// The shared half of a [`CompletionSet`]: the list of member tokens
/// whose receives have completed, fed by [`RecvShared::complete`]
/// (crate::handle) under the endpoint delivery lock so ready order is
/// completion order.
pub(crate) struct CompletionInner {
    pub(crate) ready: Mutex<VecDeque<u64>>,
}

/// An event-driven set of outstanding receives supporting O(completed)
/// test-any.
///
/// Inserting a handle subscribes its receive: completion pushes the
/// member's token onto the ready list (a receive that is already
/// complete is pushed immediately, so no wakeup can be missed).
/// [`CompletionSet::testany`] then pops ready members instead of probing
/// every outstanding request, while preserving the counting semantics of
/// the free [`testany`]: one `testany_calls` bump per call on a
/// non-empty set, none when the set is empty.
pub struct CompletionSet {
    inner: Arc<CompletionInner>,
    members: HashMap<u64, RecvHandle>,
    next_token: u64,
}

impl Default for CompletionSet {
    fn default() -> CompletionSet {
        CompletionSet::new()
    }
}

impl CompletionSet {
    /// Create an empty set.
    pub fn new() -> CompletionSet {
        CompletionSet {
            inner: Arc::new(CompletionInner {
                ready: Mutex::new(VecDeque::new()),
            }),
            members: HashMap::new(),
            next_token: 0,
        }
    }

    /// Add a receive to the set, returning its membership token.
    ///
    /// # Panics
    /// Debug-panics if the receive is already subscribed to a set: a
    /// receive can feed one completion list at a time.
    pub fn insert(&mut self, handle: RecvHandle) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        handle.shared.subscribe(&self.inner, token);
        self.members.insert(token, handle);
        token
    }

    /// Drop a member without waiting for it (e.g. a wait-any sibling of
    /// a receive that already woke its thread). A completion that
    /// already queued the token is discarded lazily by [`Self::testany`].
    pub fn remove(&mut self, token: u64) {
        if let Some(handle) = self.members.remove(&token) {
            handle.shared.unsubscribe(token);
        }
    }

    /// Number of member receives still being waited on.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no receives are being waited on.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// One `msgtestany` call: pop a completed member, if any, removing
    /// it from the set and returning its token.
    ///
    /// Counting mirrors the free [`testany`] exactly: an empty set
    /// returns `None` without counting; otherwise one `testany_calls`
    /// bump is recorded per call, whether or not a completion is found.
    pub fn testany(&mut self) -> Option<u64> {
        let member = self.members.values().next()?;
        member.stats.testany_calls.incr();
        #[cfg(feature = "trace")]
        let lane = member.lane.clone();
        let mut found = None;
        let mut ready = self.inner.ready.lock();
        while let Some(token) = ready.pop_front() {
            // Tokens of removed members are stale; skip them.
            if let Some(handle) = self.members.remove(&token) {
                debug_assert!(handle.is_complete(), "ready list held a pending receive");
                found = Some(token);
                break;
            }
        }
        drop(ready);
        #[cfg(feature = "trace")]
        if let Some(lane) = lane {
            lane.emit(chant_obs::Event::Testany {
                ready: found.is_some(),
            });
        }
        found
    }
}

impl std::fmt::Debug for CompletionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("members", &self.members.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::RecvShared;
    use crate::header::{kind, Address, Header};
    use bytes::Bytes;

    fn handle_pair() -> (RecvHandle, RecvHandle) {
        let stats = Arc::new(crate::CommStats::default());
        let a = RecvHandle {
            shared: RecvShared::new(),
            stats: Arc::clone(&stats),
            owner: None,
            #[cfg(feature = "trace")]
            lane: None,
        };
        let b = RecvHandle {
            shared: RecvShared::new(),
            stats,
            owner: None,
            #[cfg(feature = "trace")]
            lane: None,
        };
        (a, b)
    }

    fn hdr() -> Header {
        Header {
            src: Address::new(0, 0),
            dst: Address::new(1, 0),
            tag: 0,
            ctx: 0,
            kind: kind::DATA,
            len: 0,
            #[cfg(feature = "trace")]
            trace: 0,
        }
    }

    #[test]
    fn completion_pushes_token_and_testany_pops_it() {
        let (a, b) = handle_pair();
        let stats = Arc::clone(&a.stats);
        let mut set = CompletionSet::new();
        let ta = set.insert(a.clone());
        let tb = set.insert(b.clone());
        assert_eq!(set.testany(), None);
        b.shared.complete(hdr(), Bytes::new());
        assert_eq!(set.testany(), Some(tb));
        assert_eq!(set.len(), 1);
        a.shared.complete(hdr(), Bytes::new());
        assert_eq!(set.testany(), Some(ta));
        // Empty set: None without counting, like testany(&[]).
        assert_eq!(set.testany(), None);
        let s = stats.snapshot();
        assert_eq!(s.testany_calls, 3);
        assert_eq!(s.msgtests, 0, "completion list must not count msgtests");
    }

    #[test]
    fn already_complete_receive_is_ready_at_insert() {
        let (a, _) = handle_pair();
        a.shared.complete(hdr(), Bytes::new());
        let mut set = CompletionSet::new();
        let t = set.insert(a);
        assert_eq!(set.testany(), Some(t));
    }

    #[test]
    fn removed_member_token_is_discarded() {
        let (a, b) = handle_pair();
        let mut set = CompletionSet::new();
        let ta = set.insert(a.clone());
        let tb = set.insert(b.clone());
        a.shared.complete(hdr(), Bytes::new());
        set.remove(ta); // completion already queued ta: must be skipped
        b.shared.complete(hdr(), Bytes::new());
        assert_eq!(set.testany(), Some(tb));
        assert_eq!(set.testany(), None);
    }

    #[test]
    fn unsubscribed_receive_does_not_push() {
        let (a, b) = handle_pair();
        let mut set = CompletionSet::new();
        let ta = set.insert(a.clone());
        let _tb = set.insert(b);
        set.remove(ta);
        a.shared.complete(hdr(), Bytes::new());
        assert!(set.inner.ready.lock().is_empty());
    }

    #[test]
    fn ready_order_is_completion_order() {
        let (a, b) = handle_pair();
        let mut set = CompletionSet::new();
        let ta = set.insert(a.clone());
        let tb = set.insert(b.clone());
        b.shared.complete(hdr(), Bytes::new());
        a.shared.complete(hdr(), Bytes::new());
        assert_eq!(set.testany(), Some(tb));
        assert_eq!(set.testany(), Some(ta));
    }
}
