//! Remote service requests (paper §3.2).
//!
//! "Remote service request messages are distinguished from point-to-point
//! messages in that the destination thread is not expecting the message."
//! Since such messages arrive "unannounced", Chant introduces a **server
//! thread** per process that repeatedly posts a nonblocking receive for
//! any RSR-class message, waits using the normal polling machinery, and
//! dispatches the decoded request to a handler — the paper's Figure 7,
//! verbatim in structure:
//!
//! ```text
//! repeat forever {
//!     ireceive(remote-service-request-message-type);
//!     if (probe(args) != true) { add probe request to scheduler table; yield; }
//!     message = receive(args);
//!     handler = unpack(message);
//!     *handler(message);
//! }
//! ```
//!
//! No interrupts are used anywhere — interrupts would "disrupt the data
//! and code caches" and "the MPI standard does not support
//! interrupt-driven message passing" (§3.2). While a request is in hand
//! the server runs at elevated priority, so replies go out "as soon as
//! possible ... without having to interrupt a computation thread
//! prematurely".

use std::collections::{btree_map, BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_comm::{kind, Address, RecvSpec};
use chant_ult::current_tid;
use parking_lot::Mutex;

use crate::error::ChantError;
use crate::id::ChanterId;
use crate::node::ChantNode;
use crate::ops;
use crate::wire::{decode_reply, decode_rsr, encode_reply, encode_rsr};

// Built-in RSR function ids (the paper's examples: remote thread
// creation §3.3, remote fetch, coherence management §3.2) now live with
// every other reserved identifier in [`crate::ranges`].
pub(crate) use crate::ranges::fns;

/// First function id available to user-registered RSR handlers; smaller
/// ids are reserved for built-in global thread operations and runtime
/// extensions (see [`crate::ranges::fns`]).
pub const SERVER_FN_USER_BASE: u32 = crate::ranges::fns::USER_BASE;

/// A decoded remote service request, as seen by a user handler.
#[derive(Clone, Debug)]
pub struct RsrRequest {
    /// The requesting global thread.
    pub from: ChanterId,
    /// Requested function id.
    pub fn_id: u32,
    /// Argument bytes (opaque to the runtime).
    pub args: Bytes,
}

/// A user-registered request handler, run on the server thread. Its
/// result is sent back to the requester (unless the request was posted
/// fire-and-forget).
pub type RsrHandler =
    Arc<dyn Fn(&Arc<ChantNode>, RsrRequest) -> Result<Bytes, ChantError> + Send + Sync>;

pub(crate) type HandlerTable = HashMap<u32, RsrHandler>;

/// Retry/backoff policy for remote operations issued through
/// [`ChantNode::rsr_call`]. When installed (via
/// [`crate::ClusterBuilder::rsr_retry`]) every remote op bounds each
/// attempt with a deadline, retransmits with exponential backoff, and —
/// once attempts are exhausted — runs one liveness PING to distinguish
/// [`ChantError::Timeout`] (node alive, op fate unknown) from
/// [`ChantError::NodeUnreachable`] (node dead or partitioned).
///
/// Retransmissions reuse the request's sequence number, so the server's
/// dedup table guarantees the op executes at most once even when the
/// transport duplicates or the client re-sends.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total send attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Deadline for the first attempt; doubled per retry.
    pub base_timeout: Duration,
    /// Backoff ceiling for the per-attempt deadline.
    pub max_timeout: Duration,
    /// Reply window for the final liveness PING.
    pub liveness_ping: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_timeout: Duration::from_millis(25),
            max_timeout: Duration::from_millis(400),
            liveness_ping: Duration::from_millis(200),
        }
    }
}

enum DedupEntry {
    /// Executing now, or a deferred reply (JOIN) not yet sent: duplicates
    /// are dropped so the op cannot run twice or double-register.
    Pending,
    /// Done; the cached encoded reply is retransmitted verbatim.
    Completed(Bytes),
}

pub(crate) enum DedupVerdict {
    New,
    /// In flight, or below the client's floor: not run, not answered.
    Dropped,
    Replay(Bytes),
}

/// A server's dedup table for one client node: every request at or
/// above `floor` (the largest `low` that client has sent), pending or
/// with its cached reply. Below the floor the client awaits nothing, so
/// no entry is kept and any request is refused.
#[derive(Default)]
struct ClientTable {
    floor: u64,
    entries: BTreeMap<u64, DedupEntry>,
}

/// Client side: the seqs this node has issued since its oldest call
/// still awaiting a reply. Seqs are consecutive, so `done[i]` says
/// whether `base + i` is settled (replied, abandoned, or a post); the
/// front is always unsettled, which makes `base` the floor a request
/// carries as its `low`.
struct Outstanding {
    base: u64,
    done: VecDeque<bool>,
}

impl Outstanding {
    /// Take the next seq; returns it with the floor to send beside it.
    /// An `awaited` seq holds the floor until it is settled; any other
    /// is settled at once.
    fn issue(&mut self, awaited: bool) -> (u64, u64) {
        let seq = self.base + self.done.len() as u64;
        if self.done.is_empty() && !awaited {
            self.base += 1;
            return (seq, seq);
        }
        self.done.push_back(!awaited);
        (seq, self.base)
    }

    /// `seq` is no longer awaited (idempotent).
    fn settle(&mut self, seq: u64) {
        if let Some(d) = seq.checked_sub(self.base).and_then(|i| self.done.get_mut(i as usize)) {
            *d = true;
        }
        while self.done.front() == Some(&true) {
            self.done.pop_front();
            self.base += 1;
        }
    }
}

chant_obs::counters! {
    /// One node's always-on RSR robustness counters.
    "rsr": pub(crate) struct RsrStats => pub struct RsrStatsSnapshot {
        /// Client-side request retransmissions.
        retries,
        /// Remote ops that exhausted retries with the target still alive.
        timeouts,
        /// Remote ops that failed fast because the target missed its PING.
        unreachable,
        /// Requests dropped unrun: a duplicate of one in flight, or any
        /// request below its client's floor.
        dup_dropped,
        /// Duplicate requests answered from a cached reply.
        dup_replayed,
        /// Malformed RSR bodies dropped by the server.
        malformed,
    }
}

/// Per-node RSR state: the reply-token allocator, the client's
/// outstanding calls, the retry policy, and the server's dedup tables.
pub(crate) struct RsrState {
    token: AtomicU32,
    /// Seq allocation and the outstanding record under one lock, so no
    /// request's `low` passes a seq a sibling has taken but not yet
    /// recorded. Seeded per process incarnation (see [`boot_seq`]).
    calls: Arc<Mutex<Outstanding>>,
    pub(crate) retry: Option<RetryPolicy>,
    dedup: Mutex<HashMap<Address, ClientTable>>,
    pub(crate) stats: RsrStats,
    malformed_note: Mutex<Option<String>>,
}

impl RsrState {
    pub fn new(retry: Option<RetryPolicy>) -> RsrState {
        RsrState {
            token: AtomicU32::new(0),
            calls: Arc::new(Mutex::new(Outstanding {
                base: boot_seq(),
                done: VecDeque::new(),
            })),
            retry,
            dedup: Mutex::new(HashMap::new()),
            stats: RsrStats::default(),
            malformed_note: Mutex::new(None),
        }
    }

    /// Allocate a reply token in `1..=0xFFFE` (0 means "no reply"; the
    /// range fits the tag-overload user-tag space so replies can be
    /// addressed in either naming mode).
    pub fn next_token(&self) -> u32 {
        self.token.fetch_add(1, Ordering::Relaxed) % 0xFFFE + 1
    }
}

/// First request sequence number of this process incarnation: the boot
/// wall clock in nanoseconds (≥ 1, and seqs only increase). A restarted
/// process reuses its dead predecessor's `Address`, and the peers' dedup
/// tables still hold `(address, seq)` entries from before the crash —
/// restarting the allocator at 1 would replay the old incarnation's
/// cached replies to the new incarnation's fresh requests. A boot-time
/// seed keeps the sequence space monotonic across restarts, and the new
/// incarnation's first request carries its boot seq as `low`, so each
/// server drops the old entries at once.
fn boot_seq() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        .max(1)
}

impl RsrState {
    /// Server side: raise the client's floor to `low` (dropping every
    /// entry below it), then classify the request, registering a fresh
    /// seq as in flight.
    pub fn dedup_begin(&self, client: Address, seq: u64, low: u64) -> DedupVerdict {
        let mut map = self.dedup.lock();
        let table = map.entry(client).or_default();
        let low = low.min(seq);
        if low > table.floor {
            table.floor = low;
            while table.entries.first_key_value().is_some_and(|(&s, _)| s < low) {
                table.entries.pop_first();
            }
        }
        if seq < table.floor {
            return DedupVerdict::Dropped;
        }
        match table.entries.entry(seq) {
            btree_map::Entry::Occupied(e) => match e.get() {
                DedupEntry::Pending => DedupVerdict::Dropped,
                DedupEntry::Completed(b) => DedupVerdict::Replay(b.clone()),
            },
            btree_map::Entry::Vacant(e) => {
                e.insert(DedupEntry::Pending);
                DedupVerdict::New
            }
        }
    }

    /// Server side: record the encoded reply for a finished request so a
    /// late duplicate is answered without re-execution.
    pub fn dedup_complete(&self, client: Address, seq: u64, reply: Bytes) {
        let mut map = self.dedup.lock();
        if let Some(entry) = map.get_mut(&client).and_then(|t| t.entries.get_mut(&seq)) {
            *entry = DedupEntry::Completed(reply);
        }
    }

    pub fn note_malformed(&self, note: String) {
        self.stats.malformed.incr();
        *self.malformed_note.lock() = Some(note);
    }

    pub fn take_malformed_note(&self) -> Option<String> {
        self.malformed_note.lock().take()
    }
}

/// The client half of an outstanding remote service request, decoupled
/// from its wait. [`ChantNode::rsr_icall`] posts the reply receive
/// *before* sending the request (so the response always finds a posted
/// buffer) and returns this handle; completion is then observed through
/// the node's normal polling machinery — [`ChantNode::rsr_test`] for a
/// nonblocking probe, [`ChantNode::rsr_wait`] for a policy-governed
/// blocking wait (retrying, when the cluster has a [`RetryPolicy`]),
/// [`ChantNode::rsr_wait_deadline`] for a bounded wait. The one-sided
/// memory layer (`chant-rma`) builds its nonblocking operation handles
/// directly on this, which is how RMA completions ride the same four
/// polling policies as ordinary receives.
///
/// The call counts as outstanding — it holds its node's floor at or
/// below its seq, so the servers keep its dedup entry — until its reply
/// is absorbed or the handle is dropped, whichever comes first. Dropping
/// the handle retires the posted reply receive (nothing leaks); a copy
/// of the abandoned request that the transport delivers late runs at
/// most once, and not at all once a later request has raised the floor
/// past it.
pub struct RsrCallHandle {
    dst: Address,
    spec: RecvSpec,
    body: Bytes,
    seq: u64,
    /// Requested function id (trace annotation on retries).
    fn_id: u32,
    state: Mutex<CallState>,
    calls: Arc<Mutex<Outstanding>>,
}

impl Drop for RsrCallHandle {
    fn drop(&mut self) {
        if self.state.get_mut().result.is_none() {
            self.calls.lock().settle(self.seq);
        }
    }
}

struct CallState {
    reply: chant_comm::RecvHandle,
    /// Decoded outcome, once the matching reply has been taken.
    result: Option<Result<Bytes, ChantError>>,
}

impl RsrCallHandle {
    /// The request's per-node sequence number (diagnostics; duplicates
    /// of this request replay, not re-execute).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Non-counting bookkeeping check: has the reply been decoded?
    pub fn is_complete(&self) -> bool {
        self.state.lock().result.is_some()
    }
}

impl ChantNode {
    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    /// Issue a remote service request and wait for its reply (a remote
    /// procedure call). The reply receive is posted *before* the request
    /// is sent, so the response always finds a posted buffer (zero-copy
    /// path) and no completion can be missed.
    ///
    /// With a [`RetryPolicy`] installed the wait is bounded: each
    /// attempt re-sends the *same* token and sequence number (the
    /// server's dedup table makes retransmission safe) with doubling
    /// deadlines, and exhaustion ends in [`ChantError::Timeout`] or —
    /// when the target also misses a liveness PING —
    /// [`ChantError::NodeUnreachable`].
    pub fn rsr_call(&self, dst: Address, fn_id: u32, args: &[u8]) -> Result<Bytes, ChantError> {
        let call = self.rsr_icall(dst, fn_id, args)?;
        self.rsr_wait(&call)
    }

    /// The cluster's installed [`RetryPolicy`], if any (see
    /// [`crate::ClusterBuilder::rsr_retry`]). Runtime services built on
    /// RSR consult it to pick a call discipline: with a policy
    /// installed, [`ChantNode::rsr_call`] is bounded and safe against a
    /// dead peer; without one, a service daemon that must never wedge
    /// should fall back to [`ChantNode::rsr_icall`] plus
    /// [`ChantNode::rsr_wait_deadline`].
    pub fn rsr_retry_policy(&self) -> Option<RetryPolicy> {
        self.rsr.retry.clone()
    }

    /// Issue a remote service request without waiting for its reply: the
    /// nonblocking half of [`ChantNode::rsr_call`]. See
    /// [`RsrCallHandle`] for the completion interface.
    pub fn rsr_icall(
        &self,
        dst: Address,
        fn_id: u32,
        args: &[u8],
    ) -> Result<RsrCallHandle, ChantError> {
        let me = self.self_id();
        let token = self.rsr.next_token();
        let spec = self.naming().recv_spec(
            RecvSpec::any().from(dst).kind(kind::RSR_REPLY),
            me.thread,
            None,
            Some(token as i32),
        )?;
        let (seq, low) = self.rsr.calls.lock().issue(true);
        let body = encode_rsr(fn_id, token, me, seq, low, args);
        let reply = self.endpoint().irecv(spec);
        if let Some(lane) = self.vp().obs_lane() {
            lane.emit(chant_obs::Event::RsrCall { fn_id, seq });
        }
        self.endpoint().isend(dst, 0, 0, kind::RSR, body.clone());
        Ok(RsrCallHandle {
            dst,
            spec,
            body,
            seq,
            fn_id,
            state: Mutex::new(CallState {
                reply,
                result: None,
            }),
            calls: Arc::clone(&self.rsr.calls),
        })
    }

    /// Take a completed reply out of the underlying receive and decode
    /// it, settling the call. Returns `false` when the reply was a stale
    /// echo of a wrapped token (the receive is re-posted and the wait
    /// must continue). Caller holds the state lock.
    fn rsr_absorb(&self, call: &RsrCallHandle, st: &mut CallState) -> bool {
        let result = match st.reply.take().map(|(_, payload)| decode_reply(&payload)) {
            None => Err(ChantError::Wire("completed RSR reply had no message".into())),
            Some(Err(e)) => Err(e),
            Some(Ok((echo, result))) if echo == call.seq => result,
            // A stale reply to a wrapped token: re-post and keep waiting.
            Some(Ok(_)) => {
                st.reply = self.endpoint().irecv(call.spec);
                return false;
            }
        };
        st.result = Some(result);
        call.calls.lock().settle(call.seq);
        true
    }

    /// Nonblocking completion probe for an outstanding request (one
    /// `msgtest` against the posted reply, like
    /// [`ChantNode::msgtest`] for a receive).
    pub fn rsr_test(&self, call: &RsrCallHandle) -> bool {
        let mut st = call.state.lock();
        loop {
            if st.result.is_some() {
                return true;
            }
            if !st.reply.msgtest() {
                return false;
            }
            self.rsr_absorb(call, &mut st);
        }
    }

    /// Claim the decoded reply of a completed request. `None` until a
    /// test or wait has observed completion.
    pub fn rsr_take(&self, call: &RsrCallHandle) -> Option<Result<Bytes, ChantError>> {
        call.state.lock().result.clone()
    }

    /// Block the calling thread (never the processor) until the reply is
    /// in hand, under the node's polling policy — retrying with backoff
    /// when the cluster has a [`RetryPolicy`], exactly as
    /// [`ChantNode::rsr_call`] does.
    pub fn rsr_wait(&self, call: &RsrCallHandle) -> Result<Bytes, ChantError> {
        match self.rsr.retry.clone() {
            None => {
                self.rsr_await(call, None)?;
                self.rsr_take(call).expect("an awaited call is settled")
            }
            Some(policy) => self.rsr_wait_retrying(call, &policy),
        }
    }

    /// Bounded wait on the reply under the node's polling policy.
    /// Returns [`ChantError::Timeout`] once `deadline` passes; the
    /// handle stays valid (the reply may still arrive, and the wait may
    /// be re-issued). Does *not* retransmit — bounded waits compose with
    /// the caller's own pacing; use [`ChantNode::rsr_wait`] for the
    /// cluster's retry/backoff machinery.
    pub fn rsr_wait_deadline(
        &self,
        call: &RsrCallHandle,
        deadline: Instant,
    ) -> Result<(), ChantError> {
        self.rsr_await(call, Some(deadline))
    }

    /// The one reply wait: test, absorb, and wait under the node's
    /// polling policy until the call is settled or `deadline` (if any)
    /// passes ([`ChantError::Timeout`]). No retransmission.
    fn rsr_await(&self, call: &RsrCallHandle, deadline: Option<Instant>) -> Result<(), ChantError> {
        loop {
            let reply = {
                let mut st = call.state.lock();
                if st.result.is_some() {
                    return Ok(());
                }
                if st.reply.msgtest() {
                    self.rsr_absorb(call, &mut st);
                    continue;
                }
                st.reply.clone()
            };
            // The wait runs without the state lock held: a blocked
            // thread must not wedge other threads of this VP that test
            // the same handle.
            self.engine().wait_first(&[&reply], deadline)?;
        }
    }

    /// Bounded retrying wait: deadline per attempt, exponential backoff,
    /// liveness check on exhaustion. Attempt 1 is the send performed by
    /// [`ChantNode::rsr_icall`]; its deadline starts when the wait does.
    fn rsr_wait_retrying(
        &self,
        call: &RsrCallHandle,
        policy: &RetryPolicy,
    ) -> Result<Bytes, ChantError> {
        let mut timeout = policy.base_timeout;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                self.rsr.stats.retries.incr();
                if let Some(lane) = self.vp().obs_lane() {
                    lane.emit(chant_obs::Event::RsrRetry {
                        fn_id: call.fn_id,
                        attempt,
                    });
                }
                // Retransmit the *same* token and sequence number with a
                // freshly posted reply buffer (the old posted receive is
                // retired on replacement).
                {
                    let mut st = call.state.lock();
                    st.reply = self.endpoint().irecv(call.spec);
                }
                self.endpoint()
                    .isend(call.dst, 0, 0, kind::RSR, call.body.clone());
            }
            let deadline = Instant::now() + timeout;
            match self.rsr_wait_deadline(call, deadline) {
                Ok(()) => {
                    return self
                        .rsr_take(call)
                        .expect("rsr_wait_deadline returned without a result")
                }
                Err(ChantError::Timeout) => {}
                Err(e) => return Err(e),
            }
            timeout = (timeout * 2).min(policy.max_timeout);
        }
        self.rsr.stats.timeouts.incr();
        if self.probe_liveness(call.dst, policy.liveness_ping) {
            let _ = crate::flight::dump("retry-exhausted");
            Err(ChantError::Timeout)
        } else {
            self.rsr.stats.unreachable.incr();
            let _ = crate::flight::dump("node-unreachable");
            Err(ChantError::NodeUnreachable(ChanterId::new(
                call.dst.pe,
                call.dst.process,
                0,
            )))
        }
    }

    /// One unretried PING with a short reply window: does the target's
    /// server thread still answer at all?
    fn probe_liveness(&self, dst: Address, window: Duration) -> bool {
        self.rsr_icall(dst, fns::PING, b"")
            .and_then(|ping| self.rsr_wait_deadline(&ping, Instant::now() + window))
            .is_ok()
    }

    /// Issue a fire-and-forget remote service request (no reply). Not
    /// retried (there is no reply to time out on), but sequenced, so the
    /// server's dedup table still delivers it at most once under a
    /// duplicating transport. Nothing awaits it, so it is settled at once
    /// and never holds its node's floor: a post the transport delivers
    /// after a later request from this node to the same server is
    /// refused, as if lost.
    pub fn rsr_post(&self, dst: Address, fn_id: u32, args: &[u8]) -> Result<(), ChantError> {
        let me = self.self_id();
        let (seq, low) = self.rsr.calls.lock().issue(false);
        let body = encode_rsr(fn_id, 0, me, seq, low, args);
        self.endpoint().isend(dst, 0, 0, kind::RSR, body);
        Ok(())
    }

    /// Send an RSR reply to a requester thread, returning the encoded
    /// body so callers can cache it for duplicate replay. Used by the
    /// server and by deferred repliers (e.g. an exiting thread answering
    /// a join).
    pub(crate) fn send_rsr_reply(
        &self,
        to: ChanterId,
        token: u32,
        seq: u64,
        result: &Result<Bytes, ChantError>,
    ) -> Bytes {
        let body = encode_reply(seq, result);
        self.send_rsr_reply_raw(to, token, body.clone());
        body
    }

    /// Send a pre-encoded RSR reply body (duplicate replay path).
    pub(crate) fn send_rsr_reply_raw(&self, to: ChanterId, token: u32, body: Bytes) {
        let me = current_tid().unwrap_or(0);
        let wire = self
            .naming()
            .encode(me, to.thread, token as i32)
            .expect("reply token out of tag range (internal error)");
        self.endpoint()
            .isend(to.address(), wire.tag, wire.ctx, kind::RSR_REPLY, body);
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    /// The server thread body (paper Figure 7). Runs until cancelled by
    /// the cluster's shutdown protocol.
    pub(crate) fn server_loop(self: &Arc<Self>) {
        // Service-time histogram: request in hand → reply sent (or
        // handler returned). Fetched once per server thread.
        let rsr_service_ns = self
            .vp()
            .obs_lane()
            .map(|_| chant_obs::registry().histogram("core.rsr_service_ns"));
        loop {
            let handle = self.endpoint().irecv(RecvSpec::any().kind(kind::RSR));
            // Wait with the configured polling policy; once a request is
            // in hand the server holds elevated priority (§3.2).
            self.engine().wait_boosting(&handle);
            let Some((_, body)) = handle.take() else {
                continue;
            };
            match decode_rsr(&body) {
                Ok(env) => {
                    // A retransmitted or transport-duplicated request
                    // must not execute twice.
                    match self.rsr.dedup_begin(env.from.address(), env.seq, env.low) {
                        DedupVerdict::New => {}
                        DedupVerdict::Dropped => {
                            self.rsr.stats.dup_dropped.incr();
                            self.engine().unboost();
                            continue;
                        }
                        DedupVerdict::Replay(cached) => {
                            self.rsr.stats.dup_replayed.incr();
                            if env.reply_token != 0 {
                                self.send_rsr_reply_raw(env.from, env.reply_token, cached);
                            }
                            self.engine().unboost();
                            continue;
                        }
                    }
                    // The serve→done pair becomes a slice on the server
                    // VP's timeline track.
                    let serve_start = self.vp().obs_lane().map(|lane| {
                        let now = lane.now_ns();
                        lane.emit_at(now, chant_obs::Event::RsrServe { fn_id: env.fn_id });
                        now
                    });
                    let reply = ops::dispatch(self, &env);
                    // A `None` reply means a built-in deferred it (e.g.
                    // JOIN); the table entry stays Pending until
                    // `record_exit` sends and caches it.
                    if let Some(result) = reply {
                        // Fire-and-forget caches an empty reply: a
                        // duplicate is dropped with no resend.
                        let sent = if env.reply_token != 0 {
                            self.send_rsr_reply(env.from, env.reply_token, env.seq, &result)
                        } else {
                            Bytes::new()
                        };
                        self.rsr.dedup_complete(env.from.address(), env.seq, sent);
                    }
                    if let (Some(lane), Some(start)) = (self.vp().obs_lane(), serve_start) {
                        let now = lane.now_ns();
                        if let Some(h) = &rsr_service_ns {
                            h.record(now.saturating_sub(start));
                        }
                        lane.emit_at(now, chant_obs::Event::RsrDone { fn_id: env.fn_id });
                    }
                }
                Err(e) => {
                    // A malformed request cannot be answered (no envelope
                    // to route a reply); count it and keep a note instead
                    // of scribbling on stderr.
                    self.rsr.note_malformed(format!(
                        "dropped malformed RSR on {}: {e}",
                        self.address()
                    ));
                }
            }
            self.engine().unboost();
        }
    }
}

#[cfg(test)]
mod inspect {
    use super::*;

    impl RsrState {
        /// The seqs the server holds for `client`, in order.
        pub(crate) fn held(&self, client: Address) -> Vec<u64> {
            let map = self.dedup.lock();
            map.get(&client).map_or(Vec::new(), |t| t.entries.keys().copied().collect())
        }
    }
}
