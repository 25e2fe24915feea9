//! Endpoints: the per-`(pe, process)` message queues and matching logic.
//!
//! Delivery follows the paper's efficiency argument (§3.1): "it is
//! possible to avoid costly interrupts and buffer copies by registering
//! the receive with the operating system before the message actually
//! arrives. This allows the operating system to place the incoming
//! message in the proper memory location upon arrival, rather than making
//! a local copy of the message in a system buffer." Accordingly, an
//! arriving message that matches a *posted* receive is moved straight
//! into the receive's buffer (and counted in
//! [`CommStats::posted_matches`]); only an *unexpected* message is parked
//! in a system queue (counted in [`CommStats::unexpected_buffered`]).
//!
//! ## Matching structure
//!
//! Both sides of the two-sided match are indexed so the common cases are
//! O(1) in the number of outstanding requests/messages, while preserving
//! the exact observable semantics of a linear scan (FIFO per matching
//! pair, earliest-posted receive wins, earliest-arrived message wins):
//!
//! * **Posted receives** are bucketed by their full selection shape
//!   `(src filter, tag filter, kind)`, each bucket FIFO in posting
//!   order and stamped with a monotone posting sequence number. An
//!   arriving header can only be claimed by one of four shapes (exact
//!   src or wildcard × exact tag or wildcard), so delivery probes at
//!   most four buckets and takes the candidate with the *smallest
//!   posting sequence* — exactly the receive a front-to-back scan of
//!   one posting-ordered list would have found. Context filters are not
//!   hashable (they may be masked), so each probe skips over
//!   ctx-mismatching entries within its bucket.
//! * **Unexpected messages** live in a master `BTreeMap` keyed by a
//!   monotone arrival sequence (iteration order = arrival order) plus
//!   two secondary indexes: `(src, tag, kind) → arrival seqs` for
//!   fully-selective receives and `(tag, kind) → arrival seqs` for the
//!   NX-style tag-only receive (any source). Tag-wildcard receives walk
//!   the master map in arrival order — no worse than the former linear
//!   scan. Claims remove the message from all structures (bucket
//!   entries are seq-sorted, so removal is a binary search), keeping
//!   the indexes exact with no lazy-deletion growth.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::guard::assert_may_block;
use crate::handle::{RecvHandle, RecvShared, SendHandle};
use crate::header::{Address, Header, RecvSpec, ANY_TAG};
use crate::stats::CommStats;
use crate::transport::Transport;
use crate::world::WorldInner;

struct PostedRecv {
    spec: RecvSpec,
    shared: Arc<RecvShared>,
}

/// A posted receive's selection shape: `(src filter, tag filter, kind)`.
/// `tag == ANY_TAG` is the wildcard bucket for its `(src, kind)`.
type PostKey = (Option<Address>, i32, u8);

/// Shared owner token for all clones of one [`RecvHandle`]: when the
/// last clone is dropped with the receive still unmatched, the posted
/// entry is retired from the endpoint's buckets. Without this, an
/// abandoned handle leaves a dead `PostedRecv` behind forever, and a
/// later arrival can match it — silently losing the message.
pub(crate) struct RecvOwner {
    inner: Weak<Mutex<EndpointInner>>,
    stats: Arc<CommStats>,
    key: PostKey,
    seq: u64,
    shared: Arc<RecvShared>,
}

impl RecvOwner {
    /// The world's transport, when it has no thread of its own and an
    /// OS thread blocked on this receive must drive it.
    pub(crate) fn transport_to_drive(&self) -> Option<Arc<dyn Transport>> {
        let world = self.inner.upgrade()?.lock().world.upgrade()?;
        let t = Arc::clone(world.transport());
        t.poll_fd().is_some().then_some(t)
    }

    /// Take the posted entry out of the endpoint's buckets. `true` if
    /// it was still there — from now on no arrival can match this
    /// receive. `false` if it is gone: an arrival matched it (delivery
    /// completes a receive under the same endpoint lock, so the message
    /// is in hand by the time this returns), or it was retired before.
    pub(crate) fn retire(&self) -> bool {
        // Advisory fast path: completed receives left the buckets when
        // they matched (the removal below re-checks under the lock).
        if self.shared.state.lock().done {
            return false;
        }
        let Some(inner) = self.inner.upgrade() else {
            return false;
        };
        let mut inner = inner.lock();
        let Some(bucket) = inner.posted.get_mut(&self.key) else {
            return false;
        };
        // Buckets are sorted by posting seq, so absence (matched between
        // the `done` check and here) is a clean miss.
        let Ok(i) = bucket.binary_search_by_key(&self.seq, |(s, _)| *s) else {
            return false;
        };
        bucket.remove(i);
        if bucket.is_empty() {
            inner.posted.remove(&self.key);
        }
        inner.posted_count -= 1;
        self.stats.posted_retired.incr();
        true
    }
}

impl Drop for RecvOwner {
    fn drop(&mut self) {
        self.retire();
    }
}

/// An unexpected message's exact shape: `(src, tag, kind)`.
type MsgKey = (Address, i32, u8);

#[derive(Default)]
struct EndpointInner {
    /// Receives posted and not yet matched, bucketed by selection shape;
    /// each bucket FIFO in posting order, stamped with the posting seq.
    posted: HashMap<PostKey, VecDeque<(u64, PostedRecv)>>,
    /// Total entries across `posted` buckets.
    posted_count: usize,
    /// Next posting sequence number.
    post_seq: u64,
    /// Messages that arrived with no matching posted receive, keyed by
    /// arrival sequence (the "system buffer" the zero-copy path avoids).
    unexpected: BTreeMap<u64, (Header, Bytes)>,
    /// Exact-shape index over `unexpected`: arrival seqs, ascending.
    unexpected_by_key: HashMap<MsgKey, VecDeque<u64>>,
    /// Tag-only index over `unexpected` (`(tag, kind)`): arrival seqs,
    /// ascending. Serves receives with an exact tag but wildcard source.
    unexpected_by_tag: HashMap<(i32, u8), VecDeque<u64>>,
    /// Next arrival sequence number.
    arrival_seq: u64,
    /// Arrival timestamps (tracer clock) of parked unexpected messages,
    /// for the park-time histogram.
    arrived_at_ns: HashMap<u64, u64>,
    /// The world, for a blocked OS thread that must drive its transport
    /// (reached once per wait, so a posted receive holds no reference).
    world: Weak<WorldInner>,
}

impl EndpointInner {
    /// The bucket keys that could hold a receive matching `header`, most
    /// selective first (order is irrelevant for correctness: the winner
    /// is the minimum posting seq across all four probes).
    fn candidate_keys(header: &Header) -> [PostKey; 4] {
        [
            (Some(header.src), header.tag, header.kind),
            (Some(header.src), ANY_TAG, header.kind),
            (None, header.tag, header.kind),
            (None, ANY_TAG, header.kind),
        ]
    }

    /// Find the earliest-posted receive matching `header`, as a
    /// `(bucket key, index within bucket)` pair.
    fn find_posted(&self, header: &Header) -> Option<(PostKey, usize)> {
        let mut best: Option<(PostKey, usize, u64)> = None;
        for key in Self::candidate_keys(header) {
            let Some(bucket) = self.posted.get(&key) else {
                continue;
            };
            // Src/tag/kind match by bucket construction; only the ctx
            // filter can still reject, so skip past mismatches.
            let hit = bucket
                .iter()
                .enumerate()
                .find(|(_, (_, p))| p.spec.ctx.matches(header.ctx));
            if let Some((i, &(seq, ref p))) = hit {
                debug_assert!(p.spec.matches(header), "bucket key out of sync with spec");
                if best.is_none_or(|(_, _, s)| seq < s) {
                    best = Some((key, i, seq));
                }
            }
        }
        best.map(|(key, i, _)| (key, i))
    }

    /// Remove and return the posted receive at `(key, index)`.
    fn take_posted(&mut self, key: PostKey, index: usize) -> PostedRecv {
        let bucket = self.posted.get_mut(&key).expect("bucket just probed");
        let (_, posted) = bucket.remove(index).expect("index just found");
        if bucket.is_empty() {
            self.posted.remove(&key);
        }
        self.posted_count -= 1;
        posted
    }

    /// Arrival seq of the earliest unexpected message matching `spec`,
    /// if any. Exact-tag specs use an index (`(src, tag, kind)` when the
    /// source is exact, `(tag, kind)` when it is a wildcard); tag-
    /// wildcard specs walk the master map in arrival order.
    fn find_unexpected(&self, spec: &RecvSpec) -> Option<u64> {
        match (spec.src, spec.tag) {
            (Some(src), tag) if tag != ANY_TAG => self
                .unexpected_by_key
                .get(&(src, tag, spec.kind))?
                .iter()
                .copied()
                .find(|seq| {
                    let (h, _) = &self.unexpected[seq];
                    spec.ctx.matches(h.ctx)
                }),
            (None, tag) if tag != ANY_TAG => self
                .unexpected_by_tag
                .get(&(tag, spec.kind))?
                .iter()
                .copied()
                .find(|seq| {
                    let (h, _) = &self.unexpected[seq];
                    spec.ctx.matches(h.ctx)
                }),
            _ => self
                .unexpected
                .iter()
                .find(|(_, (h, _))| spec.matches(h))
                .map(|(&seq, _)| seq),
        }
    }

    /// Remove and return the unexpected message with arrival seq `seq`,
    /// keeping both secondary indexes consistent.
    fn take_unexpected(&mut self, seq: u64) -> (Header, Bytes) {
        let (header, body) = self.unexpected.remove(&seq).expect("seq just found");
        fn unindex<K: std::hash::Hash + Eq>(
            index: &mut HashMap<K, VecDeque<u64>>,
            key: K,
            seq: u64,
        ) {
            let bucket = index.get_mut(&key).expect("indexed message had no bucket");
            let i = bucket
                .binary_search(&seq)
                .expect("indexed message missing from its bucket");
            bucket.remove(i);
            if bucket.is_empty() {
                index.remove(&key);
            }
        }
        unindex(
            &mut self.unexpected_by_key,
            (header.src, header.tag, header.kind),
            seq,
        );
        unindex(&mut self.unexpected_by_tag, (header.tag, header.kind), seq);
        (header, body)
    }

    /// Park an arriving message in the unexpected store.
    fn buffer_unexpected(&mut self, header: Header, body: Bytes) {
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        self.unexpected_by_key
            .entry((header.src, header.tag, header.kind))
            .or_default()
            .push_back(seq);
        self.unexpected_by_tag
            .entry((header.tag, header.kind))
            .or_default()
            .push_back(seq);
        self.unexpected.insert(seq, (header, body));
    }
}

/// One process's communication endpoint.
pub struct Endpoint {
    addr: Address,
    // Arc so each posted receive's owner token can hold a weak
    // back-reference for retire-on-drop without owning the endpoint.
    inner: Arc<Mutex<EndpointInner>>,
    stats: Arc<CommStats>,
    world: Weak<WorldInner>,
    /// Called after every delivery (see [`Endpoint::set_waker`]).
    waker: RwLock<Option<Waker>>,
    /// Trace lane + cached histogram handles; `None` when no tracer was
    /// installed at construction time.
    obs: Option<crate::obs::EpObs>,
}

/// An endpoint's arrival callback; see [`Endpoint::set_waker`].
type Waker = Arc<dyn Fn() + Send + Sync>;

impl Endpoint {
    pub(crate) fn new(addr: Address, world: Weak<WorldInner>) -> Endpoint {
        Endpoint {
            addr,
            inner: Arc::new(Mutex::new(EndpointInner {
                world: world.clone(),
                ..EndpointInner::default()
            })),
            stats: Arc::new(CommStats::default()),
            world,
            waker: RwLock::new(None),
            obs: crate::obs::EpObs::register(addr),
        }
    }

    /// This endpoint's `(pe, process)` address.
    pub fn addr(&self) -> Address {
        self.addr
    }

    /// This endpoint's statistics counters.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// Install the callback run after every delivery into this endpoint
    /// — a posted receive completed *or* an unexpected message buffered —
    /// on whichever thread delivered (the sender in-process, a socket
    /// backend's reader, the fault shim's deliverer).
    /// A runtime whose scheduler sleeps when nothing is runnable installs
    /// its wake-up here, so an arrival ends the sleep the same way on
    /// every transport; the callback runs with no endpoint lock held,
    /// after the message is visible to `msgtest`/`irecv`. Replaces any
    /// previous waker.
    pub fn set_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        *self.waker.write() = Some(Arc::new(waker));
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Nonblocking send (NX `isend`). The returned handle is already
    /// complete: the body is refcounted, so the caller's buffer is
    /// immediately reusable (locally blocking semantics). A send to this
    /// endpoint's own address (with no fault shim holding it) is
    /// delivered into its matching tables before return, on every
    /// backend, without touching a transport; so is every send on the
    /// in-process backend.
    pub fn isend(&self, dst: Address, tag: i32, ctx: u64, kind: u8, body: Bytes) -> SendHandle {
        assert!(tag >= 0, "send tags must be non-negative (got {tag})");
        let world = self
            .world
            .upgrade()
            .expect("send on an endpoint whose CommWorld was dropped");
        let header = Header {
            src: self.addr,
            dst,
            tag,
            ctx,
            kind,
            len: body.len() as u32,
            trace: self.obs.as_ref().map_or(0, |o| o.next_trace_id()),
        };
        self.stats.sends.incr();
        self.stats.bytes_sent.add(body.len() as u64);
        if let Some(o) = &self.obs {
            o.lane.emit(chant_obs::Event::Send { to: dst.pe, tag });
            if header.trace != 0 {
                o.lane.emit(chant_obs::Event::MsgSend {
                    to: dst.pe,
                    tag,
                    id: header.trace,
                });
            }
        }
        world.route(header, body);
        SendHandle { complete: true }
    }

    /// Multicast send: one refcounted body to several destinations.
    ///
    /// This is the fan-out primitive `chant-pubsub` uses to forward a
    /// publish along its tree edges. Repeated destinations are
    /// deduplicated — each distinct address receives the frame exactly
    /// once per call, so a caller may hand over a tree's raw edge list
    /// without pre-filtering, and per-link publish traffic stays
    /// O(distinct edges). A send to this endpoint's own address (the
    /// local fan-out leg) is delivered in place, as by [`Endpoint::isend`],
    /// and is not a transport frame.
    ///
    /// Returns the number of frames actually sent (distinct
    /// destinations). The body is `Bytes`, so no copy is made per
    /// destination; every frame shares one allocation.
    pub fn isend_many(&self, dsts: &[Address], tag: i32, ctx: u64, kind: u8, body: Bytes) -> usize {
        self.stats.multicasts.incr();
        let mut sent = 0usize;
        for (i, &dst) in dsts.iter().enumerate() {
            if dsts[..i].contains(&dst) {
                self.stats.multicast_dedups.incr();
                continue;
            }
            self.isend(dst, tag, ctx, kind, body.clone());
            sent += 1;
        }
        sent
    }

    /// Blocking send (NX `csend`): returns when the data being sent can
    /// be modified. Must not be called from a user-level thread.
    pub fn csend(&self, dst: Address, tag: i32, ctx: u64, kind: u8, body: Bytes) {
        assert_may_block("csend");
        self.stats.blocking_waits.incr();
        self.isend(dst, tag, ctx, kind, body).msgwait();
    }

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /// Nonblocking receive (NX `irecv`): register interest in the first
    /// message matching `spec` and return a completion handle. If a
    /// matching message is already waiting in the unexpected queue it is
    /// claimed immediately.
    pub fn irecv(&self, spec: RecvSpec) -> RecvHandle {
        self.stats.recvs_posted.incr();
        let shared = RecvShared::new();
        let mut handle = RecvHandle {
            shared: Arc::clone(&shared),
            stats: Arc::clone(&self.stats),
            owner: None,
            lane: self.obs.as_ref().map(|o| o.lane.clone()),
        };
        if let Some(o) = &self.obs {
            shared.state.lock().posted_at_ns = o.lane.now_ns();
        }
        let mut inner = self.inner.lock();
        if let Some(seq) = inner.find_unexpected(&spec) {
            if let Some(o) = &self.obs {
                if let Some(at) = inner.arrived_at_ns.remove(&seq) {
                    o.unexpected_park_ns
                        .record(o.lane.now_ns().saturating_sub(at));
                }
            }
            let (header, body) = inner.take_unexpected(seq);
            self.stats.unexpected_claimed.incr();
            shared.complete(header, body);
        } else {
            let seq = inner.post_seq;
            inner.post_seq += 1;
            let key = (spec.src, spec.tag, spec.kind);
            inner
                .posted
                .entry(key)
                .or_default()
                .push_back((seq, PostedRecv { spec, shared }));
            inner.posted_count += 1;
            handle.owner = Some(Arc::new(RecvOwner {
                inner: Arc::downgrade(&self.inner),
                stats: Arc::clone(&self.stats),
                key,
                seq,
                shared: Arc::clone(&handle.shared),
            }));
        }
        handle
    }

    /// Blocking receive (NX `crecv`): parks the calling OS thread until a
    /// matching message is delivered. Must not be called from a
    /// user-level thread (install a guard via
    /// [`crate::set_blocking_guard`] to enforce this).
    pub fn crecv(&self, spec: RecvSpec) -> (Header, Bytes) {
        assert_may_block("crecv");
        let h = self.irecv(spec);
        h.msgwait();
        h.take().expect("completed receive had no message")
    }

    /// Nonblocking probe (NX `iprobe`): is a matching message waiting in
    /// the unexpected queue? Does not consume the message.
    pub fn iprobe(&self, spec: RecvSpec) -> bool {
        self.stats.probes.incr();
        let inner = self.inner.lock();
        inner.find_unexpected(&spec).is_some()
    }

    /// Number of receives posted but not yet matched.
    pub fn outstanding_recvs(&self) -> usize {
        self.inner.lock().posted_count
    }

    /// Number of unexpected (buffered) messages waiting.
    pub fn unexpected_len(&self) -> usize {
        self.inner.lock().unexpected.len()
    }

    // ------------------------------------------------------------------
    // Delivery (called by the transport with the sender's header)
    // ------------------------------------------------------------------

    pub(crate) fn deliver(&self, header: Header, body: Bytes) {
        debug_assert_eq!(header.dst, self.addr, "misrouted message");
        debug_assert_ne!(header.tag, ANY_TAG, "wildcard tag in a sent header");
        if let Some(o) = &self.obs {
            if header.trace != 0 {
                o.lane.emit(chant_obs::Event::MsgRecv {
                    from: header.src.pe,
                    tag: header.tag,
                    id: header.trace,
                });
            }
        }
        let mut inner = self.inner.lock();
        if let Some((key, index)) = inner.find_posted(&header) {
            let posted = inner.take_posted(key, index);
            self.stats.posted_matches.incr();
            if let Some(o) = &self.obs {
                let now = o.lane.now_ns();
                let posted_at = posted.shared.state.lock().posted_at_ns;
                o.recv_wait_ns.record(now.saturating_sub(posted_at));
                o.lane.emit_at(
                    now,
                    chant_obs::Event::Arrive {
                        from: header.src.pe,
                        tag: header.tag,
                        posted: true,
                    },
                );
            }
            // Completing under the endpoint lock keeps per-sender FIFO
            // ordering observable: a later message can never complete an
            // earlier-posted matching receive first.
            posted.shared.complete(header, body);
        } else {
            self.stats.unexpected_buffered.incr();
            if let Some(o) = &self.obs {
                let now = o.lane.now_ns();
                let seq = inner.arrival_seq;
                inner.arrived_at_ns.insert(seq, now);
                o.lane.emit_at(
                    now,
                    chant_obs::Event::Arrive {
                        from: header.src.pe,
                        tag: header.tag,
                        posted: false,
                    },
                );
            }
            inner.buffer_unexpected(header, body);
        }
        drop(inner);
        if let Some(wake) = &*self.waker.read() {
            wake();
        }
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("addr", &self.addr).finish()
    }
}
