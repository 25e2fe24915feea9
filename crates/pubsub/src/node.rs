//! The relay daemon, the home-side subscription handler, and the
//! publisher/subscriber SDK.
//!
//! Per node the service is three cooperating pieces sharing one
//! [`PubsubState`]:
//!
//! * an **RSR extension handler**
//!   ([`chant_core::ranges::fns::PUBSUB_SUBSCRIBE`]) applying
//!   subscription updates at the topic's home — the exactly-once
//!   control path;
//! * a **relay daemon** (a [`chant_core::ClusterBuilder::daemon`] ULT)
//!   serving [`chant_comm::kind::PUBSUB`] frames the way the server
//!   thread serves RSR: acking every data hop, deduplicating, fanning
//!   out to tree children, and sweeping retransmissions, resyncs, and
//!   registry expiry on a timer;
//! * the **SDK** ([`PubsubNode`] / [`Subscriber`]) called from
//!   application threads.

use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use chant_comm::{kind, Address, Header, RecvSpec};
use chant_core::ranges::{fns, tags};
use chant_core::{ChantError, ChantNode, ClusterBuilder};
use chant_ult::{UltCondvar, UltError, UltMutex};

use crate::state::{
    Pending, PubsubConfig, PubsubMsg, PubsubState, PubsubStatsSnapshot, SubEntry,
    SubQueue,
};
use crate::tree;
use crate::wire::{self, topic_tag, AckFrame, DataFrame, SubUpdate};

/// Register the pub-sub service with default [`PubsubConfig`].
pub fn with_pubsub(builder: ClusterBuilder) -> ClusterBuilder {
    with_pubsub_config(builder, PubsubConfig::default())
}

/// Register the pub-sub service on a cluster under construction: the
/// subscription RSR handler plus the per-node relay daemon. Every
/// process of a multi-process cluster must use the same `cfg`.
pub fn with_pubsub_config(builder: ClusterBuilder, cfg: PubsubConfig) -> ClusterBuilder {
    let handler_cfg = cfg.clone();
    builder
        .rsr_ext_handler(fns::PUBSUB_SUBSCRIBE, move |node, req| {
            let st = pubsub_state(node);
            // First writer wins; the daemon installs the same value.
            let _ = st.cfg.set(handler_cfg.clone());
            let u = wire::decode_sub(&req.args)?;
            apply_subscription(&st, u.topic, req.from.address(), u.count, u.version);
            Ok(Bytes::new())
        })
        .daemon("pubsub-relay", move |node| relay_loop(node, cfg.clone()))
}

/// The deterministic home node of a topic: topics stripe over PEs
/// first, then over processes, so every node can compute any topic's
/// home with no lookup traffic (the same reasoning as `dkv`'s
/// consistent striping).
pub fn home_of(topic: u64, pes: u32, procs: u32) -> Address {
    let pes = u64::from(pes.max(1));
    let procs = u64::from(procs.max(1));
    Address::new((topic % pes) as u32, ((topic / pes) % procs) as u32)
}

fn pubsub_state(node: &ChantNode) -> Arc<PubsubState> {
    node.extension(|| {
        let st = PubsubState::default();
        node.add_counters(Arc::clone(&st.stats) as _);
        st
    })
}

fn home_for(node: &ChantNode, topic: u64) -> Address {
    home_of(topic, node.world().pes(), node.world().procs_per_pe())
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn ult_err(_: UltError) -> ChantError {
    ChantError::NotChantContext
}

// ----------------------------------------------------------------------
// Home-side registry
// ----------------------------------------------------------------------

/// Apply one subscription update at this node (the topic's home).
///
/// The version rules make the update idempotent under every transport
/// pathology the control path can see: a *newer* version overwrites
/// count and version; the *same* version only refreshes the liveness
/// clock (that is what a periodic resync is); an *older* version is a
/// stale replay and is ignored. A `count` of 0 is kept as a tombstone
/// rather than removed, so a reordered older update cannot resurrect a
/// dead registration — the sweep expires tombstones like everything
/// else.
fn apply_subscription(st: &PubsubState, topic: u64, from: Address, count: u32, version: u64) {
    use std::collections::hash_map::Entry;
    let mut inner = st.inner.lock();
    match inner.registry.entry(topic).or_default().entry(from) {
        Entry::Vacant(v) => {
            v.insert(crate::state::RegEntry {
                count,
                version,
                last_heard: Instant::now(),
            });
            st.stats.control_updates.incr();
        }
        Entry::Occupied(mut o) => {
            let e = o.get_mut();
            if version > e.version {
                e.count = count;
                e.version = version;
                e.last_heard = Instant::now();
                st.stats.control_updates.incr();
            } else if version == e.version {
                e.last_heard = Instant::now();
            }
        }
    }
}

/// The tree node list for one publish of `topic`, pinned by the home at
/// frame arrival: the home itself first (index 0 = tree root), then
/// every registered subscriber node in sorted order. Sorting makes the
/// list — and hence the tree — deterministic for a given registry
/// state, which the conformance tests rely on.
fn tree_order(node: &ChantNode, st: &PubsubState, topic: u64) -> Vec<Address> {
    let me = node.address();
    let inner = st.inner.lock();
    let mut others: Vec<Address> = inner
        .registry
        .get(&topic)
        .map(|regs| {
            regs.iter()
                .filter(|(a, e)| e.count > 0 && **a != me)
                .map(|(a, _)| *a)
                .collect()
        })
        .unwrap_or_default();
    others.sort_unstable();
    let mut order = Vec::with_capacity(others.len() + 1);
    order.push(me);
    order.extend(others);
    order
}

// ----------------------------------------------------------------------
// Relay daemon
// ----------------------------------------------------------------------

fn relay_loop(node: &Arc<ChantNode>, cfg: PubsubConfig) {
    let st = pubsub_state(node);
    let _ = st.cfg.set(cfg);
    let cfg = st.config();
    // One receive spec serves the whole protocol: data frames on the
    // per-topic tags and acks on the ack tag all arrive as PUBSUB-kind
    // messages, disjoint from DATA matching and from RSR.
    let spec = RecvSpec::any().kind(kind::PUBSUB);
    // Wake often enough for the earliest timer (hop RTO vs resync).
    let tick = cfg.rto.min(cfg.resync_interval).max(Duration::from_millis(1));
    let mut last_resync = Instant::now();
    loop {
        match node.recv_match_timeout(spec, tick) {
            Ok((hdr, body)) => handle_frame(node, &st, &hdr, body),
            Err(ChantError::Timeout) => {}
            // Anything else means the node is tearing down.
            Err(_) => return,
        }
        sweep(node, &st, &mut last_resync);
    }
}

fn handle_frame(node: &ChantNode, st: &Arc<PubsubState>, hdr: &Header, body: Bytes) {
    if hdr.tag == tags::PUBSUB_ACK {
        let a = match wire::decode_ack(&body) {
            Ok(a) => a,
            Err(_) => {
                st.stats.malformed.incr();
                return;
            }
        };
        let mut inner = st.inner.lock();
        let key = (a.topic, a.origin, a.seq);
        if let Some(p) = inner.pending.get_mut(&key) {
            let mut all_acked = true;
            for (child, acked) in p.children.iter_mut() {
                if *child == hdr.src {
                    *acked = true;
                }
                all_acked &= *acked;
            }
            if all_acked {
                inner.pending.remove(&key);
            }
            st.stats.acks.incr();
        }
        return;
    }

    let f = match wire::decode_data(&body) {
        Ok(f) => f,
        Err(_) => {
            st.stats.malformed.incr();
            return;
        }
    };
    // Ack the hop before deduplicating: when a parent retransmits, it
    // is usually *our previous ack* that was lost.
    node.endpoint().isend(
        hdr.src,
        tags::PUBSUB_ACK,
        0,
        kind::PUBSUB,
        wire::encode_ack(&AckFrame {
            topic: f.topic,
            origin: f.origin,
            seq: f.seq,
        }),
    );
    let cfg = st.config();
    {
        let mut inner = st.inner.lock();
        if !inner.seen.insert((f.topic, f.origin, f.seq), cfg.dedup_window) {
            st.stats.dup_dropped.incr();
            return;
        }
    }
    if f.route == wire::ROUTE_TO_HOME {
        // We are the home: pin this publish's tree to the current
        // registry and start the descent.
        let routed = DataFrame {
            route: wire::ROUTE_TREE,
            nodes: tree_order(node, st, f.topic),
            ..f
        };
        let routed_body = wire::encode_data(&routed);
        process_routed(node, st, &routed, routed_body, &cfg);
    } else {
        // Mid-tree: forward the received bytes verbatim.
        process_routed(node, st, &f, body, &cfg);
    }
}

/// Deliver a tree-routed frame locally and forward it to this node's
/// tree children, recording the hop for retransmission.
fn process_routed(
    node: &ChantNode,
    st: &Arc<PubsubState>,
    f: &DataFrame,
    body: Bytes,
    cfg: &PubsubConfig,
) {
    deliver_local(node, st, f, cfg);
    let kids = tree::children(&f.nodes, node.address(), cfg.arity.max(1));
    if kids.is_empty() {
        return;
    }
    let tag = topic_tag(f.topic);
    let sent = node
        .endpoint()
        .isend_many(&kids, tag, 0, kind::PUBSUB, body.clone());
    st.stats.forwarded.add(sent as u64);
    let mut inner = st.inner.lock();
    inner.pending.insert(
        (f.topic, f.origin, f.seq),
        Pending {
            tag,
            body,
            children: kids.into_iter().map(|c| (c, false)).collect(),
            attempts: 1,
            last_sent: Instant::now(),
        },
    );
}

/// Push a frame into every local subscriber queue that has not seen it
/// (the per-subscriber dedup window), waking blocked receivers.
fn deliver_local(node: &ChantNode, st: &Arc<PubsubState>, f: &DataFrame, cfg: &PubsubConfig) {
    // Snapshot the subscriber list first: subscriber queues are
    // ULT-level mutexes whose lock can yield the lane, so the
    // host-level state lock must not be held across them.
    let subs: Vec<Arc<SubEntry>> = {
        let inner = st.inner.lock();
        inner.local.get(&f.topic).cloned().unwrap_or_default()
    };
    if subs.is_empty() {
        return;
    }
    let now_ns = unix_ns();
    for sub in subs {
        let Ok(mut q) = sub.queue.lock() else {
            continue;
        };
        if !q.seen.insert((f.origin, f.seq), cfg.dedup_window) {
            st.stats.dup_dropped.incr();
            continue;
        }
        q.items.push_back(PubsubMsg {
            topic: f.topic,
            origin: f.origin,
            seq: f.seq,
            payload: f.payload.clone(),
            sent_ns: f.sent_ns,
        });
        // Counted before it is visible: a subscriber that has the
        // message (possibly on another lane, the instant it is woken)
        // must find it in the tally.
        st.stats.delivered.incr();
        drop(q);
        sub.cv.notify_all();
        trace_deliver(node, st, f, now_ns);
    }
}

/// The relay's timer work: retransmit or expire due hops, send the
/// periodic subscription resync, and expire registrants the home has
/// not heard from.
fn sweep(node: &ChantNode, st: &Arc<PubsubState>, last_resync: &mut Instant) {
    let cfg = st.config();
    let now = Instant::now();

    // Retransmit unacked hops past their RTO; abandon past max_attempts.
    let mut resend: Vec<(Vec<Address>, i32, Bytes)> = Vec::new();
    {
        let mut inner = st.inner.lock();
        let stats = &st.stats;
        inner.pending.retain(|_, p| {
            if now.duration_since(p.last_sent) < cfg.rto {
                return true;
            }
            if p.attempts >= cfg.max_attempts {
                stats.expired.incr();
                return false;
            }
            let unacked: Vec<Address> = p
                .children
                .iter()
                .filter(|(_, acked)| !acked)
                .map(|(c, _)| *c)
                .collect();
            if unacked.is_empty() {
                return false;
            }
            p.attempts += 1;
            p.last_sent = now;
            stats.retransmits.incr();
            resend.push((unacked, p.tag, p.body.clone()));
            true
        });
    }
    for (dsts, tag, body) in resend {
        node.endpoint().isend_many(&dsts, tag, 0, kind::PUBSUB, body);
    }

    if now.duration_since(*last_resync) < cfg.resync_interval {
        return;
    }
    *last_resync = now;

    // Re-assert every local topic's count at its home with the topic's
    // *current* version: at the home, same-version updates refresh the
    // liveness clock, and a newer version that got lost in transit is
    // re-delivered. Fire-and-forget — the next resync is this one's
    // retry.
    let me = node.address();
    let updates: Vec<SubUpdate> = {
        let inner = st.inner.lock();
        inner
            .local
            .iter()
            .map(|(&topic, subs)| SubUpdate {
                topic,
                count: subs.len() as u32,
                version: inner.sub_version.get(&topic).copied().unwrap_or(0),
            })
            .collect()
    };
    for u in updates {
        st.stats.resyncs.incr();
        let home = home_for(node, u.topic);
        if home == me {
            apply_subscription(st, u.topic, me, u.count, u.version);
        } else {
            let _ = node.rsr_post(home, fns::PUBSUB_SUBSCRIBE, &wire::encode_sub(&u));
        }
    }

    // Home-side expiry: registrants that stopped resyncing (crashed,
    // or their unsubscribe was lost *and* they have no subscribers
    // left) age out, tombstones included.
    let mut inner = st.inner.lock();
    let stats = &st.stats;
    inner.registry.retain(|_, regs| {
        regs.retain(|_, e| {
            let keep = now.duration_since(e.last_heard) <= cfg.topic_timeout;
            if !keep {
                stats.expired.incr();
            }
            keep
        });
        !regs.is_empty()
    });
}

// ----------------------------------------------------------------------
// SDK
// ----------------------------------------------------------------------

/// Announce this node's current absolute subscriber count for `topic`
/// at the topic's home, over the exactly-once control path.
fn announce(node: &ChantNode, st: &PubsubState, topic: u64) -> Result<(), ChantError> {
    let me = node.address();
    let u = {
        let mut inner = st.inner.lock();
        let count = inner.local.get(&topic).map_or(0, |v| v.len() as u32);
        let version = inner.sub_version.entry(topic).or_insert(0);
        *version += 1;
        SubUpdate {
            topic,
            count,
            version: *version,
        }
    };
    let home = home_for(node, topic);
    if home == me {
        apply_subscription(st, topic, me, u.count, u.version);
        Ok(())
    } else {
        node.rsr_call(home, fns::PUBSUB_SUBSCRIBE, &wire::encode_sub(&u))
            .map(|_| ())
    }
}

/// Topic-based publish/subscribe, callable on any [`ChantNode`] of a
/// cluster built through [`with_pubsub`].
///
/// Registration is not globally synchronous: a publish that races a
/// subscription may be delivered to the subscriber or not, exactly as
/// with any pub-sub system without retained messages. Programs that
/// need the first publish seen rendezvous after subscribing (e.g. a
/// [`chant_core::ChantGroup::barrier`]).
pub trait PubsubNode {
    /// Subscribe the calling node to `topic`. The returned
    /// [`Subscriber`] owns a private delivery queue; dropping it
    /// detaches locally (the periodic resync then corrects the home's
    /// count), [`Subscriber::unsubscribe`] also tells the home
    /// immediately.
    fn subscribe(&self, topic: u64) -> Result<Subscriber, ChantError>;

    /// Publish `payload` to `topic`; returns this node's sequence
    /// number for the publish. Delivery to current subscribers is
    /// at-least-once with per-subscriber deduplication: the call
    /// returns once the frame is on its way, not once it is delivered.
    fn publish(&self, topic: u64, payload: &[u8]) -> Result<u64, ChantError>;

    /// [`PubsubNode::publish`] of a string payload.
    fn publish_str(&self, topic: u64, payload: &str) -> Result<u64, ChantError>;

    /// This node's pub-sub counters.
    fn pubsub_stats(&self) -> PubsubStatsSnapshot;
}

impl PubsubNode for ChantNode {
    fn subscribe(&self, topic: u64) -> Result<Subscriber, ChantError> {
        let st = pubsub_state(self);
        let entry = {
            let vp = self.vp();
            let mut inner = st.inner.lock();
            inner.next_sub_id += 1;
            let e = Arc::new(SubEntry {
                id: inner.next_sub_id,
                queue: UltMutex::new(vp, SubQueue::default()),
                cv: UltCondvar::new(vp),
            });
            inner.local.entry(topic).or_default().push(Arc::clone(&e));
            e
        };
        if let Err(e) = announce(self, &st, topic) {
            // Roll back, and burn another version so a later resync
            // cannot tie with the failed (fate-unknown) update at the
            // home.
            let mut inner = st.inner.lock();
            detach_entry(&mut inner, topic, entry.id);
            *inner.sub_version.entry(topic).or_insert(0) += 1;
            return Err(e);
        }
        Ok(Subscriber {
            topic,
            entry,
            state: st,
            detached: false,
        })
    }

    fn publish(&self, topic: u64, payload: &[u8]) -> Result<u64, ChantError> {
        let st = pubsub_state(self);
        let cfg = st.config();
        let me = self.address();
        let seq = {
            let mut inner = st.inner.lock();
            let c = inner.publish_seq.entry(topic).or_insert(0);
            *c += 1;
            *c
        };
        let sent_ns = unix_ns();
        st.stats.published.incr();
        trace_publish(self, &st, topic, seq);
        let home = home_for(self, topic);
        if home == me {
            // We are the home: no first hop, the tree starts here.
            {
                let mut inner = st.inner.lock();
                inner.seen.insert((topic, me, seq), cfg.dedup_window);
            }
            let f = DataFrame {
                route: wire::ROUTE_TREE,
                topic,
                origin: me,
                seq,
                sent_ns,
                nodes: tree_order(self, &st, topic),
                payload: Bytes::copy_from_slice(payload),
            };
            let body = wire::encode_data(&f);
            process_routed(self, &st, &f, body, &cfg);
        } else {
            // First hop to the home; the relay's sweep retransmits it
            // until the home acks.
            let f = DataFrame {
                route: wire::ROUTE_TO_HOME,
                topic,
                origin: me,
                seq,
                sent_ns,
                nodes: Vec::new(),
                payload: Bytes::copy_from_slice(payload),
            };
            let body = wire::encode_data(&f);
            let tag = topic_tag(topic);
            self.endpoint().isend(home, tag, 0, kind::PUBSUB, body.clone());
            let mut inner = st.inner.lock();
            inner.pending.insert(
                (topic, me, seq),
                Pending {
                    tag,
                    body,
                    children: vec![(home, false)],
                    attempts: 1,
                    last_sent: Instant::now(),
                },
            );
        }
        Ok(seq)
    }

    fn publish_str(&self, topic: u64, payload: &str) -> Result<u64, ChantError> {
        self.publish(topic, payload.as_bytes())
    }

    fn pubsub_stats(&self) -> PubsubStatsSnapshot {
        pubsub_state(self).stats.snapshot()
    }
}

fn detach_entry(inner: &mut crate::state::Inner, topic: u64, id: u64) {
    if let Some(subs) = inner.local.get_mut(&topic) {
        subs.retain(|s| s.id != id);
        if subs.is_empty() {
            // No more resyncs for this topic; the home's expiry (or an
            // explicit unsubscribe) retires the registration.
            inner.local.remove(&topic);
        }
    }
}

/// One subscription's receiving end. Messages published to the topic
/// while the subscription is live queue here; [`Subscriber::recv`]
/// blocks the calling user-level thread (yielding its lane) until one
/// arrives.
pub struct Subscriber {
    topic: u64,
    entry: Arc<SubEntry>,
    state: Arc<PubsubState>,
    detached: bool,
}

impl Subscriber {
    /// The subscribed topic.
    pub fn topic(&self) -> u64 {
        self.topic
    }

    /// Block until the next message arrives.
    pub fn recv(&self) -> Result<PubsubMsg, ChantError> {
        let mut q = self.entry.queue.lock().map_err(ult_err)?;
        loop {
            if let Some(m) = q.items.pop_front() {
                return Ok(m);
            }
            q = self.entry.cv.wait(q).map_err(ult_err)?;
        }
    }

    /// Block until the next message arrives or `timeout` elapses
    /// ([`ChantError::Timeout`]).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<PubsubMsg, ChantError> {
        let deadline = Instant::now() + timeout;
        let mut q = self.entry.queue.lock().map_err(ult_err)?;
        loop {
            if let Some(m) = q.items.pop_front() {
                return Ok(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ChantError::Timeout);
            }
            let (g, _) = self
                .entry
                .cv
                .wait_timeout(q, deadline - now)
                .map_err(ult_err)?;
            q = g;
        }
    }

    /// Take the next queued message without blocking.
    pub fn try_recv(&self) -> Result<Option<PubsubMsg>, ChantError> {
        let mut q = self.entry.queue.lock().map_err(ult_err)?;
        Ok(q.items.pop_front())
    }

    /// Unsubscribe: detach the queue and tell the topic's home the new
    /// absolute count over the exactly-once control path. (Merely
    /// dropping the subscriber detaches too, leaving the correction to
    /// the periodic resync or the home's expiry.)
    pub fn unsubscribe(mut self, node: &ChantNode) -> Result<(), ChantError> {
        self.detach();
        announce(node, &self.state, self.topic)
    }

    fn detach(&mut self) {
        if !self.detached {
            self.detached = true;
            let mut inner = self.state.inner.lock();
            detach_entry(&mut inner, self.topic, self.entry.id);
        }
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.detach();
    }
}

// ----------------------------------------------------------------------
// Trace instrumentation (compiled out without the `trace` feature)
// ----------------------------------------------------------------------

#[cfg(feature = "trace")]
fn obs<'a>(node: &ChantNode, st: &'a PubsubState) -> Option<&'a crate::state::PubsubObs> {
    st.obs
        .get_or_init(|| {
            let name = format!("pubsub{}.{}", node.pe(), node.process());
            Some(crate::state::PubsubObs {
                lane: chant_obs::tracer::register_lane(&name)?,
                deliver_latency_ns: chant_obs::registry().histogram("pubsub.deliver_latency_ns"),
            })
        })
        .as_ref()
}

#[cfg(feature = "trace")]
fn trace_publish(node: &ChantNode, st: &PubsubState, topic: u64, seq: u64) {
    if let Some(o) = obs(node, st) {
        o.lane.emit(chant_obs::Event::PubsubPublish { topic, seq });
    }
}

#[cfg(not(feature = "trace"))]
fn trace_publish(_node: &ChantNode, _st: &PubsubState, _topic: u64, _seq: u64) {}

#[cfg(feature = "trace")]
fn trace_deliver(node: &ChantNode, st: &PubsubState, f: &DataFrame, now_ns: u64) {
    if let Some(o) = obs(node, st) {
        o.deliver_latency_ns.record(now_ns.saturating_sub(f.sent_ns));
        o.lane.emit(chant_obs::Event::PubsubDeliver {
            topic: f.topic,
            seq: f.seq,
        });
    }
}

#[cfg(not(feature = "trace"))]
fn trace_deliver(_node: &ChantNode, _st: &PubsubState, _f: &DataFrame, _now_ns: u64) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_striping_covers_pes_then_processes() {
        // 4 PEs × 2 processes: consecutive topics walk the PEs, then
        // advance the process.
        assert_eq!(home_of(0, 4, 2), Address::new(0, 0));
        assert_eq!(home_of(1, 4, 2), Address::new(1, 0));
        assert_eq!(home_of(3, 4, 2), Address::new(3, 0));
        assert_eq!(home_of(4, 4, 2), Address::new(0, 1));
        assert_eq!(home_of(7, 4, 2), Address::new(3, 1));
        assert_eq!(home_of(8, 4, 2), Address::new(0, 0));
    }

    #[test]
    fn home_of_tolerates_degenerate_shapes() {
        assert_eq!(home_of(123, 0, 0), Address::new(0, 0));
        assert_eq!(home_of(u64::MAX, 1, 1), Address::new(0, 0));
    }

    #[test]
    fn subscription_versions_are_idempotent() {
        let st = PubsubState::default();
        let from = Address::new(1, 0);
        apply_subscription(&st, 7, from, 2, 5);
        apply_subscription(&st, 7, from, 9, 4); // stale: ignored
        {
            let inner = st.inner.lock();
            assert_eq!(inner.registry[&7][&from].count, 2);
        }
        apply_subscription(&st, 7, from, 2, 5); // replay: refresh only
        apply_subscription(&st, 7, from, 0, 6); // newer: tombstone
        let inner = st.inner.lock();
        assert_eq!(inner.registry[&7][&from].count, 0);
        assert_eq!(inner.registry[&7][&from].version, 6);
    }
}
