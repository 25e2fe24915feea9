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

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use chant_comm::{kind, Address, Header, RecvSpec};
use chant_core::ranges::{fns, tags};
use chant_core::{ChantError, ChantNode, ClusterBuilder};
use chant_ult::{current_tid, Vp};

use crate::state::{
    Arrival, Inner, Pending, PubsubConfig, PubsubMsg, PubsubState, PubsubStatsSnapshot, SubSlot,
};
use crate::tree;
use crate::wire::{self, topic_tag, AckFrame, DataFrame, SubUpdate};

/// Fan-out tree arity (children per node).
const ARITY: usize = 4;

/// Send attempts per hop before the frame is abandoned
/// (`pubsub.expired`): at-least-once, not at-all-costs.
const MAX_ATTEMPTS: u32 = 10;

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
        let Ok(a) = wire::decode_ack(&body) else {
            return st.stats.malformed.incr();
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

    let Ok(f) = wire::decode_data(&body) else {
        return st.stats.malformed.incr();
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
    let arrival = st.inner.lock().seen.entry((f.topic, f.origin)).or_default().insert(f.seq);
    match arrival {
        Arrival::New => {}
        Arrival::Duplicate => return st.stats.dup_dropped.incr(),
        Arrival::Stale => return st.stats.stale_dropped.incr(),
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
        process_routed(node, st, &routed, routed_body);
    } else {
        // Mid-tree: forward the received bytes verbatim.
        process_routed(node, st, &f, body);
    }
}

/// Deliver a tree-routed frame locally and forward it to this node's
/// tree children, recording the hop for retransmission.
fn process_routed(node: &ChantNode, st: &Arc<PubsubState>, f: &DataFrame, body: Bytes) {
    deliver_local(node, st, f);
    let kids = tree::children(&f.nodes, node.address(), ARITY);
    if kids.is_empty() {
        return;
    }
    let tag = topic_tag(f.topic);
    let sent = node
        .endpoint()
        .isend_many(&kids, tag, 0, kind::PUBSUB, body.clone());
    st.stats.forwarded.add(sent as u64);
    let hop = Pending::sent(tag, body, kids);
    st.inner.lock().pending.insert((f.topic, f.origin, f.seq), hop);
}

/// Push a new frame into every local subscriber's queue in one pass
/// under the state lock, then wake the subscribers that were blocked
/// waiting for it, in subscription order.
fn deliver_local(node: &ChantNode, st: &Arc<PubsubState>, f: &DataFrame) {
    let waiters: Vec<_> = {
        let mut inner = st.inner.lock();
        let Some(slots) = inner.local.get_mut(&f.topic) else {
            return;
        };
        let msg = PubsubMsg {
            topic: f.topic,
            origin: f.origin,
            seq: f.seq,
            payload: f.payload.clone(),
            sent_ns: f.sent_ns,
        };
        // Counted before it is visible: a subscriber that has the
        // message (possibly on another lane, the instant it is woken)
        // must find it in the tally.
        st.stats.delivered.add(slots.len() as u64);
        trace_deliver(node, st, f, slots.len());
        slots
            .values_mut()
            .filter_map(|slot| {
                slot.items.push_back(msg.clone());
                slot.waiter.take()
            })
            .collect()
    };
    for tid in waiters {
        // A waiter that has exited since (cancelled, say) is no longer
        // there to wake: nothing to do.
        let _ = node.vp().unblock(tid);
    }
}

/// The relay's timer work: retransmit or expire due hops, send the
/// periodic subscription resync, and expire registrants the home has
/// not heard from.
fn sweep(node: &ChantNode, st: &Arc<PubsubState>, last_resync: &mut Instant) {
    let cfg = st.config();
    let now = Instant::now();

    // Retransmit unacked hops past their RTO; abandon past MAX_ATTEMPTS.
    let mut resend: Vec<(Vec<Address>, i32, Bytes)> = Vec::new();
    {
        let mut inner = st.inner.lock();
        let stats = &st.stats;
        inner.pending.retain(|_, p| {
            if now.duration_since(p.last_sent) < cfg.rto {
                return true;
            }
            if p.attempts >= MAX_ATTEMPTS {
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
    /// number for the publish. Hops are at-least-once and each node
    /// drops the duplicates, so a current subscriber sees the publish
    /// once; the call returns once the frame is on its way, not once it
    /// is delivered.
    fn publish(&self, topic: u64, payload: &[u8]) -> Result<u64, ChantError>;

    /// [`PubsubNode::publish`] of a string payload.
    fn publish_str(&self, topic: u64, payload: &str) -> Result<u64, ChantError>;

    /// This node's pub-sub counters.
    fn pubsub_stats(&self) -> PubsubStatsSnapshot;
}

impl PubsubNode for ChantNode {
    fn subscribe(&self, topic: u64) -> Result<Subscriber, ChantError> {
        let st = pubsub_state(self);
        let id = {
            let mut inner = st.inner.lock();
            inner.next_sub_id += 1;
            let id = inner.next_sub_id;
            inner.local.entry(topic).or_default().insert(id, SubSlot::default());
            id
        };
        if let Err(e) = announce(self, &st, topic) {
            // Roll back, and burn another version so a later resync
            // cannot tie with the failed (fate-unknown) update at the
            // home.
            let mut inner = st.inner.lock();
            detach(&mut inner, topic, id);
            *inner.sub_version.entry(topic).or_insert(0) += 1;
            return Err(e);
        }
        Ok(Subscriber {
            topic,
            id,
            state: st,
            vp: Arc::clone(self.vp()),
            not_sync: PhantomData,
        })
    }

    fn publish(&self, topic: u64, payload: &[u8]) -> Result<u64, ChantError> {
        let st = pubsub_state(self);
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
        let mut f = DataFrame {
            route: wire::ROUTE_TO_HOME,
            topic,
            origin: me,
            seq,
            sent_ns,
            nodes: Vec::new(),
            payload: Bytes::copy_from_slice(payload),
        };
        if home == me {
            // We are the home: no first hop, the tree starts here.
            st.inner.lock().seen.entry((topic, me)).or_default().insert(seq);
            f.route = wire::ROUTE_TREE;
            f.nodes = tree_order(self, &st, topic);
            let body = wire::encode_data(&f);
            process_routed(self, &st, &f, body);
        } else {
            // First hop to the home; the relay's sweep retransmits it
            // until the home acks.
            let (body, tag) = (wire::encode_data(&f), topic_tag(topic));
            self.endpoint().isend(home, tag, 0, kind::PUBSUB, body.clone());
            let hop = Pending::sent(tag, body, vec![home]);
            st.inner.lock().pending.insert((topic, me, seq), hop);
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

/// Remove subscriber `id`'s slot, queued messages and all (idempotent).
fn detach(inner: &mut Inner, topic: u64, id: u64) {
    if let Some(subs) = inner.local.get_mut(&topic) {
        subs.remove(&id);
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
///
/// A subscriber has one waiter slot, so it is `Send` (it may move to
/// another thread of its node) but not `Sync` (two threads cannot wait
/// on it at once).
pub struct Subscriber {
    topic: u64,
    id: u64,
    state: Arc<PubsubState>,
    /// The node's VP, which `recv` blocks on and deliveries wake on.
    vp: Arc<Vp>,
    not_sync: PhantomData<Cell<()>>,
}

impl Subscriber {
    /// The subscribed topic.
    pub fn topic(&self) -> u64 {
        self.topic
    }

    /// Block until the next message arrives.
    pub fn recv(&self) -> Result<PubsubMsg, ChantError> {
        self.recv_until(None)
    }

    /// Block until the next message arrives or `timeout` elapses
    /// ([`ChantError::Timeout`]).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<PubsubMsg, ChantError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Take the next queued message without blocking.
    pub fn try_recv(&self) -> Result<Option<PubsubMsg>, ChantError> {
        Ok(self.with_slot(|slot| slot.items.pop_front()))
    }

    /// Unsubscribe: detach the queue and tell the topic's home the new
    /// absolute count over the exactly-once control path. (Merely
    /// dropping the subscriber detaches too, leaving the correction to
    /// the periodic resync or the home's expiry.)
    pub fn unsubscribe(self, node: &ChantNode) -> Result<(), ChantError> {
        detach(&mut self.state.inner.lock(), self.topic, self.id);
        announce(node, &self.state, self.topic)
    }

    /// Pop the next message, or record the caller in the waiter slot and
    /// block until a delivery or the deadline wakes it. A wake-up that
    /// lands before the block is kept by the VP as a token; a spurious
    /// one just goes round the loop.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<PubsubMsg, ChantError> {
        let me = current_tid().ok_or(ChantError::NotChantContext)?;
        loop {
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            let next = self.with_slot(|slot| {
                let next = slot.items.pop_front();
                slot.waiter = (next.is_none() && !expired).then_some(me);
                next
            });
            if let Some(m) = next {
                return Ok(m);
            }
            match deadline {
                _ if expired => return Err(ChantError::Timeout),
                Some(d) => self.vp.block_until(d),
                None => self.vp.block(),
            }
        }
    }

    fn with_slot<R>(&self, f: impl FnOnce(&mut SubSlot) -> R) -> R {
        let mut inner = self.state.inner.lock();
        let slot = inner
            .local
            .get_mut(&self.topic)
            .and_then(|subs| subs.get_mut(&self.id))
            .expect("a live Subscriber keeps its slot");
        f(slot)
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        detach(&mut self.state.inner.lock(), self.topic, self.id);
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

/// One latency sample and one `PubsubDeliver` event per subscriber the
/// frame was delivered to.
#[cfg(feature = "trace")]
fn trace_deliver(node: &ChantNode, st: &PubsubState, f: &DataFrame, subscribers: usize) {
    if let Some(o) = obs(node, st) {
        let latency_ns = unix_ns().saturating_sub(f.sent_ns);
        for _ in 0..subscribers {
            o.deliver_latency_ns.record(latency_ns);
            o.lane.emit(chant_obs::Event::PubsubDeliver {
                topic: f.topic,
                seq: f.seq,
            });
        }
    }
}

#[cfg(not(feature = "trace"))]
fn trace_deliver(_node: &ChantNode, _st: &PubsubState, _f: &DataFrame, _subscribers: usize) {}

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
