//! Per-node pub-sub state: configuration, counters, the home-side
//! subscription registry, local subscriber queues, and the in-flight
//! retransmission ledger.
//!
//! One [`PubsubState`] exists per node, installed through
//! [`chant_core::ChantNode::extension`]; the SDK threads, the RSR
//! subscription handler, and the relay daemon all share it. The inner
//! maps are guarded by a host-level `parking_lot::Mutex` (never held
//! across an engine wait); the subscriber queues themselves are
//! ULT-level mutex/condvar pairs so a blocked `recv` yields its VP lane
//! instead of spinning.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_comm::Address;
use chant_ult::{UltCondvar, UltMutex};
use parking_lot::Mutex;

/// Tunables for the pub-sub service, set once per cluster through
/// [`crate::with_pubsub_config`].
///
/// The defaults are test-scale renditions of atm0s-sdn's production
/// constants (`PUBSUB_CHANNEL_RESYNC_MS` = 5000, channel timeout
/// 20000 ms): the ratios are preserved (timeout = 4 × resync) but the
/// absolute values shrink so a late joiner converges, and a lost
/// unsubscribe ages out, within a test's patience.
#[derive(Clone, Debug)]
pub struct PubsubConfig {
    /// How often each node re-asserts its subscriber counts to every
    /// topic home (the resync that heals lost control traffic).
    pub resync_interval: Duration,
    /// How long a home keeps a registrant it has not heard from. Must
    /// comfortably exceed `resync_interval` or healthy subscribers
    /// flap.
    pub topic_timeout: Duration,
    /// Fan-out tree arity (children per node).
    pub arity: usize,
    /// Retransmission timeout for unacknowledged data-frame hops.
    pub rto: Duration,
    /// Retransmission attempts per hop before the frame is abandoned
    /// (`pubsub.expired`); at-least-once, not at-all-costs.
    pub max_attempts: u32,
    /// Capacity of each `(topic, origin, seq)` dedup window (node-level
    /// and per-subscriber).
    pub dedup_window: usize,
}

impl Default for PubsubConfig {
    fn default() -> PubsubConfig {
        PubsubConfig {
            resync_interval: Duration::from_millis(250),
            topic_timeout: Duration::from_secs(1),
            arity: 4,
            rto: Duration::from_millis(50),
            max_attempts: 10,
            dedup_window: 1024,
        }
    }
}

/// One delivered publish, as a subscriber receives it.
#[derive(Clone, Debug)]
pub struct PubsubMsg {
    /// Topic it was published to.
    pub topic: u64,
    /// The publishing node.
    pub origin: Address,
    /// The origin's per-topic publish sequence number.
    pub seq: u64,
    /// The payload bytes.
    pub payload: Bytes,
    /// Publisher wall clock at publish (UNIX nanoseconds).
    pub sent_ns: u64,
}

chant_obs::counters! {
    /// Monotonic pub-sub counters for one node
    /// (see [`crate::PubsubNode::pubsub_stats`]).
    "pubsub": pub(crate) struct PubsubStats => pub struct PubsubStatsSnapshot {
        /// Publishes issued by this node's threads.
        published,
        /// Messages handed to local subscriber queues (counted per
        /// subscriber).
        delivered,
        /// Data frames forwarded to fan-out-tree children.
        forwarded,
        /// Hop acknowledgements received.
        acks,
        /// Data-frame hop retransmissions.
        retransmits,
        /// Duplicate data frames dropped (node-level or per-subscriber).
        dup_dropped,
        /// Frames abandoned after `max_attempts` retransmissions.
        expired,
        /// Periodic subscription resyncs sent.
        resyncs,
        /// Subscription updates applied at this node (as a topic home).
        control_updates,
        /// Malformed pub-sub bodies dropped.
        malformed,
    }
}

/// A bounded first-in-first-out duplicate-suppression window over keys
/// of type `K`. `insert` answers "is this new?" and evicts the oldest
/// key once the window is full — the same shape as the RSR server's
/// per-client dedup window, generalized over the key.
pub(crate) struct SeqWindow<K: Hash + Eq + Copy> {
    set: HashSet<K>,
    order: VecDeque<K>,
}

impl<K: Hash + Eq + Copy> Default for SeqWindow<K> {
    fn default() -> SeqWindow<K> {
        SeqWindow {
            set: HashSet::new(),
            order: VecDeque::new(),
        }
    }
}

impl<K: Hash + Eq + Copy> SeqWindow<K> {
    /// Record `key`; returns `false` if it was already in the window
    /// (i.e. a duplicate). `cap` is passed per call because the config
    /// may be installed after the first frames arrive.
    pub(crate) fn insert(&mut self, key: K, cap: usize) -> bool {
        let cap = cap.max(1);
        if !self.set.insert(key) {
            return false;
        }
        self.order.push_back(key);
        while self.order.len() > cap {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        // A full window inserts and removes one key per call, and the
        // hash table takes the slots its removals have left unusable for
        // a reason to double — at a constant number of keys. Every
        // subscriber has a window, so that is the node's memory doubling
        // after a few thousand publishes. A table for at most `cap + 1`
        // keys never needs to reach twice that capacity: rebuild it at
        // the size it needs instead (once per several `cap` inserts).
        if self.set.capacity() >= 2 * (cap + 1) {
            self.set.shrink_to_fit();
        }
        true
    }
}

/// What a topic home knows about one registered node.
pub(crate) struct RegEntry {
    /// The node's asserted absolute local subscriber count.
    pub count: u32,
    /// The version that count arrived with (monotonic per node).
    pub version: u64,
    /// When the home last heard from the node (any version).
    pub last_heard: Instant,
}

/// An unacknowledged data-frame hop: the re-encodable body plus which
/// children still owe an ack.
pub(crate) struct Pending {
    /// The tag the frame travels on ([`crate::wire::topic_tag`]).
    pub tag: i32,
    /// The encoded frame body, resent verbatim.
    pub body: Bytes,
    /// `(child, acked)` per tree edge out of this node.
    pub children: Vec<(Address, bool)>,
    /// Send attempts so far (1 = original send).
    pub attempts: u32,
    /// When the frame was last (re)sent to any child.
    pub last_sent: Instant,
}

/// One local subscriber: an id (for unsubscribe bookkeeping) and the
/// ULT-level queue its `recv` blocks on.
pub(crate) struct SubEntry {
    pub id: u64,
    pub queue: Arc<UltMutex<SubQueue>>,
    pub cv: Arc<UltCondvar>,
}

/// A subscriber's delivery queue plus its private `(origin, seq)`
/// dedup window — the ISSUE's per-subscriber deduplication, so a
/// subscriber created mid-retransmission still sees each publish once.
#[derive(Default)]
pub(crate) struct SubQueue {
    pub items: VecDeque<PubsubMsg>,
    pub seen: SeqWindow<(Address, u64)>,
}

/// Everything guarded by the host-level state lock.
#[derive(Default)]
pub(crate) struct Inner {
    /// Home-side registry: topic → registrant node → entry.
    pub registry: HashMap<u64, HashMap<Address, RegEntry>>,
    /// Local subscribers by topic.
    pub local: HashMap<u64, Vec<Arc<SubEntry>>>,
    /// This node's per-topic subscription-update version counter.
    pub sub_version: HashMap<u64, u64>,
    /// This node's per-topic publish sequence counter.
    pub publish_seq: HashMap<u64, u64>,
    /// Node-level `(topic, origin, seq)` dedup window.
    pub seen: SeqWindow<(u64, Address, u64)>,
    /// In-flight hops by `(topic, origin, seq)`.
    pub pending: HashMap<(u64, Address, u64), Pending>,
    /// Next local subscriber id.
    pub next_sub_id: u64,
}

/// Per-node pub-sub state (an [`chant_core::ChantNode::extension`]).
#[derive(Default)]
pub(crate) struct PubsubState {
    /// Cluster config; written by the daemon and the RSR handler
    /// (first writer wins), read per use so SDK calls racing startup
    /// just see defaults until it lands.
    pub cfg: OnceLock<PubsubConfig>,
    /// Shared with the node's counter-family list.
    pub stats: Arc<PubsubStats>,
    pub inner: Mutex<Inner>,
    /// This node's trace handles, resolved on first use; `None` once
    /// resolved means no tracer was installed.
    #[cfg(feature = "trace")]
    pub obs: OnceLock<Option<PubsubObs>>,
}

/// Per-node trace handles, looked up once.
#[cfg(feature = "trace")]
pub(crate) struct PubsubObs {
    /// The node's trace lane (`pubsub{pe}.{process}`).
    pub lane: chant_obs::LaneHandle,
    /// Publisher wall clock → local delivery, ns.
    pub deliver_latency_ns: Arc<chant_obs::Histogram>,
}

impl PubsubState {
    /// The installed config, or defaults if none landed yet.
    pub(crate) fn config(&self) -> PubsubConfig {
        self.cfg.get().cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_window_dedups_within_capacity() {
        let mut w = SeqWindow::default();
        assert!(w.insert(1u64, 4));
        assert!(w.insert(2, 4));
        assert!(!w.insert(1, 4), "duplicate must be reported");
        assert!(!w.insert(2, 4));
    }

    #[test]
    fn seq_window_evicts_oldest_first() {
        let mut w = SeqWindow::default();
        for k in 0u64..4 {
            assert!(w.insert(k, 4));
        }
        assert!(w.insert(4, 4)); // evicts 0
        assert!(w.insert(0, 4), "evicted key is forgotten");
        assert!(!w.insert(4, 4), "recent key still remembered");
    }

    #[test]
    fn seq_window_cap_is_clamped_to_one() {
        let mut w = SeqWindow::default();
        assert!(w.insert(7u64, 0));
        assert!(!w.insert(7, 0), "window always remembers the last key");
        assert!(w.insert(8, 0));
    }
}
