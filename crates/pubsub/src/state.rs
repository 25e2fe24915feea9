//! Per-node pub-sub state: configuration, counters, the home-side
//! subscription registry, the replay windows, local subscriber slots,
//! and the in-flight retransmission ledger.
//!
//! One [`PubsubState`] exists per node, installed through
//! [`chant_core::ChantNode::extension`]; the SDK threads, the RSR
//! subscription handler, and the relay daemon all share it. Everything
//! mutable sits behind one host-level `parking_lot::Mutex` that is never
//! held across an engine wait or a ULT block: a subscriber is a queue and
//! a waiter slot under that lock, and a blocked `recv` is woken with
//! `Vp::unblock` after the deliverer has released it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_comm::Address;
use chant_ult::Tid;
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
    /// Retransmission timeout for unacknowledged data-frame hops.
    pub rto: Duration,
}

impl Default for PubsubConfig {
    fn default() -> PubsubConfig {
        PubsubConfig {
            resync_interval: Duration::from_millis(250),
            topic_timeout: Duration::from_secs(1),
            rto: Duration::from_millis(50),
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
        /// Messages pushed to local subscriber queues: one per publish
        /// per subscriber attached when the frame arrived.
        delivered,
        /// Data frames forwarded to fan-out-tree children.
        forwarded,
        /// Hop acknowledgements received.
        acks,
        /// Data-frame hop retransmissions.
        retransmits,
        /// Data frames dropped by the node's replay window as already
        /// seen (a retransmission whose ack was lost, or a link dup).
        dup_dropped,
        /// Data frames dropped because their seq lies 1 024 or more
        /// below the highest seen from the same `(topic, origin)`, too
        /// old for the replay window to tell new from duplicate.
        stale_dropped,
        /// Frames abandoned after `MAX_ATTEMPTS` retransmissions.
        expired,
        /// Periodic subscription resyncs sent.
        resyncs,
        /// Subscription updates applied at this node (as a topic home).
        control_updates,
        /// Malformed pub-sub bodies dropped.
        malformed,
    }
}

/// How many seqs a [`ReplayWindow`] tells apart: its highest and the
/// 1 023 below it.
const REPLAY_SPAN: u64 = 1024;

/// What a [`ReplayWindow`] says about one seq.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arrival {
    New,
    Duplicate,
    /// Below the window, where new and duplicate look alike: dropped.
    Stale,
}

/// The anti-replay window of RFC 4303 §3.4.3 over one
/// `(topic, origin)`'s publish seqs: the highest seq seen plus one bit
/// per seq of the [`REPLAY_SPAN`] ending at it. The bitmap is a ring
/// (seq `s` is bit `s % REPLAY_SPAN`), so moving the top up clears the
/// bits of the seqs it slides past instead of shifting the rest.
/// Reordering within the span is exact; no call allocates.
#[derive(Default)]
pub(crate) struct ReplayWindow {
    top: u64,
    bits: [u64; (REPLAY_SPAN / 64) as usize],
}

impl ReplayWindow {
    pub(crate) fn insert(&mut self, seq: u64) -> Arrival {
        if self.top.saturating_sub(seq) >= REPLAY_SPAN {
            return Arrival::Stale;
        }
        let slot = |s: u64| ((s % REPLAY_SPAN / 64) as usize, 1u64 << (s % 64));
        for s in (self.top..seq).take(REPLAY_SPAN as usize) {
            let (word, bit) = slot(s + 1);
            self.bits[word] &= !bit;
        }
        self.top = self.top.max(seq);
        let (word, bit) = slot(seq);
        if self.bits[word] & bit != 0 {
            return Arrival::Duplicate;
        }
        self.bits[word] |= bit;
        Arrival::New
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

impl Pending {
    /// A hop just sent for the first time to `children`.
    pub(crate) fn sent(tag: i32, body: Bytes, children: Vec<Address>) -> Pending {
        Pending {
            tag,
            body,
            children: children.into_iter().map(|c| (c, false)).collect(),
            attempts: 1,
            last_sent: Instant::now(),
        }
    }
}

/// One local subscriber: its undelivered messages and the thread, if
/// any, blocked waiting for the next one.
#[derive(Default)]
pub(crate) struct SubSlot {
    pub items: VecDeque<PubsubMsg>,
    pub waiter: Option<Tid>,
}

/// Everything guarded by the host-level state lock.
#[derive(Default)]
pub(crate) struct Inner {
    /// Home-side registry: topic → registrant node → entry.
    pub registry: HashMap<u64, HashMap<Address, RegEntry>>,
    /// Local subscribers by topic, then by subscriber id (ascending id
    /// is subscription order, which is the wake order).
    pub local: HashMap<u64, BTreeMap<u64, SubSlot>>,
    /// This node's per-topic subscription-update version counter.
    pub sub_version: HashMap<u64, u64>,
    /// This node's per-topic publish sequence counter.
    pub publish_seq: HashMap<u64, u64>,
    /// The node's one dedup check, which every data frame passes once:
    /// a replay window per `(topic, origin)`.
    pub seen: HashMap<(u64, Address), ReplayWindow>,
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
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn late_joiner_then_a_jump_past_the_span() {
        let mut w = ReplayWindow::default();
        // The first frame heard from an origin may carry any seq.
        assert_eq!(w.insert(700), Arrival::New);
        assert_eq!(w.insert(700), Arrival::Duplicate);
        assert_eq!(w.insert(3), Arrival::New, "earlier seqs within the span are new");
        assert_eq!(w.insert(3), Arrival::Duplicate);
        // A jump of more than the span forgets everything below it.
        let top = 701 + REPLAY_SPAN;
        assert_eq!(w.insert(top), Arrival::New);
        assert_eq!(w.insert(700), Arrival::Stale);
        assert_eq!(w.insert(top - REPLAY_SPAN), Arrival::Stale);
        assert_eq!(w.insert(top - REPLAY_SPAN + 1), Arrival::New, "oldest seq in the span");
        assert_eq!(w.insert(top), Arrival::Duplicate);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a model that remembers every seq: `New` exactly once
        /// for each seq within the span of the running maximum,
        /// `Duplicate` for a repeat inside it, `Stale` below it — over
        /// near-ordered streams (small local reorders and repeats) and
        /// over arbitrary ones (jumps of any size, both ways).
        #[test]
        fn replay_window_matches_a_model(
            seqs in prop_oneof![
                proptest::collection::vec(0u64..40, 1..1500).prop_map(|back| {
                    back.iter().enumerate().map(|(i, b)| (i as u64).saturating_sub(*b)).collect()
                }),
                proptest::collection::vec(0u64..4 * REPLAY_SPAN, 1..600),
            ],
        ) {
            let mut w = ReplayWindow::default();
            let mut seen = HashSet::new();
            let mut max = None;
            for s in seqs {
                let want = if max.is_some_and(|m: u64| s + REPLAY_SPAN <= m) {
                    Arrival::Stale
                } else if seen.insert(s) {
                    Arrival::New
                } else {
                    Arrival::Duplicate
                };
                prop_assert_eq!(w.insert(s), want, "seq {} after max {:?}", s, max);
                max = max.max(Some(s));
            }
        }
    }
}
