//! Pub-sub conformance and chaos battery: the full backend × policy ×
//! seed matrix over the fan-out-tree service.
//!
//! Each scenario expands through `for_each_transport!` so all three
//! backends (in-process oracle, tcp, tcp-event) carry real pub-sub
//! traffic; the scenarios themselves sweep the three polling policies
//! and, for the chaos runs, the standard seed trio (pinned with
//! `CHANT_TEST_SEED` in CI's matrix). Covered:
//!
//! * subscribe / publish / unsubscribe semantics, with the topic home
//!   on the publisher (tree rooted at the origin) *and* remote (a real
//!   first hop), on four nodes with many subscribers per node — where a
//!   publish must cost O(tree edges) frames, not O(subscribers);
//! * late join: a subscriber that arrives after a batch of publishes
//!   sees none of them, and a registration parked across the home's
//!   expiry window survives on periodic resync alone;
//! * multiple origins interleaving on one topic without loss;
//! * dead waiters: a subscriber thread cancelled inside `recv` (its
//!   Tid left in the waiter slot) and a subscriber dropped with
//!   messages queued disturb no live subscriber, and a publish racing
//!   a 1 ms `recv_timeout` is never lost or seen twice;
//! * chaos: 1% drop + 1% dup on every link — control stays
//!   exactly-once (RSR dedup), data arrives at-least-once and each
//!   node's replay windows dedup it back to exactly-once.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chant::chant::{ChantCluster, ChantError, FaultConfig, PollingPolicy, RecvSrc, RetryPolicy};
use chant::comm::Address;
use chant::pubsub::{with_pubsub_config, PubsubConfig, PubsubNode, Subscriber};
use chant::ult::SpawnAttr;
use common::{for_each_transport, main_group, seeds, Backend};

const POLICIES: [PollingPolicy; 3] = [
    PollingPolicy::ThreadPolls,
    PollingPolicy::SchedulerPollsWq,
    PollingPolicy::SchedulerPollsPs,
];

/// Generous per-message deadline: a hang fails loudly instead of
/// wedging the whole binary.
const PATIENCE: Duration = Duration::from_secs(30);

/// Test-scale timers: resyncs and retransmissions fast enough that the
/// late-join and chaos scenarios converge within a test's patience.
fn fast() -> PubsubConfig {
    PubsubConfig {
        resync_interval: Duration::from_millis(40),
        topic_timeout: Duration::from_millis(400),
        rto: Duration::from_millis(25),
    }
}

/// The RSR retry envelope the lossy runs use (same shape as the
/// transport-conformance chaos tests).
fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(25),
        max_timeout: Duration::from_millis(200),
        liveness_ping: Duration::from_millis(500),
    }
}

/// Park the calling user-level thread for `d` without blocking its VP
/// lane: a deadline receive on a tag nobody sends.
fn park(node: &std::sync::Arc<chant::chant::ChantNode>, d: Duration) {
    match node.recv_timeout(RecvSrc::Any, Some(9999), d) {
        Err(ChantError::Timeout) => {}
        other => panic!("parked receive must time out, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Subscribe / publish / unsubscribe semantics
// ---------------------------------------------------------------------

for_each_transport!(subscribe_publish_unsubscribe_across_policies, |backend: Backend| {
    const PES: u64 = 4;
    const MSGS: u64 = 8;
    /// Many subscribers behind every tree edge: deliveries scale with
    /// them, frames on the links must not.
    const SUBS_PER_NODE: u64 = 12;
    const TOPICS: [u64; 2] = [3, 1];
    for policy in POLICIES {
        let cluster = with_pubsub_config(
            ChantCluster::builder()
                .pes(PES as u32)
                .policy(policy)
                .transport(backend.config()),
            fast(),
        )
        .build();
        // Cluster-wide sums of every node's counters at the end.
        let totals = Arc::new([const { AtomicU64::new(0) }; 3]);
        let totals2 = Arc::clone(&totals);
        cluster.run(move |node| {
            let pe = node.pe();
            // Topic 3's home is PE 0 — the publisher, so the tree is
            // rooted at the origin with no first hop; topic 1's home is
            // PE 1, a real ROUTE_TO_HOME hop. Subscribers must not be
            // able to tell the difference.
            for topic in TOPICS {
                // Several subscribers per non-publisher node: the last
                // tree hop fans out locally.
                let subs: Vec<_> = (0..if pe != 0 { SUBS_PER_NODE } else { 0 })
                    .map(|_| node.subscribe(topic).unwrap())
                    .collect();
                let group = main_group(node, topic as u8);

                if pe == 0 {
                    for i in 1..=MSGS {
                        let seq = node.publish(topic, &i.to_le_bytes()).unwrap();
                        assert_eq!(seq, i, "publish seq is per-topic and dense");
                    }
                }
                for sub in &subs {
                    let mut got: Vec<u64> = (0..MSGS)
                        .map(|_| {
                            let m = sub.recv_timeout(PATIENCE).unwrap();
                            assert_eq!(m.topic, topic);
                            assert_eq!(m.origin, Address::new(0, 0));
                            assert_eq!(&m.payload[..], &m.seq.to_le_bytes());
                            m.seq
                        })
                        .collect();
                    got.sort_unstable();
                    let want: Vec<u64> = (1..=MSGS).collect();
                    assert_eq!(
                        got, want,
                        "[{backend:?}/{policy:?}] topic {topic}: every subscriber sees every publish exactly once"
                    );
                }
                group.barrier(node).unwrap();

                // PE 2 unsubscribes every thread (exactly-once control:
                // the home's count is corrected before the call
                // returns); the others stay. A second batch must reach
                // them and leave PE 2 untouched.
                let delivered_before = node.pubsub_stats().delivered;
                let keep = if pe == 2 {
                    for sub in subs {
                        sub.unsubscribe(node).unwrap();
                    }
                    Vec::new()
                } else {
                    subs
                };
                group.barrier(node).unwrap();
                if pe == 0 {
                    for i in MSGS + 1..=2 * MSGS {
                        node.publish(topic, &i.to_le_bytes()).unwrap();
                    }
                }
                for sub in &keep {
                    for want in MSGS + 1..=2 * MSGS {
                        let m = sub.recv_timeout(PATIENCE).unwrap();
                        assert_eq!(m.seq, want, "[{backend:?}/{policy:?}] in-order per link");
                    }
                }
                group.barrier(node).unwrap();
                if pe == 2 {
                    assert_eq!(
                        node.pubsub_stats().delivered,
                        delivered_before,
                        "[{backend:?}/{policy:?}] unsubscribed node must not receive the second batch"
                    );
                }
                group.barrier(node).unwrap();
            }
            let stats = node.pubsub_stats();
            for (total, mine) in
                totals2.iter().zip([stats.delivered, stats.forwarded, stats.retransmits])
            {
                total.fetch_add(mine, Ordering::SeqCst);
            }
        });

        // Tree economy on more than two nodes: a publish costs O(tree
        // edges) frames however many subscribers sit behind each edge,
        // while every subscriber still gets every publish exactly once.
        let [delivered, forwarded, retransmits] =
            totals.each_ref().map(|t| t.load(Ordering::SeqCst));
        let publishes = TOPICS.len() as u64 * 2 * MSGS;
        let subscribed = (PES - 1 + PES - 2) * SUBS_PER_NODE;
        assert_eq!(
            delivered,
            TOPICS.len() as u64 * MSGS * subscribed,
            "[{backend:?}/{policy:?}] deliveries = publishes x subscribers at the time"
        );
        assert!(
            forwarded <= publishes * 2 * PES + retransmits,
            "[{backend:?}/{policy:?}] per-link traffic must scale with tree edges, not \
             subscribers: {forwarded} data frames (+{retransmits} retransmits) for \
             {publishes} publishes and {delivered} deliveries"
        );
    }
});

// ---------------------------------------------------------------------
// Late join and resync-kept liveness
// ---------------------------------------------------------------------

for_each_transport!(late_joiner_sees_only_later_publishes, |backend: Backend| {
    const TOPIC: u64 = 2; // home = PE 0 = publisher
    const BATCH: u64 = 5;
    let cluster = with_pubsub_config(
        ChantCluster::builder().pes(2).transport(backend.config()),
        fast(),
    )
    .build();
    cluster.run(move |node| {
        let pe = node.pe();
        let group = main_group(node, 0);
        if pe == 0 {
            // The home is local: the tree for each early publish is
            // pinned inside the publish call, before the barrier below,
            // so the late joiner provably cannot be in it.
            for _ in 0..BATCH {
                node.publish(TOPIC, b"early").unwrap();
            }
        }
        group.barrier(node).unwrap();
        let sub = (pe == 1).then(|| node.subscribe(TOPIC).unwrap());
        group.barrier(node).unwrap();

        // Sit out more than a whole home-expiry window: only the relay
        // daemon's periodic resync keeps the registration alive.
        park(node, Duration::from_millis(600));

        if pe == 0 {
            for _ in 0..BATCH {
                node.publish(TOPIC, b"late").unwrap();
            }
        }
        if let Some(sub) = &sub {
            for _ in 0..BATCH {
                let m = sub.recv_timeout(PATIENCE).unwrap();
                assert_eq!(
                    &m.payload[..],
                    b"late",
                    "[{backend:?}] late joiner saw a pre-subscription publish (seq {})",
                    m.seq
                );
                assert!(m.seq > BATCH, "[{backend:?}] early seq leaked: {}", m.seq);
            }
            // Nothing else is in flight: the early frames never had
            // this node in their tree.
            assert!(sub.try_recv().unwrap().is_none(), "[{backend:?}] stray message");
        }
        group.barrier(node).unwrap();
    });
});

// ---------------------------------------------------------------------
// Multiple origins on one topic
// ---------------------------------------------------------------------

for_each_transport!(multiple_origins_interleave_without_loss, |backend: Backend| {
    const TOPIC: u64 = 4; // home = PE 1: one publisher is remote, one is home-resident
    const PER_ORIGIN: u64 = 10;
    let cluster = with_pubsub_config(
        ChantCluster::builder().pes(3).transport(backend.config()),
        fast(),
    )
    .build();
    cluster.run(move |node| {
        let pe = node.pe();
        let sub = (pe == 2).then(|| node.subscribe(TOPIC).unwrap());
        let group = main_group(node, 0);
        if pe < 2 {
            for i in 1..=PER_ORIGIN {
                node.publish(TOPIC, &i.to_le_bytes()).unwrap();
            }
        }
        if let Some(sub) = &sub {
            let mut per_origin = std::collections::HashMap::<Address, Vec<u64>>::new();
            for _ in 0..2 * PER_ORIGIN {
                let m = sub.recv_timeout(PATIENCE).unwrap();
                per_origin.entry(m.origin).or_default().push(m.seq);
            }
            let want: Vec<u64> = (1..=PER_ORIGIN).collect();
            for origin in [Address::new(0, 0), Address::new(1, 0)] {
                let mut got = per_origin.remove(&origin).unwrap_or_default();
                got.sort_unstable();
                assert_eq!(
                    got, want,
                    "[{backend:?}] origin {origin:?}: per-origin seqs must be complete and unique"
                );
            }
            assert!(per_origin.is_empty(), "[{backend:?}] unexpected origin");
        }
        group.barrier(node).unwrap();
    });
});

// ---------------------------------------------------------------------
// Dead waiters and wake races
// ---------------------------------------------------------------------

/// Puts a [`Subscriber`] back into a shared slot when dropped, which
/// includes the unwinding of a cancelled thread that held it.
struct HandBack(Arc<Mutex<Option<Subscriber>>>, Option<Subscriber>);

impl Drop for HandBack {
    fn drop(&mut self) {
        *self.0.lock().unwrap() = self.1.take();
    }
}

for_each_transport!(dead_waiters_leave_live_subscribers_exactly_once, |backend: Backend| {
    const TOPIC: u64 = 1; // home = PE 1, the subscriber node: a real first hop
    const MSGS: u64 = 16;
    const LIVE: u64 = 3;
    for policy in POLICIES {
        let cluster = with_pubsub_config(
            ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config()),
            fast(),
        )
        .build();
        cluster.run(move |node| {
            let pe = node.pe();
            let group = main_group(node, 0);
            let publish = |seqs: std::ops::RangeInclusive<u64>| {
                if pe == 0 {
                    for i in seqs {
                        node.publish(TOPIC, &i.to_le_bytes()).unwrap();
                    }
                }
            };
            // PE 1: LIVE threads blocked in `recv`; an orphan, whose
            // thread was cancelled inside `recv` and handed it back with
            // the dead thread's Tid in the waiter slot; and one
            // subscriber to drop with messages queued.
            let finished = Arc::new(AtomicU64::new(0));
            let mut live = Vec::new();
            let (mut orphan, mut dropped) = (None, None);
            if pe == 1 {
                for _ in 0..LIVE {
                    let (sub, finished) = (node.subscribe(TOPIC).unwrap(), Arc::clone(&finished));
                    live.push(node.spawn(SpawnAttr::new(), move |_| {
                        for want in 1..=2 * MSGS {
                            assert_eq!(sub.recv_timeout(PATIENCE).unwrap().seq, want);
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    }));
                }
                let slot = Arc::new(Mutex::new(None));
                let hand_back = HandBack(Arc::clone(&slot), Some(node.subscribe(TOPIC).unwrap()));
                let doomed = node.spawn(SpawnAttr::new().name("doomed"), move |_| {
                    let hand_back = hand_back;
                    let _ = hand_back.1.as_ref().unwrap().recv();
                    unreachable!("nothing is published before the cancel");
                });
                park(node, Duration::from_millis(20));
                node.remote_cancel(doomed).unwrap();
                let _ = node.remote_join(doomed);
                orphan = slot.lock().unwrap().take();
                assert!(orphan.is_some(), "the cancelled thread hands its subscriber back");
                dropped = Some(node.subscribe(TOPIC).unwrap());
            }
            // Read before the barrier: once PE 0 is through it, frames
            // may land here before this thread leaves it.
            let before = node.pubsub_stats().delivered;
            group.barrier(node).unwrap();

            publish(1..=MSGS);
            if let Some(orphan) = &orphan {
                // Let the batch land before the orphan receives, so the
                // first delivery meets the dead thread's Tid.
                let deadline = Instant::now() + PATIENCE;
                while node.pubsub_stats().delivered - before < MSGS * (LIVE + 2) {
                    assert!(Instant::now() < deadline, "[{backend:?}/{policy:?}] stalled");
                    park(node, Duration::from_millis(1));
                }
                for want in 1..=MSGS {
                    assert_eq!(orphan.recv_timeout(PATIENCE).unwrap().seq, want);
                }
                // One delivery pass fills every slot, so the whole batch
                // is queued on `dropped` now: drop it unread.
                drop(dropped.take());
                assert_eq!(
                    node.pubsub_stats().delivered - before,
                    MSGS * (LIVE + 2),
                    "[{backend:?}/{policy:?}] one delivery per publish per attached subscriber"
                );
            }
            group.barrier(node).unwrap();

            publish(MSGS + 1..=2 * MSGS);
            if let Some(orphan) = &orphan {
                for want in MSGS + 1..=2 * MSGS {
                    assert_eq!(orphan.recv_timeout(PATIENCE).unwrap().seq, want);
                }
                for id in live {
                    let _ = node.remote_join(id);
                }
                assert_eq!(
                    finished.load(Ordering::SeqCst),
                    LIVE,
                    "[{backend:?}/{policy:?}] every live subscriber gets every publish once, in order"
                );
                assert_eq!(
                    node.pubsub_stats().delivered - before,
                    MSGS * (LIVE + 2) + MSGS * (LIVE + 1),
                    "[{backend:?}/{policy:?}] a dropped subscriber is no longer delivered to"
                );
            }
            group.barrier(node).unwrap();
        });
    }
});

for_each_transport!(publish_racing_a_short_recv_timeout_is_never_lost_or_doubled, |backend: Backend| {
    const TOPIC: u64 = 0; // home = PE 0, the publisher
    const ROUNDS: u64 = 1000;
    for policy in POLICIES {
        let cluster = with_pubsub_config(
            ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config()),
            fast(),
        )
        .build();
        cluster.run(move |node| {
            let sub = (node.pe() == 1).then(|| node.subscribe(TOPIC).unwrap());
            let group = main_group(node, 0);
            if node.pe() == 0 {
                for i in 1..=ROUNDS {
                    node.publish(TOPIC, &i.to_le_bytes()).unwrap();
                    // Gaps of 0.1–1.2 ms: arrivals land before, at and
                    // after the receiver's 1 ms timeouts expire.
                    park(node, Duration::from_micros(100 * (1 + i % 12)));
                }
            }
            if let Some(sub) = &sub {
                let deadline = Instant::now() + PATIENCE;
                let mut got = Vec::new();
                while (got.len() as u64) < ROUNDS {
                    match sub.recv_timeout(Duration::from_millis(1)) {
                        Ok(m) => got.push(m.seq),
                        Err(ChantError::Timeout) => assert!(Instant::now() < deadline, "stalled"),
                        Err(e) => panic!("recv_timeout failed: {e:?}"),
                    }
                }
                let want: Vec<u64> = (1..=ROUNDS).collect();
                assert!(got == want, "[{backend:?}/{policy:?}] lost, doubled or reordered");
            }
            group.barrier(node).unwrap();
            if let Some(sub) = &sub {
                assert!(sub.try_recv().unwrap().is_none(), "[{backend:?}/{policy:?}] doubled");
                assert_eq!(node.pubsub_stats().delivered, ROUNDS);
            }
            group.barrier(node).unwrap();
        });
    }
});

// ---------------------------------------------------------------------
// Chaos: 1% drop + 1% dup on every link
// ---------------------------------------------------------------------

for_each_transport!(lossy_links_deliver_exactly_once_after_dedup, |backend: Backend| {
    const TOPIC: u64 = 5; // home = PE 2: publisher, home, and a plain leaf all distinct
    const MSGS: u64 = 25;
    for policy in POLICIES {
        for seed in seeds() {
            let cluster = with_pubsub_config(
                ChantCluster::builder()
                    .pes(3)
                    .policy(policy)
                    .transport(backend.config())
                    .faults(FaultConfig::new(seed).drop_p(0.01).dup_p(0.01))
                    .rsr_retry(chaos_retry()),
                fast(),
            )
            .build();
            cluster.run(move |node| {
                let pe = node.pe();
                // Subscribing under faults rides the exactly-once RSR
                // control path: when this returns, the home registered
                // us exactly once, lost/duplicated control frames
                // notwithstanding.
                let sub = (pe != 0).then(|| node.subscribe(TOPIC).unwrap());
                let group = main_group(node, 0);
                if pe == 0 {
                    for i in 1..=MSGS {
                        node.publish(TOPIC, &i.to_le_bytes()).unwrap();
                    }
                }
                if let Some(sub) = &sub {
                    let mut got: Vec<u64> = (0..MSGS)
                        .map(|_| {
                            let m = sub
                                .recv_timeout(PATIENCE)
                                .expect("at-least-once delivery must heal 1% drop");
                            assert_eq!(&m.payload[..], &m.seq.to_le_bytes());
                            m.seq
                        })
                        .collect();
                    got.sort_unstable();
                    let want: Vec<u64> = (1..=MSGS).collect();
                    assert_eq!(
                        got, want,
                        "[{backend:?}/{policy:?}] seed {seed}: dedup must reduce at-least-once to exactly-once"
                    );
                }
                group.barrier(node).unwrap();
            });
        }
    }
});
