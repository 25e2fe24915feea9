//! Transport conformance: one suite, every backend.
//!
//! Correctness of the messaging semantics is defined *once* — by these
//! tests — and each transport backend must pass all of them unchanged.
//! The in-process backend is the oracle: it is the original synchronous
//! delivery path that the paper's table reproductions run on. The
//! socket backend runs here in loopback mode (every endpoint local,
//! every message between distinct endpoints through a real kernel
//! socket via the frame codec and the per-peer send queue, read by the
//! lanes' own reactor turns; a message to self is delivered in place on
//! every backend), so any divergence is a transport bug, not an
//! environment difference.
//!
//! Covered per backend, via `for_each_transport!`:
//! * per-link FIFO ordering under concurrent cross-traffic;
//! * exactly-once RSR effects under duplication + reordering faults
//!   (seed overridable with `CHANT_FAULT_SEED`, as in CI's matrix);
//! * `recv_timeout` expiry and late-message delivery under all three
//!   polling policies (plus the WQ+testany variant);
//! * a receiver cancelled in each policy's wait neither hangs the node
//!   nor takes a live receiver's message (seeds from `CHANT_TEST_SEED`);
//! * retire-on-drop: an abandoned posted receive must not swallow a
//!   message that arrives later;
//! * a message to self is delivered in place: FIFO and exactly once on
//!   the self link, never a transport frame, and a lone rank with no
//!   reachable peer never dials (its own listener or anyone else);
//! * a ring over two PEs with two processes each (on sockets: two lanes
//!   driving one PE's transport).
//!
//! On sockets only, beyond these: a parked lane does not wait for a
//! busy one, mutual floods drain, and a send left to its lane is
//! written before the lane parks.
//!
//! A final cross-backend test runs the same workload on each and
//! compares the endpoint-level statistics — the matching engine must
//! not be able to tell the transports apart.

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;

use chant::chant::{
    ChantCluster, ChantError, ChanterId, FaultConfig, PollingPolicy, RecvSrc, RetryPolicy,
    TransportConfig,
};
use chant::comm::{kind, Address, CommWorld, RecvSpec};
use chant::ult::SpawnAttr;
use common::{fault_seed, for_each_transport, seeds, Backend};

const FN_COUNT: u32 = 1001;

// ---------------------------------------------------------------------
// Per-link FIFO ordering.
// ---------------------------------------------------------------------

for_each_transport!(ordering_per_link, |backend: Backend| {
    const N: u32 = 200;
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(backend.config())
        .build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        // Full-duplex: both directions at once, so the socket backend's
        // outbound and inbound paths are exercised concurrently.
        for i in 0..N {
            node.send(peer, 7, &i.to_le_bytes()).unwrap();
        }
        for expect in 0..N {
            let (_info, body) = node.recv_tag(7).unwrap();
            let got = u32::from_le_bytes(body[..4].try_into().unwrap());
            assert_eq!(
                got, expect,
                "link ({} -> {}) reordered: expected {expect}, got {got}",
                peer.pe, me.pe
            );
        }
    });
});

// ---------------------------------------------------------------------
// Exactly-once RSR effects under duplication + reordering.
// ---------------------------------------------------------------------

for_each_transport!(exactly_once_rsr_under_dup_and_reorder, |backend: Backend| {
    const OPS: u32 = 16;
    let counter = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&counter);
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(backend.config())
        .faults(FaultConfig::new(fault_seed(42)).dup_p(0.35).reorder_p(0.35))
        .rsr_retry(RetryPolicy {
            max_attempts: 6,
            base_timeout: Duration::from_millis(25),
            max_timeout: Duration::from_millis(200),
            liveness_ping: Duration::from_millis(500),
        })
        .rsr_handler(FN_COUNT, move |_node, _req| {
            // Non-idempotent on purpose: a re-executed duplicate is
            // visible as a wrong final count.
            c2.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::new())
        })
        .build();
    cluster.run(|node| {
        if node.self_id().pe == 0 {
            for i in 0..OPS {
                node.rsr_call(Address::new(1, 0), FN_COUNT, &i.to_le_bytes())
                    .expect("counted op must eventually succeed");
            }
        }
    });
    assert_eq!(
        counter.load(Ordering::SeqCst),
        OPS,
        "[{backend:?}] non-idempotent handler ran a duplicate (or lost an op)"
    );
});

// ---------------------------------------------------------------------
// Deadline receives under every polling policy.
// ---------------------------------------------------------------------

for_each_transport!(recv_timeout_under_all_policies, |backend: Backend| {
    for policy in [
        PollingPolicy::ThreadPolls,
        PollingPolicy::SchedulerPollsWq,
        PollingPolicy::SchedulerPollsPs,
        PollingPolicy::SchedulerPollsWqTestany,
    ] {
        let cluster = ChantCluster::builder()
            .pes(2)
            .policy(policy)
            .transport(backend.config())
            .build();
        cluster.run(move |node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            if me.pe == 0 {
                // Nobody sends tag 9 yet: the deadline must fire.
                match node.recv_timeout(RecvSrc::Any, Some(9), Duration::from_millis(30)) {
                    Err(ChantError::Timeout) => {}
                    other => panic!("[{policy:?}] expected Timeout, got {other:?}"),
                }
                // Only now allow the peer to send it. The timed-out
                // receive must have been retired — it must not swallow
                // the late message.
                node.send(peer, 1, b"go").unwrap();
                let (_info, body) = node.recv_tag(9).expect("late message still arrives");
                assert_eq!(&body[..], b"after the deadline");
            } else {
                node.recv_tag(1).unwrap();
                node.send(peer, 9, b"after the deadline").unwrap();
            }
        });
    }
});

// A chanter blocked in a policy-specific receive wait is cancelled; the
// wake-up machinery of that policy (thread polls, scheduler polls with
// a work queue, or per-TCB pending polls) must neither hang on the
// doomed waiter nor lose the message for the live one. The reply that
// wakes the live receiver is delivered from PE 1's OS thread while PE
// 0's lane is kept busy by yielding threads (seeds vary how many).
for_each_transport!(cancelled_receiver_under_each_polling_policy, |backend: Backend| {
    for policy in [
        PollingPolicy::ThreadPolls,
        PollingPolicy::SchedulerPollsWq,
        PollingPolicy::SchedulerPollsPs,
    ] {
        for seed in seeds() {
            let cancelled = Arc::new(AtomicU32::new(0));
            let c2 = Arc::clone(&cancelled);
            let cluster = ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config())
                .build();
            cluster.run(move |node| {
                let me = node.self_id();
                let peer = ChanterId::new(1 - me.pe, 0, me.thread);
                if me.pe == 0 {
                    // A doomed receiver: tag 77 never arrives.
                    let doomed = node.spawn(SpawnAttr::new().name("doomed"), |n| {
                        let _ = n.recv_tag(77);
                        unreachable!("tag 77 is never sent");
                    });
                    for _ in 0..(seed % 5 + 4) {
                        node.spawn(SpawnAttr::new(), |n| {
                            for _ in 0..16 {
                                n.yield_now();
                            }
                        });
                    }
                    // Let the doomed receiver park in the policy's wait.
                    match node.recv_timeout(RecvSrc::Any, Some(9), Duration::from_millis(20)) {
                        Err(ChantError::Timeout) => {}
                        other => panic!("[{policy:?}] expected Timeout, got {other:?}"),
                    }
                    node.remote_cancel(doomed).unwrap();
                    c2.fetch_add(1, Ordering::Relaxed);
                    // The live flow proceeds: real traffic both ways.
                    node.send(peer, 1, b"ping").unwrap();
                    let (_info, body) = node.recv_tag(2).expect("live receive survives");
                    assert_eq!(&body[..], b"pong");
                } else {
                    node.recv_tag(1).unwrap();
                    node.send(peer, 2, b"pong").unwrap();
                }
            });
            assert_eq!(
                cancelled.load(Ordering::Relaxed),
                1,
                "[{backend:?}/{policy:?}] seed {seed}: cancel path must have run"
            );
        }
    }
});

// ---------------------------------------------------------------------
// Retire-on-drop at the endpoint level.
// ---------------------------------------------------------------------

for_each_transport!(retire_on_drop, |backend: Backend| {
    let world = CommWorld::with_transport(2, 1, backend.config());
    let sender = world.endpoint(Address::new(0, 0));
    let receiver = world.endpoint(Address::new(1, 0));

    // Post a receive, then abandon it: the posted slot must be retired,
    // not left to swallow the next message into an unreadable handle.
    let abandoned = receiver.irecv(RecvSpec::tag(5));
    drop(abandoned);
    assert_eq!(receiver.outstanding_recvs(), 0, "[{backend:?}] not retired");

    sender.isend(
        Address::new(1, 0),
        5,
        0,
        kind::DATA,
        Bytes::from_static(b"for the living"),
    );
    let live = receiver.irecv(RecvSpec::tag(5));
    live.msgwait();
    let (info, body) = live.take().expect("completed receive has a message");
    assert_eq!(&body[..], b"for the living");
    assert_eq!(info.src, Address::new(0, 0));
    assert_eq!(
        receiver.stats().snapshot().posted_retired,
        1,
        "[{backend:?}] exactly one retirement"
    );
});

// ---------------------------------------------------------------------
// Cross-backend oracle: the matching engine can't tell them apart.
// ---------------------------------------------------------------------

/// Run one deterministic workload and return the endpoint-stat totals
/// that must be transport-invariant (completion-order-dependent
/// counters like msgtests are excluded: polling counts legitimately
/// vary with wall-clock timing, matching outcomes must not).
fn workload_totals(backend: Backend) -> (u64, u64, u64) {
    const N: u32 = 64;
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(backend.config())
        .build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        for i in 0..N {
            node.send(peer, 3, &i.to_le_bytes()).unwrap();
            node.recv_tag(3).unwrap();
        }
    });
    let t = cluster.world().total_stats();
    (t.sends, t.bytes_sent, t.bytes_received)
}

#[cfg(target_os = "linux")]
#[test]
fn backends_agree_with_the_inprocess_oracle() {
    assert_eq!(
        workload_totals(Backend::InProcess),
        workload_totals(Backend::TcpEventLoopback),
        "endpoint-level statistics must be transport-invariant"
    );
}

/// The socket backend must actually have used sockets (and the
/// in-process backend must not have): reliability means no frame may be
/// lost. With coalescing and partial-write resume in the path, "every
/// frame handed to the kernel arrives exactly once" is the property
/// most worth holding.
#[cfg(target_os = "linux")]
#[test]
fn tcp_event_loopback_frames_are_conserved() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(TransportConfig::tcp_event_loopback())
        .build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        for i in 0u32..32 {
            node.send(peer, 2, &i.to_le_bytes()).unwrap();
        }
        for _ in 0..32 {
            node.recv_tag(2).unwrap();
        }
    });
    let t = cluster.world().transport_stats();
    assert_eq!(cluster.world().transport_name(), "tcp-event");
    assert!(t.frames_sent > 0, "nothing crossed the socket: {t:?}");
    assert_eq!(t.frames_sent, t.frames_received, "tcp-event lost frames: {t:?}");
    assert_eq!(t.send_failures, 0, "send failures on loopback: {t:?}");
    assert_eq!(t.malformed_frames, 0, "codec rejected own frames: {t:?}");
    assert_eq!(t.frame_bytes_sent, t.frame_bytes_received, "byte drift: {t:?}");
    assert!(t.connects > 0 && t.accepts > 0, "no connections: {t:?}");
    // Frames must be encoding into capacity their peer's send buffer
    // already has by the time dozens have crossed one connection.
    assert!(
        t.pool_hits > 0,
        "every send grew its peer's send buffer: {t:?}"
    );

    let inproc = ChantCluster::builder().pes(2).build();
    inproc.run(|_node| {});
    let s = inproc.world().transport_stats();
    assert_eq!(inproc.world().transport_name(), "inproc");
    assert_eq!(
        (s.connects, s.accepts, s.reconnects, s.malformed_frames),
        (0, 0, 0, 0),
        "in-process backend touched sockets: {s:?}"
    );
}

/// A socket world must wind down cleanly: shutdown is idempotent, the
/// lanes join (no leak accumulating across worlds), and every fd —
/// sockets, the transport's epoll set, each lane's epoll set and
/// eventfd — is returned. Runs the whole lifecycle repeatedly and
/// compares `/proc/self/fd` populations.
#[cfg(target_os = "linux")]
#[test]
fn tcp_event_worlds_release_their_fds_and_threads() {
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd").unwrap().count()
    }
    let run_once = || {
        let cluster = ChantCluster::builder()
            .pes(2)
            .transport(TransportConfig::tcp_event_loopback())
            .build();
        cluster.run(|node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            node.send(peer, 4, b"lifecycle").unwrap();
            node.recv_tag(4).unwrap();
        });
        drop(cluster);
    };
    // First run warms lazily-allocated process state (TLS, stdio).
    run_once();
    let baseline = open_fds();
    for _ in 0..3 {
        run_once();
    }
    // `/proc/self/fd` is process-wide, so concurrently-running tests
    // (the harness threads them) can hold sockets of their own at any
    // instant — re-sample briefly before calling a surplus a leak.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    let mut after = open_fds();
    while after > baseline && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= baseline,
        "fd leak across tcp-event worlds: {baseline} before, {after} after"
    );
}

// ---------------------------------------------------------------------
// Self-sends: delivered in place, never a transport frame.
// ---------------------------------------------------------------------

// Plain self `isend`s interleaved with `isend_many` calls that name self
// (twice) and the other PE: the self link stays FIFO, every message
// arrives exactly once, and only the sends to the other endpoint become
// transport frames. A self-send is in the matching tables by the time
// `isend` returns, on every backend.
for_each_transport!(self_sends_are_delivered_in_place, |backend: Backend| {
    const ROUNDS: u32 = 64;
    const TAG: i32 = 3;
    let world = CommWorld::with_transport(2, 1, backend.config());
    let (me, peer) = (Address::new(0, 0), Address::new(1, 0));
    let (ep, far) = (world.endpoint(me), world.endpoint(peer));
    let body = |seq: u32| Bytes::copy_from_slice(&seq.to_le_bytes());
    let seq_of = |b: &Bytes| u32::from_le_bytes(b[..4].try_into().unwrap());
    let frames_before = world.transport_stats().frames_sent;
    for round in 0..ROUNDS {
        ep.isend(me, TAG, 0, kind::DATA, body(2 * round));
        let sent = ep.isend_many(&[me, peer, me], TAG, 0, kind::DATA, body(2 * round + 1));
        assert_eq!(sent, 2, "[{backend:?}] duplicate self destination not deduplicated");
        assert_eq!(
            ep.unexpected_len(),
            2 * (round as usize + 1),
            "[{backend:?}] a self-send was not delivered before isend returned"
        );
    }
    for want in 0..2 * ROUNDS {
        let (h, got) = ep.crecv(RecvSpec::tag(TAG).from(me));
        assert_eq!((h.src, h.dst), (me, me));
        assert_eq!(seq_of(&got), want, "[{backend:?}] self link reordered");
    }
    for round in 0..ROUNDS {
        let (_, got) = far.crecv(RecvSpec::tag(TAG).from(me));
        assert_eq!(seq_of(&got), 2 * round + 1, "[{backend:?}] link 0 -> 1 reordered");
    }
    assert_eq!(ep.unexpected_len(), 0, "[{backend:?}] a self-send arrived twice");
    assert_eq!(far.unexpected_len(), 0, "[{backend:?}] a multicast arrived twice");
    let t = world.transport_stats();
    assert_eq!(
        t.frames_sent - frames_before,
        u64::from(ROUNDS),
        "[{backend:?}] only the sends to PE 1 may be frames: {t:?}"
    );
    world.shutdown();
});

/// The multi-process shape in one process: rank 0 of a two-rank peer
/// list whose rank-1 address has no listener. Talking to itself — a
/// p2p exchange and an RSR call to its own address — needs no
/// connection at all, so nothing is dialed (rank 0's own listener
/// included) and nothing fails. The first frame to leave is the
/// termination barrier's SHUTDOWN to the absent rank, which finds no
/// listener.
#[cfg(target_os = "linux")]
#[test]
fn a_rank_talking_to_itself_never_dials() {
    use chant::chant::ranges::tags::DONE;
    use chant::chant::{TcpOptions, TransportStatsSnapshot};

    const FN_ECHO: u32 = 1000;
    // Two distinct ports nobody listens on: rank 0 binds the first, the
    // second stays dead.
    let peers: Vec<String> = {
        let held: Vec<_> = (0..2)
            .map(|_| std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        held.iter().map(|l| l.local_addr().unwrap().to_string()).collect()
    };
    let opts = TcpOptions {
        rank: Some(0),
        peers,
        connect_attempts: 2,
        connect_backoff_ms: 1,
    };
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(TransportConfig::TcpEvent(opts))
        // Bounds the self call: a lost message fails the test, not hangs it.
        .rsr_retry(RetryPolicy {
            max_attempts: 3,
            base_timeout: Duration::from_millis(200),
            max_timeout: Duration::from_millis(400),
            liveness_ping: Duration::from_millis(500),
        })
        .rsr_handler(FN_ECHO, |_node, req| Ok(req.args.clone()))
        .build();
    assert_eq!(cluster.world().hosted_pes(), 0..1);
    let seen: Arc<Mutex<Option<Result<TransportStatsSnapshot, String>>>> = Arc::default();
    let seen2 = Arc::clone(&seen);
    let report = cluster.run(move |node| {
        let me = node.self_id();
        // No panics before the stand-in DONE below: a main that
        // panics here would leave the barrier waiting for rank 1.
        let outcome = (|| {
            node.send(me, 4, b"to myself").map_err(|e| format!("send: {e:?}"))?;
            let (_info, got) = node
                .recv_timeout(RecvSrc::Any, Some(4), Duration::from_secs(5))
                .map_err(|e| format!("self p2p: {e:?}"))?;
            let reply = node
                .rsr_call(node.address(), FN_ECHO, b"echo")
                .map_err(|e| format!("self rsr_call: {e:?}"))?;
            if (&got[..], &reply[..]) != (&b"to myself"[..], &b"echo"[..]) {
                return Err(format!("wrong bodies: {got:?}, {reply:?}"));
            }
            Ok(node.world().transport_stats())
        })();
        *seen2.lock().unwrap() = Some(outcome);
        // Stand in for the absent rank's DONE, so the termination
        // barrier (and this test) can finish.
        node.send(me, DONE, b"").unwrap();
    });
    let t = seen.lock().unwrap().take().expect("main ran").unwrap();
    assert_eq!((t.connects, t.send_failures), (0, 0), "a lone rank dialed: {t:?}");
    assert_eq!(t.frames_sent, 0, "a self-send became a frame: {t:?}");
    assert!(
        report.transport.send_failures >= 1,
        "the SHUTDOWN to rank 1 found a listener, so the test proves nothing: {:?}",
        report.transport
    );
}

// ---------------------------------------------------------------------
// Transport counters: monotone, and reported at full fidelity.
// ---------------------------------------------------------------------

/// Elementwise `a <= b` over every `TransportStatsSnapshot` counter —
/// the invariant live telemetry depends on to turn absolute snapshots
/// into per-tick delta rates with `saturating_sub`.
fn stats_leq(
    a: &chant::comm::TransportStatsSnapshot,
    b: &chant::comm::TransportStatsSnapshot,
) -> bool {
    a.frames_sent <= b.frames_sent
        && a.frames_received <= b.frames_received
        && a.frame_bytes_sent <= b.frame_bytes_sent
        && a.frame_bytes_received <= b.frame_bytes_received
        && a.connects <= b.connects
        && a.accepts <= b.accepts
        && a.reconnects <= b.reconnects
        && a.send_failures <= b.send_failures
        && a.malformed_frames <= b.malformed_frames
        && a.misrouted <= b.misrouted
        && a.coalesced_writes <= b.coalesced_writes
        && a.coalesced_frames <= b.coalesced_frames
        && a.partial_writes <= b.partial_writes
        && a.wakeups <= b.wakeups
        && a.pool_hits <= b.pool_hits
        && a.pool_misses <= b.pool_misses
}

for_each_transport!(transport_stats_deltas_are_monotone, |backend: Backend| {
    use std::sync::Mutex;

    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(backend.config())
        .build();
    let world = cluster.world().clone();
    let before = world.transport_stats();
    let mids = Arc::new(Mutex::new(Vec::new()));
    let mids2 = Arc::clone(&mids);
    let world2 = world.clone();
    let report = cluster.run(move |node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        for i in 0u32..48 {
            node.send(peer, 6, &i.to_le_bytes()).unwrap();
        }
        // Mid-run snapshot from each node's thread, concurrent with the
        // peer's traffic: must still sit between `before` and the final
        // report, because counters only ever increase.
        mids2.lock().unwrap().push(world2.transport_stats());
        for _ in 0..48 {
            node.recv_tag(6).unwrap();
        }
    });
    let after = world.transport_stats();
    for (i, mid) in mids.lock().unwrap().iter().enumerate() {
        assert!(
            stats_leq(&before, mid),
            "[{backend:?}] counter went backwards before->mid[{i}]: {before:?} vs {mid:?}"
        );
        assert!(
            stats_leq(mid, &report.transport),
            "[{backend:?}] counter went backwards mid[{i}]->report: {mid:?} vs {:?}",
            report.transport
        );
    }
    assert!(
        stats_leq(&report.transport, &after),
        "[{backend:?}] counter went backwards report->after: {:?} vs {after:?}",
        report.transport
    );
    // The report must carry the socket backend's counters at full
    // fidelity.
    if backend != Backend::InProcess {
        let t = &report.transport;
        assert!(t.frames_sent > 0 && t.frames_received > 0, "[{backend:?}] {t:?}");
        assert!(t.connects > 0 && t.accepts > 0, "[{backend:?}] {t:?}");
        assert!(
            t.pool_hits + t.pool_misses > 0,
            "[{backend:?}] send-buffer hits and misses unreported: {t:?}"
        );
    }
});

// ---------------------------------------------------------------------
// One-sided memory: exactly-once atomics under duplication + reordering.
// ---------------------------------------------------------------------

for_each_transport!(rma_exactly_once_atomics_under_dup_and_reorder, |backend: Backend| {
    use chant::rma::{with_rma, RmaNode};
    use chant::ult::SpawnAttr;

    const SEG: u32 = 11;
    const CLIENTS_PER_NODE: u32 = 2;
    const ADDS_PER_CLIENT: u64 = 10; // alternating targets: 5 per PE

    let cluster = with_rma(
        ChantCluster::builder()
            .pes(2)
            .transport(backend.config())
            .faults(FaultConfig::new(fault_seed(7)).dup_p(0.35).reorder_p(0.35))
            .rsr_retry(RetryPolicy {
                max_attempts: 6,
                base_timeout: Duration::from_millis(25),
                max_timeout: Duration::from_millis(200),
                liveness_ping: Duration::from_millis(500),
            }),
    )
    .build();
    cluster.run(|node| {
        node.rma_register(SEG, 8);
        crate::common::main_group(node, 1);
        // Clients on both nodes hammer both segments: a fetch_add is
        // non-idempotent, so a re-executed duplicate (or a lost op) is
        // visible in the final sums.
        for c in 0..CLIENTS_PER_NODE {
            node.spawn(SpawnAttr::new(), move |n| {
                for i in 0..ADDS_PER_CLIENT {
                    let target = Address::new(((u64::from(c) + i) % 2) as u32, 0);
                    n.rma_fetch_add(target, SEG, 0, 1)
                        .expect("counted add must eventually succeed");
                }
            });
        }
    });

    // Each segment received exactly half of every client's adds.
    let per_node = u64::from(2 * CLIENTS_PER_NODE) * ADDS_PER_CLIENT / 2;
    let mut total = 0;
    for pe in 0..2 {
        let got = cluster
            .node(pe, 0)
            .rma_segment(SEG)
            .unwrap()
            .load(0)
            .unwrap();
        assert_eq!(
            got, per_node,
            "[{backend:?}] PE {pe}: a duplicated fetch_add re-executed (or an add was lost)"
        );
        total += got;
    }
    assert_eq!(total, u64::from(2 * CLIENTS_PER_NODE) * ADDS_PER_CLIENT);
});

// ---------------------------------------------------------------------
// Waiting sleeps: a blocked receive is tested when something arrives,
// not in a loop.
// ---------------------------------------------------------------------

// Under the scheduler-polls policies a node with nothing runnable parks
// until an arrival (or a deadline) wakes it, so a remote round trip
// costs a handful of `msgtest`s — the eager test, one sweep when the
// request lands, one when the reply does — on every backend alike. (TP
// is left out on purpose: its waiter re-tests every time it is
// scheduled, which is the policy, paper Figure 5.)
for_each_transport!(remote_pings_cost_a_bounded_number_of_msgtests, |backend: Backend| {
    const PINGS: u64 = 1000;
    let budget = 20.0;
    for policy in [PollingPolicy::SchedulerPollsWq, PollingPolicy::SchedulerPollsPs] {
        let cluster = ChantCluster::builder()
            .pes(2)
            .policy(policy)
            .transport(backend.config())
            .build();
        let report = cluster.run(|node| {
            if node.pe() == 0 {
                for _ in 0..PINGS {
                    node.ping(Address::new(1, 0), b"").unwrap();
                }
            }
        });
        let per_rtt = report.counter("comm.msgtests") as f64 / PINGS as f64;
        assert!(
            per_rtt <= budget,
            "[{backend:?}/{policy:?}] {per_rtt:.1} msgtests per remote round trip \
             ({} in all, budget {budget}): blocked receives are being polled, not woken",
            report.counter("comm.msgtests")
        );
    }
});

// ---------------------------------------------------------------------
// Several processes per PE: one PE's transport, two lanes.
// ---------------------------------------------------------------------

// A ring over two PEs with two processes each. On the socket backend
// the two nodes of a PE are two lanes driving that PE's one transport,
// and the hop between them goes through its own listener.
for_each_transport!(multi_process_per_pe_cluster, |backend: Backend| {
    let cluster = ChantCluster::builder()
        .pes(2)
        .procs_per_pe(2)
        .server(false)
        .transport(backend.config())
        .build();
    let count = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&count);
    cluster.run(move |node| {
        // Ring: each node sends to the next rank, receives from the previous.
        let ranks = 4u32;
        let my_rank = node.pe() * 2 + node.process();
        let next = (my_rank + 1) % ranks;
        let me = node.self_id();
        let dst = ChanterId::new(next / 2, next % 2, me.thread);
        node.send(dst, 30, &my_rank.to_le_bytes()).unwrap();
        let (_, body) = node.recv_tag(30).unwrap();
        let from = u32::from_le_bytes(body[..4].try_into().unwrap());
        assert_eq!(from, (my_rank + ranks - 1) % ranks);
        c2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(count.load(Ordering::Relaxed), 4);
});

// ---------------------------------------------------------------------
// No transport thread: the lanes read the sockets.
// ---------------------------------------------------------------------

// A lane that never sleeps still reads: it takes a reactor turn at a
// schedule point every 50 µs. One ULT on PE 0 yields until another, on
// the same lane, has made its RSR round trips (or the window closes);
// PE 1's lane, which runs its server, is kept busy too, so neither PE
// has an idle lane to read its sockets.
// Without the schedule-point turn nothing reads until the yielders give
// up, so the trips end after the window.
for_each_transport!(a_busy_lane_still_receives, |backend: Backend| {
    // 100 trips take a few ms on an idle host; the window is wide so
    // that a loaded one cannot fail a working turn.
    const WINDOW: Duration = Duration::from_secs(2);
    const TRIPS: u32 = 100;
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(backend.config())
        .build();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    cluster.run(move |node| {
        crate::common::main_group(node, 1);
        let until = Instant::now() + WINDOW;
        let busy = Arc::clone(&done);
        node.spawn(SpawnAttr::new(), move |n| {
            while !busy.load(Ordering::SeqCst) && Instant::now() < until {
                n.yield_now();
            }
        });
        if node.pe() == 0 {
            let done = Arc::clone(&done);
            node.spawn(SpawnAttr::new(), move |n| {
                for _ in 0..TRIPS {
                    n.ping(Address::new(1, 0), b"").unwrap();
                }
                let now = Instant::now();
                done.store(true, Ordering::SeqCst);
                assert!(
                    now < until,
                    "[{backend:?}] {TRIPS} round trips ended {:?} after a {WINDOW:?} busy window",
                    now - until
                );
            });
        }
    });
});

/// A lane that sleeps does not wait for one that is busy: PE 0 spins
/// without a schedule point while PEs 1 and 2 ping-pong over the same
/// sockets, read by their own lanes.
#[cfg(target_os = "linux")]
#[test]
fn a_parked_lane_does_not_wait_for_a_busy_one() {
    const SPIN: Duration = Duration::from_millis(200);
    const ROUNDS: u32 = 100;
    let cluster = ChantCluster::builder()
        .pes(3)
        .transport(TransportConfig::tcp_event_loopback())
        .build();
    let (spin_end, rally_end) = (Arc::new(Mutex::new(None)), Arc::new(Mutex::new(None)));
    let (spun, rallied) = (Arc::clone(&spin_end), Arc::clone(&rally_end));
    cluster.run(move |node| {
        let me = node.self_id();
        match me.pe {
            0 => {
                let end = Instant::now() + SPIN;
                while Instant::now() < end {
                    std::hint::spin_loop();
                }
                *spun.lock().unwrap() = Some(Instant::now());
            }
            pe => {
                let peer = ChanterId::new(3 - pe, 0, me.thread);
                for i in 0..ROUNDS {
                    if pe == 1 {
                        node.send(peer, 5, &i.to_le_bytes()).unwrap();
                        node.recv_tag(5).unwrap();
                    } else {
                        node.recv_tag(5).unwrap();
                        node.send(peer, 5, &i.to_le_bytes()).unwrap();
                    }
                }
                if pe == 1 {
                    *rallied.lock().unwrap() = Some(Instant::now());
                }
            }
        }
    });
    let (spun, rallied) = (spin_end.lock().unwrap().unwrap(), rally_end.lock().unwrap().unwrap());
    assert!(
        rallied < spun,
        "{ROUNDS} ping-pongs between PEs 1 and 2 waited for PE 0's {SPIN:?} spin to end"
    );
}

/// A thread's send waits for its lane, and the lane writes it before
/// it parks. Here each PE's main is its lane's only thread (no server),
/// so after each send it blocks and the lane parks at once, with no
/// timer armed: a lane that parked without writing would sleep for good.
#[cfg(target_os = "linux")]
#[test]
fn a_lanes_last_runnable_thread_gets_its_reply() {
    const ROUNDS: u32 = 200;
    let (done, finished) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let cluster = ChantCluster::builder()
            .pes(2)
            .server(false)
            .transport(TransportConfig::tcp_event_loopback())
            .build();
        cluster.run(|node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            for i in 0..ROUNDS {
                if me.pe == 0 {
                    node.send(peer, 6, &i.to_le_bytes()).unwrap();
                }
                let (_, got) = node.recv_tag(6).unwrap();
                assert_eq!(got[..], i.to_le_bytes());
                if me.pe == 1 {
                    node.send(peer, 6, &got).unwrap();
                }
            }
        });
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(30))
        .expect("a parked lane sat on the send it was left");
    runner.join().unwrap();
}

/// Two ranks flood each other before either receives. One lane each,
/// so no idle lane reads for them: each sender is held at its queue
/// bound, and the turns it runs there read the other's flood.
#[cfg(target_os = "linux")]
#[test]
fn mutual_flooding_drains_in_order_without_loss() {
    const FRAMES: u32 = 512;
    const BODY: usize = 64 * 1024; // 32 MiB each way
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(TransportConfig::tcp_event_loopback())
        .build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        let mut body = vec![0u8; BODY];
        for seq in 0..FRAMES {
            body[..4].copy_from_slice(&seq.to_le_bytes());
            node.send(peer, 8, &body).unwrap();
        }
        for want in 0..FRAMES {
            let (_info, got) = node.recv_tag(8).unwrap();
            assert_eq!(got.len(), BODY);
            let seq = u32::from_le_bytes(got[..4].try_into().unwrap());
            assert_eq!(seq, want, "link ({} -> {}) reordered", peer.pe, me.pe);
        }
    });
    let t = cluster.world().transport_stats();
    assert_eq!(t.send_failures, 0, "{t:?}");
    assert!(t.backpressure_waits >= 1, "no sender reached the bound: {t:?}");
}

/// A socket cluster adds no OS thread to an in-process one: a lane per
/// node, and nothing else. `/proc/self/task` is process-wide and this
/// binary's tests run side by side, so the count is taken in a child
/// running one test alone.
#[cfg(target_os = "linux")]
#[test]
fn a_socket_cluster_runs_as_many_threads_as_an_inprocess_one() {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--ignored", "--exact", "child_thread_counts", "--test-threads=1", "--nocapture"])
        .output()
        .expect("re-running the test binary");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[cfg(target_os = "linux")]
#[test]
#[ignore = "run alone in a child by a_socket_cluster_runs_as_many_threads_as_an_inprocess_one"]
fn child_thread_counts() {
    let threads = |backend: Backend| {
        let cluster = ChantCluster::builder()
            .pes(2)
            .transport(backend.config())
            .build();
        let seen = Arc::new(AtomicU32::new(0));
        let seen2 = Arc::clone(&seen);
        cluster.run(move |node| {
            // Every node is up (and has talked) before PE 0 counts; a
            // node's extra lanes start beside its first, so PE 0 keeps
            // the highest count it sees for a while.
            let group = crate::common::main_group(node, 1);
            if node.pe() == 0 {
                let until = Instant::now() + Duration::from_millis(50);
                while Instant::now() < until {
                    let n = std::fs::read_dir("/proc/self/task").unwrap().count();
                    seen2.fetch_max(n as u32, Ordering::SeqCst);
                    node.yield_now();
                }
            }
            group.barrier(node).unwrap();
        });
        seen.load(Ordering::SeqCst)
    };
    let inproc = threads(Backend::InProcess);
    assert_eq!(threads(Backend::TcpEventLoopback), inproc);
}
