//! Robustness under injected faults: the fault shim, deadline receives,
//! RSR retry/backoff with duplicate suppression, and the error paths —
//! malformed requests, exhausted retries against a live node, and
//! unreachable nodes.
//!
//! The acceptance-style scenarios here run a real multi-node cluster
//! through a deterministic seeded shim (`CHANT_FAULT_SEED` overrides
//! the seed, so CI can sweep a matrix) and check *exactly-once* effects
//! of non-idempotent remote operations end to end.

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;

use chant::chant::{
    ChantCluster, ChantError, ChanterId, FaultConfig, PollingPolicy, RecvSrc, RetryPolicy,
};
use chant::comm::{kind, Address, CommWorld, RecvSpec, CONTROL_TAG_BASE};
use common::{fault_seed, for_each_transport, Backend};

const FN_ECHO: u32 = 1000;
const FN_COUNT: u32 = 1001;

// ---------------------------------------------------------------------
// Malformed requests: counted and noted, never lost in a panic or a
// stderr line the caller can't see.
// ---------------------------------------------------------------------

/// Garbage bytes on the RSR kind must not kill the server thread: the
/// request is dropped, the `malformed` counter ticks, a note is
/// retained for the operator, and the very next well-formed request is
/// served normally.
#[test]
fn malformed_rsr_is_counted_and_server_survives() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .rsr_handler(FN_ECHO, |_node, req| Ok(req.args.clone()))
        .build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        if me.pe == 0 {
            // Raw garbage straight onto the wire, below the Chant API.
            let ep = node.world().endpoint(me.address());
            ep.isend(
                Address::new(1, 0),
                0,
                0,
                kind::RSR,
                Bytes::from_static(b"not an rsr envelope"),
            );
            // Same link, FIFO: by the time this call returns, the
            // garbage has already been through the server loop.
            let reply = node
                .rsr_call(Address::new(1, 0), FN_ECHO, b"still alive?")
                .expect("server must survive the garbage");
            assert_eq!(&reply[..], b"still alive?");
            node.send(ChanterId::new(1, 0, me.thread), 5, b"check now")
                .unwrap();
        } else {
            node.recv_tag(5).unwrap();
            let stats = node.rsr_stats();
            assert_eq!(stats.malformed, 1, "exactly one malformed request");
            let note = node
                .take_rsr_malformed_note()
                .expect("a note must be retained");
            assert!(note.contains("malformed"), "unhelpful note: {note}");
            assert!(
                node.take_rsr_malformed_note().is_none(),
                "the note is take-once"
            );
        }
    });
    assert_eq!(report.nodes[1].rsr.malformed, 1);
    assert_eq!(report.nodes[0].rsr.malformed, 0);
}

// ---------------------------------------------------------------------
// Deadline receives.
// ---------------------------------------------------------------------

/// `recv_timeout` expires with `ChantError::Timeout` when nothing
/// matches, and a later plain `recv` still gets a message that arrives
/// after the deadline — under every polling policy.
#[test]
fn recv_timeout_expires_then_recv_succeeds_under_all_policies() {
    for policy in [
        PollingPolicy::ThreadPolls,
        PollingPolicy::SchedulerPollsWq,
        PollingPolicy::SchedulerPollsPs,
        PollingPolicy::SchedulerPollsWqTestany,
    ] {
        let cluster = ChantCluster::builder().pes(2).policy(policy).build();
        cluster.run(move |node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            if me.pe == 0 {
                // Nobody sends tag 9 yet: the deadline must fire.
                match node.recv_timeout(RecvSrc::Any, Some(9), Duration::from_millis(30)) {
                    Err(ChantError::Timeout) => {}
                    other => panic!("[{policy:?}] expected Timeout, got {other:?}"),
                }
                // Only now allow the peer to send it.
                node.send(peer, 1, b"go").unwrap();
                let (_info, body) = node.recv_tag(9).expect("late message still arrives");
                assert_eq!(&body[..], b"after the deadline");
            } else {
                node.recv_tag(1).unwrap();
                node.send(peer, 9, b"after the deadline").unwrap();
            }
        });
    }
}

// ---------------------------------------------------------------------
// Exactly-once under duplication + reordering (no losses): the dedup
// window must suppress every duplicate the shim manufactures, under
// every polling policy. Property-tested over shim seeds.
// ---------------------------------------------------------------------

fn exactly_once_under_dup_and_reorder(seed: u64, policy: PollingPolicy) {
    const OPS: usize = 16;
    let seen: Arc<Vec<AtomicU32>> = Arc::new((0..OPS).map(|_| AtomicU32::new(0)).collect());
    let s2 = Arc::clone(&seen);
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(policy)
        .faults(
            FaultConfig::new(seed)
                .dup_p(0.35)
                .reorder_p(0.35),
        )
        .rsr_handler(FN_COUNT, move |_node, req| {
            // Deliberately non-idempotent: a duplicate that slips
            // through shows up as a count of 2.
            let i = u32::from_le_bytes(req.args[..4].try_into().unwrap()) as usize;
            s2[i].fetch_add(1, Ordering::SeqCst);
            Ok(req.args.clone())
        })
        .build();
    let report = cluster.run(|node| {
        if node.self_id().pe != 0 {
            return;
        }
        for i in 0..OPS as u32 {
            let reply = node
                .rsr_call(Address::new(1, 0), FN_COUNT, &i.to_le_bytes())
                .expect("no drops are configured, so every call completes");
            assert_eq!(u32::from_le_bytes(reply[..4].try_into().unwrap()), i);
        }
    });
    for (i, slot) in seen.iter().enumerate() {
        assert_eq!(
            slot.load(Ordering::SeqCst),
            1,
            "op {i} must run exactly once (seed {seed}, {policy:?})"
        );
    }
    let faults = report.faults.expect("shim was installed");
    assert!(faults.passed > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Duplicated and reordered (but never dropped) requests reach the
    /// handler exactly once each, whatever the seed and policy.
    #[test]
    fn dup_and_reorder_never_double_deliver(seed in 1u64..1_000_000, policy_idx in 0usize..3) {
        let policy = [
            PollingPolicy::ThreadPolls,
            PollingPolicy::SchedulerPollsWq,
            PollingPolicy::SchedulerPollsPs,
        ][policy_idx];
        exactly_once_under_dup_and_reorder(seed, policy);
    }
}

// ---------------------------------------------------------------------
// Self-links are faulted like every other link: the shim sits above the
// hop that delivers a message to self in place.
// ---------------------------------------------------------------------

// One DATA and one control-tag self-send per world. `drop_p = 1` drops
// the first (counted by the shim), `dup_p = 1` delivers it twice (the
// copy from the shim's deliverer); the control tag passes both
// untouched. None of it is a transport frame.
for_each_transport!(self_sends_meet_the_fault_shim, |backend: Backend| {
    let me = Address::new(0, 0);
    let control = CONTROL_TAG_BASE + 1;
    let faulted = |config: FaultConfig| {
        let world = CommWorld::with_config(2, 1, Some(config), backend.config());
        let ep = world.endpoint(me);
        ep.isend(me, 5, 0, kind::DATA, Bytes::from_static(b"data"));
        ep.isend(me, control, 0, kind::DATA, Bytes::from_static(b"control"));
        (world, ep)
    };

    let (world, ep) = faulted(FaultConfig::new(fault_seed(42)).drop_p(1.0));
    let f = world.fault_stats().expect("shim installed");
    assert_eq!((f.dropped, f.passed), (1, 1), "[{backend:?}] {f:?}");
    assert!(!ep.iprobe(RecvSpec::tag(5)), "[{backend:?}] a dropped self-send arrived");
    assert!(ep.iprobe(RecvSpec::tag(control)), "[{backend:?}] the control tag was faulted");
    assert_eq!(world.transport_stats().frames_sent, 0, "[{backend:?}]");
    world.shutdown();

    let (world, ep) = faulted(FaultConfig::new(fault_seed(42)).dup_p(1.0));
    ep.crecv(RecvSpec::tag(5));
    ep.crecv(RecvSpec::tag(5)); // the held copy, due within `dup_delay_ns`
    let f = world.fault_stats().expect("shim installed");
    assert_eq!((f.duplicated, f.passed), (1, 1), "[{backend:?}] {f:?}");
    // A stray control copy would be due within 0.5 ms; give it 40×.
    std::thread::sleep(Duration::from_millis(20));
    ep.crecv(RecvSpec::tag(control));
    assert_eq!(ep.unexpected_len(), 0, "[{backend:?}] the control tag was duplicated");
    assert_eq!(world.transport_stats().frames_sent, 0, "[{backend:?}]");
    world.shutdown();
});

// Every request and every reply of a self `rsr_call` delivered twice:
// the dedup window still runs the handler exactly once per call.
for_each_transport!(self_rsr_is_exactly_once_when_every_message_is_duplicated, |backend: Backend| {
    const OPS: usize = 16;
    let seen: Arc<Vec<AtomicU32>> = Arc::new((0..OPS).map(|_| AtomicU32::new(0)).collect());
    let s2 = Arc::clone(&seen);
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(backend.config())
        .faults(FaultConfig::new(fault_seed(42)).dup_p(1.0))
        .rsr_retry(RetryPolicy {
            max_attempts: 6,
            base_timeout: Duration::from_millis(25),
            max_timeout: Duration::from_millis(200),
            liveness_ping: Duration::from_millis(500),
        })
        .rsr_handler(FN_COUNT, move |_node, req| {
            let i = u32::from_le_bytes(req.args[..4].try_into().unwrap()) as usize;
            s2[i].fetch_add(1, Ordering::SeqCst);
            Ok(req.args.clone())
        })
        .build();
    let report = cluster.run(|node| {
        if node.pe() != 0 {
            return;
        }
        for i in 0..OPS as u32 {
            let reply = node
                .rsr_call(node.address(), FN_COUNT, &i.to_le_bytes())
                .expect("no drops are configured, so every call completes");
            assert_eq!(u32::from_le_bytes(reply[..4].try_into().unwrap()), i);
        }
        // Each request's copy is due within `dup_delay_ns`: let the
        // server meet every one before the run ends.
        let suppressed = || {
            let r = node.rsr_stats();
            r.dup_dropped + r.dup_replayed
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while suppressed() < OPS as u64 && Instant::now() < deadline {
            let _ = node.recv_timeout(RecvSrc::Any, Some(9999), Duration::from_millis(1));
        }
    });
    for (i, slot) in seen.iter().enumerate() {
        let runs = slot.load(Ordering::SeqCst);
        assert_eq!(runs, 1, "[{backend:?}] self op {i} ran {runs} times");
    }
    let faults = report.faults.expect("shim was installed");
    assert!(faults.duplicated >= 2 * OPS as u64, "[{backend:?}] {faults:?}");
    let rsr = &report.nodes[0].rsr;
    assert!(
        rsr.dup_dropped + rsr.dup_replayed >= OPS as u64,
        "[{backend:?}] the duplicated requests never reached the server: {rsr:?}"
    );
});

// ---------------------------------------------------------------------
// The acceptance scenario: a 4-node RPC workload over a 1% lossy,
// 1% duplicating network completes with zero lost and zero
// doubly-applied operations, with the retries visible in the report.
// ---------------------------------------------------------------------

#[test]
fn lossy_four_node_rpc_is_exactly_once() {
    const PES: u32 = 4;
    const OPS_PER_NODE: u32 = 250;
    let total = (PES * OPS_PER_NODE) as usize;
    let seen: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| AtomicU32::new(0)).collect());
    let s2 = Arc::clone(&seen);
    let cluster = ChantCluster::builder()
        .pes(PES)
        .policy(PollingPolicy::SchedulerPollsPs)
        .faults(FaultConfig::new(fault_seed(42)).drop_p(0.01).dup_p(0.01))
        .rsr_retry(RetryPolicy {
            max_attempts: 6,
            base_timeout: Duration::from_millis(25),
            max_timeout: Duration::from_millis(200),
            liveness_ping: Duration::from_millis(500),
        })
        .rsr_handler(FN_COUNT, move |_node, req| {
            let i = u32::from_le_bytes(req.args[..4].try_into().unwrap()) as usize;
            s2[i].fetch_add(1, Ordering::SeqCst);
            Ok(req.args.clone())
        })
        .build();
    let report = cluster.run(|node| {
        let pe = node.self_id().pe;
        let dst = Address::new((pe + 1) % PES, 0);
        for k in 0..OPS_PER_NODE {
            let op = pe * OPS_PER_NODE + k;
            let reply = node
                .rsr_call(dst, FN_COUNT, &op.to_le_bytes())
                .expect("retry must push every op through 1% loss");
            assert_eq!(u32::from_le_bytes(reply[..4].try_into().unwrap()), op);
        }
    });

    let lost: Vec<usize> = seen
        .iter()
        .enumerate()
        .filter(|(_, s)| s.load(Ordering::SeqCst) == 0)
        .map(|(i, _)| i)
        .collect();
    let doubled: Vec<usize> = seen
        .iter()
        .enumerate()
        .filter(|(_, s)| s.load(Ordering::SeqCst) > 1)
        .map(|(i, _)| i)
        .collect();
    assert!(lost.is_empty(), "lost ops: {lost:?}");
    assert!(
        doubled.is_empty(),
        "doubly-applied ops: {doubled:?} (rsr.below_window = {}: requests run as new \
         below a full dedup window)",
        report.counter("rsr.below_window")
    );

    let faults = report.faults.expect("shim was installed");
    assert!(
        faults.dropped > 0,
        "a 1% drop rate over ~{total} round trips must drop something"
    );
    assert!(
        report.counter("rsr.retries") > 0,
        "drops happened, so retries must have happened"
    );
}

// ---------------------------------------------------------------------
// Exhausted retries: Timeout against a live node, NodeUnreachable
// against a dead one.
// ---------------------------------------------------------------------

/// A JOIN on a thread that never exits keeps the server's reply
/// deferred; the client's retries are suppressed as duplicates and the
/// op times out — but the node is alive (it answers the liveness PING),
/// so the error is `Timeout`, not `NodeUnreachable`.
#[test]
fn deferred_join_times_out_against_a_live_node() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("runaway", |node, _| loop {
            node.yield_now();
        })
        .rsr_retry(RetryPolicy {
            max_attempts: 2,
            base_timeout: Duration::from_millis(20),
            max_timeout: Duration::from_millis(40),
            liveness_ping: Duration::from_millis(500),
        })
        .build();
    let report = cluster.run(|node| {
        if node.self_id().pe != 0 {
            return;
        }
        let id = node
            .remote_spawn(Address::new(1, 0), "runaway", b"")
            .unwrap();
        match node.remote_join(id) {
            Err(ChantError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The runaway must still be cancellable afterwards: the server
        // was never wedged, only the join was deferred.
        node.remote_cancel(id).unwrap();
    });
    assert_eq!(report.nodes[0].rsr.timeouts, 1);
    assert_eq!(report.nodes[0].rsr.unreachable, 0);
    // The retried JOIN was recognized as a duplicate of the deferred one.
    assert!(report.nodes[1].rsr.dup_dropped > 0);
}

/// With no server thread at the destination, nothing answers — not even
/// the liveness PING — so retries exhaust into `NodeUnreachable`.
#[test]
fn dead_node_reports_unreachable() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .server(false)
        .rsr_retry(RetryPolicy {
            max_attempts: 2,
            base_timeout: Duration::from_millis(10),
            max_timeout: Duration::from_millis(20),
            liveness_ping: Duration::from_millis(30),
        })
        .build();
    let report = cluster.run(|node| {
        if node.self_id().pe != 0 {
            return;
        }
        match node.rsr_call(Address::new(1, 0), FN_ECHO, b"anyone home?") {
            Err(ChantError::NodeUnreachable(id)) => assert_eq!(id.pe, 1),
            other => panic!("expected NodeUnreachable, got {other:?}"),
        }
    });
    assert_eq!(report.nodes[0].rsr.unreachable, 1);
}
