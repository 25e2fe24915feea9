//! chant-kv conformance and chaos battery: the backend × policy × seed
//! matrix over the replicated sharded KV service.
//!
//! Each scenario expands through `for_each_transport!` so all three
//! backends (in-process oracle, tcp, tcp-event) carry real KV traffic;
//! the scenarios sweep the three polling policies and, for the chaos
//! and recovery runs, the standard seed trio (`CHANT_TEST_SEED` pins
//! one). Covered:
//!
//! * put / get / delete / add semantics, cross-node visibility, bulk
//!   (RMA-staged) values, oversized-value rejection, and primary/backup
//!   digest parity after a replication drain;
//! * chaos: 1% drop + 1% dup on every link — mutations stay
//!   exactly-once (counter sums prove no replayed add), per-key reads
//!   are linearizable (the last acked write is what every node reads),
//!   and each node's primary-shard version sum lands exactly on the
//!   locally computed acked-mutation count;
//! * recovery: one node's state is wiped mid-run and re-seeded from the
//!   surviving replicas; version sums, replica digests, and counter
//!   values must come back exactly, and the node must take writes again;
//! * lease expiry: with renewal off the primary loses its read lease on
//!   schedule, reads surface `NoLease`, and a manual renewal restores
//!   local serving;
//! * mechanism: a get, put or add served by the caller's own node sends
//!   no message of its own (a get no transport frame either), a read
//!   served by the other node sends two frames;
//! * liveness: a thread looping on ops its own node serves in place
//!   (which never block) still lets its lane run — the sibling that
//!   writes the key it polls, the daemon that renews its read lease.
//!
//! The faulted scenarios never use collective barriers or plain sends:
//! those ride unretried data tags, so a single dropped frame would
//! wedge the run. Rendezvous instead goes through the KV itself — an
//! exactly-once `add` on a fence key plus read-only polling — which is
//! also a nice proof that the service is usable as a coordination
//! substrate on a lossy network.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use chant::chant::{
    ChantCluster, ChantError, ChantNode, ChanterId, FaultConfig, PollingPolicy, RecvSrc,
    RetryPolicy,
};
use chant::kv::{
    kv_await_ready, kv_digest_local, kv_drain, kv_owners, kv_remote_digest, kv_renew_lease,
    kv_shard_of, kv_stats, kv_version_sum, kv_wipe, with_kv_config, KvClient, KvConfig, KvRead,
};
use chant::ult::SpawnAttr;
use common::{for_each_transport, main_group, seeds, Backend};

const POLICIES: [PollingPolicy; 3] = [
    PollingPolicy::ThreadPolls,
    PollingPolicy::SchedulerPollsWq,
    PollingPolicy::SchedulerPollsPs,
];

/// Generous per-op deadline: a hang fails loudly instead of wedging
/// the whole binary.
const PATIENCE: Duration = Duration::from_secs(30);

/// Test-scale service config: few shards (so parity sweeps are cheap),
/// a tiny inline threshold (so ordinary values exercise the RMA bulk
/// path), and fast daemon timers.
fn fast() -> KvConfig {
    KvConfig {
        shards: 16,
        vnodes: 32,
        inline_max: 64,
        slot_bytes: 8 * 1024,
        snap_slot_bytes: 64 * 1024,
        tick: Duration::from_millis(2),
        daemon_op_timeout: Duration::from_millis(500),
        suspect_for: Duration::from_millis(100),
        ..KvConfig::default()
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
fn park(node: &Arc<ChantNode>, d: Duration) {
    match node.recv_timeout(RecvSrc::Any, Some(9999), d) {
        Err(ChantError::Timeout) => {}
        other => panic!("parked receive must time out, got {other:?}"),
    }
}

fn le(v: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = v.len().min(8);
    b[..n].copy_from_slice(&v[..n]);
    u64::from_le_bytes(b)
}

/// Fault-tolerant all-PEs rendezvous over the KV itself: every PE adds
/// 1 to the fence key (exactly-once, retried under faults), then polls
/// read-only until all PEs have checked in. When this returns, every
/// mutation any PE issued before its own check-in is acked cluster-wide.
fn fence(node: &Arc<ChantNode>, c: &mut KvClient, name: &str) {
    let pes = u64::from(node.world().pes());
    let (_, total) = c.add(name.as_bytes(), 1).unwrap();
    if total >= pes {
        return;
    }
    let deadline = Instant::now() + PATIENCE;
    loop {
        if let Some((_, v)) = c.get(name.as_bytes()).unwrap() {
            if le(&v) >= pes {
                return;
            }
        }
        assert!(Instant::now() < deadline, "fence {name} timed out");
        park(node, Duration::from_millis(5));
    }
}

/// The version sum this node's primaries must show once every mutation
/// in `ops` (key → mutation count) is acked: exactly-once application
/// bumps the owning shard's version once per acked mutation, no more.
fn expected_vsum(node: &Arc<ChantNode>, ops: &[(String, u64)]) -> u64 {
    let me = node.self_id().address();
    ops.iter()
        .filter(|(k, _)| kv_owners(node, kv_shard_of(node, k.as_bytes())).0 == me)
        .map(|(_, n)| n)
        .sum()
}

/// For every shard this node owns as primary (with a live backup),
/// the backup's digest must equal ours: same version, same entry
/// count, same content fingerprint.
fn assert_replica_parity(node: &Arc<ChantNode>, shards: u32, label: &str) {
    let me = node.self_id().address();
    for shard in 0..shards {
        let (p, b) = kv_owners(node, shard);
        if p != me {
            continue;
        }
        let Some(backup) = b else { continue };
        let local = kv_digest_local(node, shard);
        let remote = kv_remote_digest(node, backup, shard)
            .unwrap_or_else(|e| panic!("[{label}] digest of shard {shard} from {backup:?}: {e}"));
        assert_eq!(
            (local.ver, local.count, local.digest),
            (remote.ver, remote.count, remote.digest),
            "[{label}] shard {shard}: primary and backup must agree after drain"
        );
    }
}

/// Like [`assert_replica_parity`], but tolerant of in-flight
/// replication: once mutations cease, the daemons converge the
/// replicas, so parity is re-checked until it holds (or `PATIENCE`
/// runs out, which fails loudly via the exact assertion).
fn await_replica_parity(node: &Arc<ChantNode>, shards: u32, label: &str) {
    let me = node.self_id().address();
    let deadline = Instant::now() + PATIENCE;
    'shards: for shard in 0..shards {
        let (p, b) = kv_owners(node, shard);
        if p != me {
            continue;
        }
        let Some(backup) = b else { continue };
        loop {
            let local = kv_digest_local(node, shard);
            if let Ok(remote) = kv_remote_digest(node, backup, shard) {
                if (local.ver, local.count, local.digest)
                    == (remote.ver, remote.count, remote.digest)
                {
                    continue 'shards;
                }
            }
            if Instant::now() >= deadline {
                // One last exact check for the failure message.
                assert_replica_parity(node, shards, label);
                continue 'shards;
            }
            park(node, Duration::from_millis(5));
        }
    }
}

// ---------------------------------------------------------------------
// Basic semantics: put / get / delete / add, bulk values, parity
// ---------------------------------------------------------------------

for_each_transport!(basic_kv_semantics_across_policies, |backend: Backend| {
    const KEYS: u64 = 24;
    for policy in POLICIES {
        let cluster = with_kv_config(
            ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config()),
            fast(),
        )
        .build();
        cluster.run(move |node| {
            kv_await_ready(node, PATIENCE).unwrap();
            let group = main_group(node, 0);
            let pe = node.pe();
            let mut c = KvClient::new(node);

            if pe == 0 {
                for i in 0..KEYS {
                    let k = format!("key-{i}");
                    let v1 = c.put(k.as_bytes(), format!("old-{i}").as_bytes()).unwrap();
                    let v2 = c.put(k.as_bytes(), format!("val-{i}").as_bytes()).unwrap();
                    assert!(v2 > v1, "[{backend:?}/{policy:?}] shard versions strictly increase");
                }
                // Counter semantics: add returns the post-op total.
                assert_eq!(c.add(b"ctr", 5).unwrap().1, 5);
                assert_eq!(c.add(b"ctr", 7).unwrap().1, 12);
                // Deletes read back as absent.
                c.put(b"gone", b"x").unwrap();
                c.delete(b"gone").unwrap();
                // A value above the inline threshold rides the RMA bulk
                // path; it must survive replication byte-for-byte.
                let big = vec![0xAB_u8; 2048];
                c.put(b"big", &big).unwrap();
                // A value larger than a staging slot is rejected, not
                // silently truncated.
                assert!(
                    c.put(b"huge", &vec![1u8; 16 * 1024]).is_err(),
                    "[{backend:?}/{policy:?}] oversized value must be refused"
                );
            }
            group.barrier(node).unwrap();

            // Every node — writer or not — reads the same state.
            for i in 0..KEYS {
                let k = format!("key-{i}");
                let (_, val) = c.get(k.as_bytes()).unwrap().expect("written key present");
                assert_eq!(
                    &val[..],
                    format!("val-{i}").as_bytes(),
                    "[{backend:?}/{policy:?}] last write wins"
                );
            }
            assert_eq!(c.get(b"gone").unwrap(), None, "[{backend:?}/{policy:?}] deleted");
            assert_eq!(c.get(b"never").unwrap(), None, "[{backend:?}/{policy:?}] absent");
            assert_eq!(le(&c.get(b"ctr").unwrap().unwrap().1), 12);
            assert_eq!(c.get(b"big").unwrap().unwrap().1.len(), 2048);

            group.barrier(node).unwrap();
            kv_drain(node, PATIENCE).unwrap();
            group.barrier(node).unwrap();
            assert_replica_parity(node, fast().shards, &format!("{backend:?}/{policy:?}"));
            group.barrier(node).unwrap();
        });
    }
});

// ---------------------------------------------------------------------
// Chaos: 1% drop + 1% dup on every link
// ---------------------------------------------------------------------

for_each_transport!(lossy_links_stay_exactly_once_per_key, |backend: Backend| {
    const KEYS: u64 = 8;
    const ROUNDS: u64 = 4;
    const ADDS: u64 = 16;
    const PES: u32 = 3;
    for policy in POLICIES {
        for seed in seeds() {
            let cluster = with_kv_config(
                ChantCluster::builder()
                    .pes(PES)
                    .policy(policy)
                    .transport(backend.config())
                    .faults(FaultConfig::new(seed).drop_p(0.01).dup_p(0.01))
                    .rsr_retry(chaos_retry()),
                fast(),
            )
            .build();
            cluster.run(move |node| {
                let label = format!("{backend:?}/{policy:?}/seed {seed}");
                kv_await_ready(node, PATIENCE).unwrap();
                let pe = node.pe();
                let mut c = KvClient::new(node);
                fence(node, &mut c, "cf-start");

                // Every PE hammers its own keyspace (the last round's
                // value is the linearizability witness) and a shared
                // counter (the exactly-once witness: a replayed or lost
                // add would skew the total).
                for r in 0..ROUNDS {
                    for j in 0..KEYS {
                        let k = format!("{pe}:k{j}");
                        c.put(k.as_bytes(), format!("{pe}-{j}-{r}").as_bytes())
                            .unwrap_or_else(|e| panic!("[{label}] put under faults: {e}"));
                    }
                }
                for _ in 0..ADDS {
                    c.add(b"chaos-ctr", 1)
                        .unwrap_or_else(|e| panic!("[{label}] add under faults: {e}"));
                }
                fence(node, &mut c, "cf-written");

                // Read a *different* PE's keyspace: the acked final
                // value must be what comes back, wherever the primary
                // lives and whatever the links did.
                let other = (pe + 1) % PES;
                for j in 0..KEYS {
                    let k = format!("{other}:k{j}");
                    let (_, val) = c.get(k.as_bytes()).unwrap().expect("present");
                    assert_eq!(
                        &val[..],
                        format!("{other}-{j}-{last}", last = ROUNDS - 1).as_bytes(),
                        "[{label}] key {k}: last acked write must be read"
                    );
                }
                let (_, ctr) = c.get(b"chaos-ctr").unwrap().unwrap();
                assert_eq!(
                    le(&ctr),
                    u64::from(PES) * ADDS,
                    "[{label}] counter proves adds applied exactly once"
                );

                kv_drain(node, PATIENCE).unwrap();
                fence(node, &mut c, "cf-drained");

                // Exactly-once, cluster-wide, without trusting any
                // aggregation channel: every node derives the op count
                // its own primaries must have absorbed and checks its
                // version sum against it.
                let mut ops: Vec<(String, u64)> = Vec::new();
                for p in 0..PES {
                    for j in 0..KEYS {
                        ops.push((format!("{p}:k{j}"), ROUNDS));
                    }
                }
                ops.push(("chaos-ctr".into(), u64::from(PES) * ADDS));
                for f in ["cf-start", "cf-written", "cf-drained"] {
                    ops.push((f.into(), u64::from(PES)));
                }
                assert_eq!(
                    kv_version_sum(node),
                    expected_vsum(node, &ops),
                    "[{label}] Σ primary shard versions must equal acked mutations"
                );
                await_replica_parity(node, fast().shards, &label);
            });
        }
    }
});

// ---------------------------------------------------------------------
// Recovery: wipe one node, re-seed from the surviving replicas
// ---------------------------------------------------------------------

for_each_transport!(wiped_node_recovers_from_surviving_replica, |backend: Backend| {
    const KEYS: u64 = 12;
    const ADDS: u64 = 8;
    const PES: u32 = 3;
    for policy in POLICIES {
        for seed in seeds() {
            let cluster = with_kv_config(
                ChantCluster::builder()
                    .pes(PES)
                    .policy(policy)
                    .transport(backend.config())
                    .faults(FaultConfig::new(seed).drop_p(0.01).dup_p(0.01))
                    .rsr_retry(chaos_retry()),
                fast(),
            )
            .build();
            cluster.run(move |node| {
                let label = format!("{backend:?}/{policy:?}/seed {seed}");
                kv_await_ready(node, PATIENCE).unwrap();
                let pe = node.pe();
                let mut c = KvClient::new(node);
                fence(node, &mut c, "rf-start");

                for j in 0..KEYS {
                    let k = format!("{pe}:k{j}");
                    c.put(k.as_bytes(), format!("seed-{pe}-{j}").as_bytes()).unwrap();
                }
                for _ in 0..ADDS {
                    c.add(b"rec-ctr", 1).unwrap();
                }
                fence(node, &mut c, "rf-seeded");

                // "Crash" PE 1: drain its outbound replication (a kill
                // mid-replication legitimately loses the acked tail on a
                // 2-replica system; the exactness claim is for a node
                // that was caught up), snapshot its version sum, throw
                // away every shard it holds, and let the recovery daemon
                // re-seed each from the surviving replica. The other PEs
                // stay read-only until PE 1 reports back through the KV.
                if pe == 1 {
                    kv_drain(node, PATIENCE).unwrap();
                    let vsum_before = kv_version_sum(node);
                    kv_wipe(node);
                    kv_await_ready(node, PATIENCE).unwrap();
                    assert_eq!(
                        kv_version_sum(node),
                        vsum_before,
                        "[{label}] recovery must restore exact shard versions"
                    );
                    c.put(b"rf-recovered", b"1").unwrap();
                } else {
                    let deadline = Instant::now() + PATIENCE;
                    while c.get(b"rf-recovered").unwrap().is_none() {
                        assert!(Instant::now() < deadline, "[{label}] recovery flag timed out");
                        park(node, Duration::from_millis(5));
                    }
                }
                fence(node, &mut c, "rf-back");

                // All data is readable from every node again …
                for p in 0..PES {
                    for j in 0..KEYS {
                        let k = format!("{p}:k{j}");
                        let (_, val) = c.get(k.as_bytes()).unwrap().expect("survived recovery");
                        assert_eq!(&val[..], format!("seed-{p}-{j}").as_bytes(), "[{label}]");
                    }
                }
                assert_eq!(le(&c.get(b"rec-ctr").unwrap().unwrap().1), u64::from(PES) * ADDS);
                fence(node, &mut c, "rf-read");

                // … and the cluster still takes writes: a second batch
                // lands, sums stay exact, replicas stay in lockstep.
                for _ in 0..ADDS {
                    c.add(b"rec-ctr", 1).unwrap();
                }
                fence(node, &mut c, "rf-done");
                assert_eq!(
                    le(&c.get(b"rec-ctr").unwrap().unwrap().1),
                    u64::from(PES) * 2 * ADDS,
                    "[{label}] post-recovery adds applied exactly once"
                );

                let mut ops: Vec<(String, u64)> = Vec::new();
                for p in 0..PES {
                    for j in 0..KEYS {
                        ops.push((format!("{p}:k{j}"), 1));
                    }
                }
                ops.push(("rec-ctr".into(), u64::from(PES) * 2 * ADDS));
                ops.push(("rf-recovered".into(), 1));
                for f in ["rf-start", "rf-seeded", "rf-back", "rf-read", "rf-done"] {
                    ops.push((f.into(), u64::from(PES)));
                }
                assert_eq!(
                    kv_version_sum(node),
                    expected_vsum(node, &ops),
                    "[{label}] exactly-once across the wipe: version sums are exact"
                );
                await_replica_parity(node, fast().shards, &label);
            });
        }
    }
});

// ---------------------------------------------------------------------
// Lease expiry: renewal off, reads lose locality on schedule
// ---------------------------------------------------------------------

for_each_transport!(expired_lease_blocks_reads_until_renewed, |backend: Backend| {
    const KEY: &[u8] = b"leased-key";
    for policy in POLICIES {
        let cfg = KvConfig {
            lease: Duration::from_millis(500),
            lease_renew: None,
            ..fast()
        };
        let cluster = with_kv_config(
            ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config()),
            cfg,
        )
        .build();
        cluster.run(move |node| {
            let label = format!("{backend:?}/{policy:?}");
            kv_await_ready(node, PATIENCE).unwrap();
            let group = main_group(node, 0);
            let pe = node.pe();
            let mut c = KvClient::new(node);
            let shard = kv_shard_of(node, KEY);
            let (primary, backup) = kv_owners(node, shard);
            assert!(backup.is_some(), "[{label}] two PEs ⇒ every shard is replicated");
            let am_primary = node.self_id().address() == primary;

            if pe == 0 {
                c.put(KEY, b"v").unwrap();
            }
            group.barrier(node).unwrap();

            // Startup may have eaten an arbitrary slice of the initial
            // lease on a loaded host; re-take it explicitly so "fresh"
            // is measured from here, not from boot.
            if am_primary {
                kv_renew_lease(node, shard).unwrap();
            }
            group.barrier(node).unwrap();

            // Within the lease window the primary serves locally.
            match c.try_get(KEY).unwrap() {
                KvRead::Hit { value, .. } => assert_eq!(&value[..], b"v"),
                other => panic!("[{label}] fresh lease must serve the read, got {other:?}"),
            }
            group.barrier(node).unwrap();

            // Sit out well past expiry; with renewal disabled nothing
            // re-takes the lease, so the primary must refuse to serve.
            park(node, Duration::from_millis(1200));
            match c.try_get(KEY).unwrap() {
                KvRead::NoLease => {}
                other => panic!("[{label}] expired lease must surface NoLease, got {other:?}"),
            }
            group.barrier(node).unwrap();

            // A manual renewal (what the daemon does when renewal is
            // on) restores local serving.
            if am_primary {
                kv_renew_lease(node, shard).unwrap();
            }
            group.barrier(node).unwrap();
            match c.try_get(KEY).unwrap() {
                KvRead::Hit { value, .. } => assert_eq!(&value[..], b"v"),
                other => panic!("[{label}] renewed lease must serve the read, got {other:?}"),
            }
            group.barrier(node).unwrap();
        });
    }
});

// ---------------------------------------------------------------------
// Mechanism: an op its own node serves is no message at all.
// ---------------------------------------------------------------------

/// A key whose primary is (`here`) or is not (`!here`) the caller's node.
fn key_served_here(node: &Arc<ChantNode>, name: &str, here: bool) -> String {
    let me = node.self_id().address();
    (0..)
        .map(|i| format!("{name}-{i}"))
        .find(|k| (kv_owners(node, kv_shard_of(node, k.as_bytes())).0 == me) == here)
        .unwrap()
}

// A `get`, `put` or `add` whose primary is the caller's own node is
// served on the calling thread, not sent to the caller's own address:
// neither the node's message-layer send count nor the transport's frame
// count moves. A `get` on the other node's primary is two frames,
// request and reply. Replication is drained, lease renewal is off and
// PE 1 waits in a receive while PE 0 measures, so nothing else is on
// the wire. A put does hand a replication record to the daemon, which
// sends it; the daemon shares the lane, so it runs only at a schedule
// point, and an op served in place passes one only when its lane is
// due one. A sample whose op passed a schedule point is taken again.
for_each_transport!(a_get_served_by_its_own_node_sends_no_frame, |backend: Backend| {
    let cfg = KvConfig {
        lease: Duration::from_secs(600),
        lease_renew: None,
        ..fast()
    };
    let cluster = with_kv_config(
        ChantCluster::builder().pes(2).transport(backend.config()),
        cfg,
    )
    .build();
    cluster.run(move |node| {
        kv_await_ready(node, PATIENCE).unwrap();
        let group = main_group(node, 0);
        let me = node.self_id();
        let local = key_served_here(node, "mech", true);
        let remote = key_served_here(node, "mech", false);
        let mut c = KvClient::new(node);
        c.put(local.as_bytes(), b"here").unwrap();
        kv_drain(node, PATIENCE).unwrap();
        group.barrier(node).unwrap();
        if node.pe() != 0 {
            node.recv_tag(7).unwrap();
            return;
        }
        // Both reads served once (leases in hand), then wait until the
        // daemons' start-up traffic is over.
        c.get(local.as_bytes()).unwrap().expect("written");
        c.get(remote.as_bytes()).unwrap();
        let frames = || node.world().transport_stats().frames_sent;
        let deadline = Instant::now() + PATIENCE;
        loop {
            let before = frames();
            park(node, Duration::from_millis(20));
            if frames() == before || Instant::now() > deadline {
                break;
            }
        }
        let sends = || node.endpoint().stats().snapshot().sends;
        let (f0, s0) = (frames(), sends());
        let (_, got) = c.get(local.as_bytes()).unwrap().expect("written");
        assert_eq!(&got[..], b"here");
        let (f1, s1) = (frames(), sends());
        c.get(remote.as_bytes()).unwrap().expect("written by PE 1");
        let f2 = frames();

        // Messages sent by one own-node mutation, in a sample where the
        // lane passed no schedule point (so the daemon did not run).
        let points = || node.vp().stats().snapshot().schedule_points;
        let sent_by = |op: &mut dyn FnMut()| {
            (0..100).find_map(|_| {
                node.yield_now();
                let (s0, p0) = (sends(), points());
                op();
                (points() == p0).then(|| sends() - s0)
            })
        };
        let put = sent_by(&mut || {
            c.put(local.as_bytes(), b"again").unwrap();
        });
        let add = sent_by(&mut || {
            c.add(local.as_bytes(), 1).unwrap();
        });
        // Release PE 1 before asserting, so a failure fails, not hangs.
        node.send(ChanterId::new(1, 0, me.thread), 7, b"done").unwrap();
        assert_eq!(f1 - f0, 0, "[{backend:?}] a get served locally made frames");
        assert_eq!(s1 - s0, 0, "[{backend:?}] a get served locally sent messages");
        assert_eq!(f2 - f1, 2, "[{backend:?}] a remote get is one request and one reply");
        // `None`: every sample passed a schedule point — the op blocked,
        // as a message to itself does.
        for (op, sent) in [("put", put), ("add", add)] {
            assert_eq!(
                sent,
                Some(0),
                "[{backend:?}] an own-node {op} must be served in place, sending nothing"
            );
        }
    });
});

// ---------------------------------------------------------------------
// Liveness: ops served in place never block, and still yield the lane
// ---------------------------------------------------------------------

// An op on a key the caller's own node serves runs on the calling
// thread and never blocks, so it is no schedule point of itself. A
// thread that loops on such ops must still let its lane run: first a
// sibling on the same lane that writes the key the loop polls for,
// then — for twice the lease, renewal on — the daemon that keeps the
// read lease fresh, so not one read is refused for want of it. Each
// loop checks its own deadline: a lane that never yields fails here
// instead of hanging.
for_each_transport!(a_loop_on_own_node_keys_keeps_its_lane_live, |backend: Backend| {
    const SPIN: Duration = Duration::from_secs(10);
    for policy in POLICIES {
        let cfg = KvConfig {
            lease: Duration::from_millis(300),
            lease_renew: Some(Duration::from_millis(200)),
            ..fast()
        };
        let lease = cfg.lease;
        let cluster = with_kv_config(
            ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config()),
            cfg,
        )
        .build();
        cluster.run(move |node| {
            let label = format!("{backend:?}/{policy:?}");
            kv_await_ready(node, PATIENCE).unwrap();
            // PE 1 waits at no barrier: its server and daemon serve PE 0
            // until PE 0 is done, and a failure on PE 0 fails, not hangs.
            main_group(node, 0);
            if node.pe() == 0 {
                let key = key_served_here(node, "live", true);
                let writer = {
                    let key = key.clone();
                    node.spawn(SpawnAttr::new(), move |node| {
                        KvClient::new(node).put(key.as_bytes(), b"up").unwrap();
                    })
                };
                let c = KvClient::new(node);
                let deadline = Instant::now() + SPIN;
                while !matches!(c.try_get(key.as_bytes()).unwrap(), KvRead::Hit { .. }) {
                    assert!(
                        Instant::now() < deadline,
                        "[{label}] a spin on an own-node key never let its sibling write it"
                    );
                }
                node.remote_join(writer).unwrap();

                let before = kv_stats(node);
                let until = Instant::now() + 2 * lease;
                while Instant::now() < until {
                    match c.try_get(key.as_bytes()).unwrap() {
                        KvRead::Hit { .. } => {}
                        other => panic!("[{label}] an own-node read under renewal got {other:?}"),
                    }
                }
                let after = kv_stats(node);
                assert_eq!(after.no_lease, before.no_lease, "[{label}] kv.no_lease moved");
                assert!(
                    after.leases_taken > before.leases_taken,
                    "[{label}] the daemon renewed no lease while the loop ran"
                );
            }
        });
    }
});

// ---------------------------------------------------------------------
// Start-up: "not ready yet" is not "dead".
// ---------------------------------------------------------------------

// Both daemons boot at once and each asks the other for its shard
// snapshots; whichever asks first is told RETRY, because the peer has
// not registered its staging segment yet. That answer used to be
// treated like a failed fetch — the asker suspected its (perfectly
// healthy) peer and sat out `suspect_for` before asking again, so
// about every other cluster start took a quarter of a second longer
// than the rest. A peer that answers at all is alive: ask again next
// tick. Twenty cold starts per backend, none may lose a `suspect_for`.
for_each_transport!(cold_start_never_waits_out_a_suspicion, |backend: Backend| {
    const STARTS: usize = 20;
    let cfg = KvConfig::default();
    let suspect_for = cfg.suspect_for;
    let worst = Arc::new(std::sync::Mutex::new(Duration::ZERO));
    for _ in 0..STARTS {
        let w = Arc::clone(&worst);
        let cluster = with_kv_config(
            ChantCluster::builder().pes(2).transport(backend.config()),
            cfg.clone(),
        )
        .build();
        cluster.run(move |node| {
            let t0 = Instant::now();
            kv_await_ready(node, PATIENCE).expect("cluster becomes ready");
            let took = t0.elapsed();
            let mut worst = w.lock().unwrap();
            *worst = (*worst).max(took);
        });
    }
    let worst = *worst.lock().unwrap();
    assert!(
        worst < suspect_for,
        "[{backend:?}] a cold start took {worst:?} to become ready — a healthy peer \
         was suspected for {suspect_for:?}"
    );
});
