//! One rank of the killed-primary recovery harness: a four-process
//! chant-kv cluster under 1% drop + 1% dup on every link, where rank 1
//! is SIGKILLed by the driving test and respawned — the respawn must
//! re-seed every shard it owns from the surviving replicas and the
//! cluster must end with an exact per-node version-sum ledger, proving
//! exactly-once application across a real process death.
//!
//! Spawned four times over TCP with the standard rank/port bootstrap
//! (`CHANT_TRANSPORT=tcp-event`, `CHANT_RANK`, `CHANT_PEERS`).
//! Phases:
//!
//! 1. Every rank seeds a deterministic data set (keys above the inline
//!    threshold, so the bulk/RMA replication path is exercised) plus a
//!    shared counter, fences, and drains its replication queues.
//! 2. Rank 1 drains once more (covering the fence mutations that landed
//!    on its primaries), writes the `CHANT_KV_SENTINEL` file, and parks.
//!    The test SIGKILLs it and respawns the same rank with
//!    `CHANT_KV_PHASE=2`: the new incarnation recovers via
//!    `kv_await_ready` (snapshot transfer from survivors), verifies the
//!    whole phase-1 data set, and publishes `p2-up` through the KV.
//! 3. All four ranks (one reincarnated) run a second write round, fence,
//!    drain, and each asserts its primary shards' version sum equals the
//!    locally computed acked-mutation count, then that every replica
//!    pair converged to digest parity.
//!
//! Under faults, collective barriers and plain sends are unreliable by
//! design (only control tags are exempt from the shim), so every
//! rendezvous here is a KV fence: an exactly-once `add` on a fence key
//! plus read-only polling — the same pattern as `tests/kv.rs`, now
//! surviving a real kill.
//!
//! Success marker: `KVREC-OK rank=N` on stdout (phase-1 rank 1 never
//! prints one — it dies parked, by design).

use std::sync::Arc;
use std::time::{Duration, Instant};

use chant_bench::launch::rank_from_env;
use chant_core::{
    ChantCluster, ChantError, ChantNode, FaultConfig, PollingPolicy, RecvSrc, RetryPolicy,
};
use chant_kv::{
    kv_await_ready, kv_digest_local, kv_drain, kv_owners, kv_remote_digest, kv_shard_of,
    kv_version_sum, with_kv_config, KvClient, KvConfig,
};

/// Keys per rank in each phase, rounds of overwrites in phase 1, and
/// per-rank counter adds — all deterministic so every rank can compute
/// the exact expected version sum for its primary shards.
const KEYS: u64 = 8;
const ROUNDS: u64 = 3;
const ADDS: u64 = 6;
const KEYS2: u64 = 4;
/// Values are padded past the inline threshold so replication and
/// snapshot recovery carry them through the RMA staging path.
const VAL_LEN: usize = 96;

/// Generous: the fence on the far side of the kill waits out the
/// SIGKILL + respawn + snapshot recovery window.
const PATIENCE: Duration = Duration::from_secs(90);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn policy_from_env() -> PollingPolicy {
    match std::env::var("CHANT_KV_POLICY").as_deref() {
        Ok("wq") => PollingPolicy::SchedulerPollsWq,
        Ok("ps") => PollingPolicy::SchedulerPollsPs,
        _ => PollingPolicy::ThreadPolls,
    }
}

/// Service config matched to the scenario: few shards (cheap parity
/// sweeps), a small inline threshold (ordinary values take the bulk
/// path), fast daemon timers, and enough op patience to ride out the
/// kill window.
fn kv_config() -> KvConfig {
    KvConfig {
        shards: 16,
        vnodes: 32,
        inline_max: 64,
        slot_bytes: 8 * 1024,
        snap_slot_bytes: 64 * 1024,
        tick: Duration::from_millis(2),
        daemon_op_timeout: Duration::from_millis(500),
        suspect_for: Duration::from_millis(100),
        op_patience: PATIENCE,
        ..KvConfig::default()
    }
}

fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_timeout: Duration::from_millis(25),
        max_timeout: Duration::from_millis(200),
        liveness_ping: Duration::from_millis(500),
    }
}

/// Park the calling thread for `d` without blocking its VP lane.
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

/// Fault-tolerant all-ranks rendezvous through the KV (see module doc).
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

/// Deterministic phase-1 value for `(pe, key, round)`, padded past the
/// inline threshold.
fn val_of(pe: u32, j: u64, round: u64) -> Vec<u8> {
    let mut v = format!("{pe}:{j}:{round}:").into_bytes();
    v.resize(VAL_LEN, b'x');
    v
}

/// Version sum this node's primaries must show once every mutation in
/// `ops` (key → count) is acked (exactly-once: one bump per ack).
fn expected_vsum(node: &Arc<ChantNode>, ops: &[(String, u64)]) -> u64 {
    let me = node.self_id().address();
    ops.iter()
        .filter(|(k, _)| kv_owners(node, kv_shard_of(node, k.as_bytes())).0 == me)
        .map(|(_, n)| n)
        .sum()
}

/// Poll until every shard this node primaries matches its backup's
/// digest (replication converges once mutations stop).
fn await_replica_parity(node: &Arc<ChantNode>, shards: u32) {
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
            assert!(
                Instant::now() < deadline,
                "shard {shard}: primary and backup never converged after recovery"
            );
            park(node, Duration::from_millis(5));
        }
    }
}

fn main() {
    let (transport, _rank, pes) = rank_from_env("kv_recover_node");
    assert!(pes >= 3, "recovery needs surviving replicas");
    let phase2 = env_u64("CHANT_KV_PHASE", 1) == 2;
    let seed = env_u64("CHANT_FAULT_SEED", 1);
    let faults = FaultConfig::new(seed)
        .drop_p(env_f64("CHANT_KV_DROP", 0.01))
        .dup_p(env_f64("CHANT_KV_DUP", 0.01));
    let shards = kv_config().shards;

    let cluster = with_kv_config(
        ChantCluster::builder()
            .pes(pes)
            .policy(policy_from_env())
            .transport(transport)
            .faults(faults)
            .rsr_retry(chaos_retry()),
        kv_config(),
    )
    .build();

    cluster.run(move |node| {
        // Phase-2 rank 1's ready-wait IS the recovery under test: every
        // shard it owns re-seeds from the surviving replica's snapshot.
        kv_await_ready(node, PATIENCE).expect("kv ready");
        let pe = node.pe();
        let mut c = KvClient::new(node);

        if !phase2 {
            // ---- Phase 1: seed, fence, drain. -----------------------
            for r in 0..ROUNDS {
                for j in 0..KEYS {
                    c.put(format!("{pe}:k{j}").as_bytes(), &val_of(pe, j, r)).expect("seed put");
                }
            }
            for _ in 0..ADDS {
                c.add(b"rec-ctr", 1).expect("seed add");
            }
            fence(node, &mut c, "f1");
            kv_drain(node, PATIENCE).expect("phase-1 drain");
            fence(node, &mut c, "f2");

            if pe == 1 {
                // The f2 fence adds may have landed on this node's
                // primaries after the first drain; drain again so the
                // kill loses nothing acked, then hand ourselves to the
                // executioner and park until SIGKILL.
                kv_drain(node, PATIENCE).expect("pre-kill drain");
                let sentinel =
                    std::env::var("CHANT_KV_SENTINEL").expect("CHANT_KV_SENTINEL for rank 1");
                std::fs::write(&sentinel, b"ready\n").expect("write sentinel");
                loop {
                    park(node, Duration::from_millis(100));
                }
            }
        } else {
            assert_eq!(pe, 1, "only rank 1 restarts in this scenario");
            // Recovery happened in kv_await_ready above. Prove the whole
            // phase-1 data set survived the kill: final-round values for
            // every rank's keys, and the counter at exactly pes × ADDS.
            for owner in 0..pes {
                for j in 0..KEYS {
                    let key = format!("{owner}:k{j}");
                    let (_, v) = c
                        .get(key.as_bytes())
                        .expect("recovered get")
                        .unwrap_or_else(|| panic!("key {key} lost across the kill"));
                    assert_eq!(
                        &v[..],
                        &val_of(owner, j, ROUNDS - 1)[..],
                        "key {key}: wrong image after recovery"
                    );
                }
            }
            let ctr = c.get(b"rec-ctr").expect("ctr get").expect("ctr exists");
            assert_eq!(
                le(&ctr.1),
                u64::from(pes) * ADDS,
                "counter must be exactly-once across the kill"
            );
            // Release the survivors into phase 2.
            c.put(b"p2-up", b"1").expect("announce recovery");
        }

        if !phase2 {
            // Survivors: wait out the kill + respawn + recovery window.
            let deadline = Instant::now() + PATIENCE;
            loop {
                if c.get(b"p2-up").expect("p2 poll").is_some() {
                    break;
                }
                assert!(Instant::now() < deadline, "rank 1 never came back");
                park(node, Duration::from_millis(20));
            }
        }

        // ---- Phase 2: all four ranks (one reincarnated) write again. --
        for j in 0..KEYS2 {
            c.put(format!("{pe}:p2k{j}").as_bytes(), &val_of(pe, j, 100)).expect("phase-2 put");
        }
        for _ in 0..ADDS {
            c.add(b"rec-ctr2", 1).expect("phase-2 add");
        }
        fence(node, &mut c, "f3");

        // Cross-kill reads at every rank: phase-1 data and both counters.
        for owner in 0..pes {
            for j in 0..KEYS {
                let key = format!("{owner}:k{j}");
                let (_, v) = c.get(key.as_bytes()).expect("get").expect("phase-1 key");
                assert_eq!(&v[..], &val_of(owner, j, ROUNDS - 1)[..], "key {key} diverged");
            }
        }
        assert_eq!(le(&c.get(b"rec-ctr").unwrap().unwrap().1), u64::from(pes) * ADDS);
        assert_eq!(le(&c.get(b"rec-ctr2").unwrap().unwrap().1), u64::from(pes) * ADDS);

        kv_drain(node, PATIENCE).expect("phase-2 drain");
        fence(node, &mut c, "f4");

        // The ledger: this node's primary shard versions must equal the
        // deterministic acked-mutation count over the whole run — phase
        // 1 (applied by the dead incarnation, recovered via snapshot)
        // plus phase 2, counters, and every fence add. Any mutation
        // lost or double-applied across the SIGKILL breaks this sum.
        let mut ops: Vec<(String, u64)> = Vec::new();
        for owner in 0..pes {
            for j in 0..KEYS {
                ops.push((format!("{owner}:k{j}"), ROUNDS));
            }
            for j in 0..KEYS2 {
                ops.push((format!("{owner}:p2k{j}"), 1));
            }
        }
        ops.push(("rec-ctr".into(), u64::from(pes) * ADDS));
        ops.push(("rec-ctr2".into(), u64::from(pes) * ADDS));
        ops.push(("p2-up".into(), 1));
        for f in ["f1", "f2", "f3", "f4"] {
            ops.push((f.into(), u64::from(pes)));
        }
        let want = expected_vsum(node, &ops);
        let got = kv_version_sum(node);
        assert_eq!(
            got, want,
            "rank {pe}: primary version sum must equal the acked-mutation ledger"
        );

        await_replica_parity(node, shards);
        println!("KVREC-OK rank={pe} vsum={got}");
    });
}
