//! dkv: a distributed key/value store in ~60 lines of application code.
//!
//! Earlier revisions of this example hand-rolled sharding and version
//! cells on raw one-sided RMA. That machinery now lives in `chant-kv`
//! — consistent-hash placement, primary-backup replication over
//! exactly-once remote service requests, read leases, RMA-staged bulk
//! values — so the example shrinks to what an application actually
//! writes: make a client, issue ops, trust the ledger.
//!
//! Each node runs a handful of client threads issuing a mixed stream —
//! 50% get, 40% put (some past the inline threshold, so they ride the
//! RMA bulk path), 10% counter add — against a shared key space. The
//! same workload runs over the in-process transport and socket loopback,
//! reliable and with fault injection (drops + duplicates + reordering
//! under a deterministic seed). Under faults, the threads rendezvous
//! through the KV itself (an exactly-once fence add plus read-only
//! polling) because plain sends and collective barriers are fair game
//! for the fault shim.
//!
//! After every run the example closes the exactly-once loop: the sum of
//! primary shard versions across all nodes must equal the number of
//! acknowledged mutations — even when the links duplicated and dropped
//! frames the whole time.
//!
//! ```text
//! cargo run --release --example dkv [ops_per_client]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chant::chant::{ChantCluster, ChantError, ChantNode, FaultConfig, RecvSrc, RetryPolicy, TransportConfig};
use chant::kv::{kv_await_ready, kv_drain, kv_version_sum, with_kv_config, KvClient, KvConfig};

const PES: u32 = 2;
const CLIENTS_PER_NODE: u32 = 4;
const KEYS: u64 = 256;
const VALUE_BYTES: usize = 24;
/// Every 8th put writes this much — past the inline threshold, so it
/// replicates through the RMA staging segment.
const BULK_BYTES: usize = 192;

/// splitmix64: cheap, deterministic per-client randomness.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Park a user-level thread for `d` without blocking its VP lane.
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

/// Fault-tolerant all-PEs rendezvous through the KV: exactly-once add
/// on the fence key, then read-only polling until everyone checked in.
fn fence(node: &Arc<ChantNode>, c: &mut KvClient, name: &str) {
    let pes = u64::from(node.world().pes());
    let (_, total) = c.add(name.as_bytes(), 1).unwrap();
    if total >= pes {
        return;
    }
    loop {
        if let Some((_, v)) = c.get(name.as_bytes()).unwrap() {
            if le(&v) >= pes {
                return;
            }
        }
        park(node, Duration::from_millis(2));
    }
}

struct RunStats {
    ops: u64,
    mutations: u64,
    version_sum: u64,
    elapsed: Duration,
    retries: u64,
    dups_suppressed: u64,
}

fn run_config(
    transport: TransportConfig,
    faults: Option<FaultConfig>,
    ops_per_client: u64,
) -> RunStats {
    let done_ops = Arc::new(AtomicU64::new(0));
    // Every acknowledged mutation (put, add, fence add) counts here;
    // the post-run ledger check compares it against shard versions.
    let acked = Arc::new(AtomicU64::new(0));
    let (done2, acked2) = (Arc::clone(&done_ops), Arc::clone(&acked));

    let mut builder = ChantCluster::builder().pes(PES).transport(transport);
    if let Some(f) = faults {
        builder = builder.faults(f).rsr_retry(RetryPolicy {
            max_attempts: 8,
            base_timeout: Duration::from_millis(25),
            max_timeout: Duration::from_millis(200),
            liveness_ping: Duration::from_millis(500),
        });
    }
    let cluster = with_kv_config(
        builder,
        KvConfig {
            shards: 16,
            vnodes: 32,
            inline_max: 64,
            tick: Duration::from_millis(2),
            ..KvConfig::default()
        },
    )
    .build();

    let started = Instant::now();
    cluster.run(move |node| {
        kv_await_ready(node, Duration::from_secs(30)).unwrap();
        let mut workers = Vec::new();
        for c in 0..CLIENTS_PER_NODE {
            let done = Arc::clone(&done2);
            let acked = Arc::clone(&acked2);
            workers.push(node.spawn_chanter(Default::default(), move |n| {
                let me = n.self_id();
                let mut kv = KvClient::new(n);
                let mut rng = (u64::from(me.pe) << 32) | u64::from(c * 7 + 1);
                for _ in 0..ops_per_client {
                    let key = format!("k{}", next_rand(&mut rng) % KEYS);
                    match next_rand(&mut rng) % 10 {
                        // 50%: point read (served at the primary under
                        // its read lease — no replication round trip).
                        0..=4 => {
                            kv.get(key.as_bytes()).expect("get");
                        }
                        // 40%: overwrite; every 8th is a bulk value.
                        5..=8 => {
                            let len = if next_rand(&mut rng).is_multiple_of(8) {
                                BULK_BYTES
                            } else {
                                VALUE_BYTES
                            };
                            let mut val = vec![0u8; len];
                            val[..8].copy_from_slice(&next_rand(&mut rng).to_le_bytes());
                            kv.put(key.as_bytes(), &val).expect("put");
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        // 10%: bump a shared counter.
                        _ => {
                            kv.add(b"ctr", 1).expect("add");
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
                Default::default()
            }));
        }
        for w in workers {
            node.remote_join(w).expect("client thread");
        }
        // Everything this node acked is applied; make sure it is also
        // replicated, then rendezvous through the KV (fault-safe).
        kv_drain(node, Duration::from_secs(30)).unwrap();
        let mut c = KvClient::new(node);
        fence(node, &mut c, "dkv-done");
        acked2.fetch_add(1, Ordering::Relaxed); // the fence add above
    });
    let elapsed = started.elapsed();

    // The exactly-once ledger: one version bump per acked mutation,
    // summed over every node's primary shards — equal, not merely
    // bounded, even under drops and duplicates.
    let version_sum: u64 = (0..PES).map(|pe| kv_version_sum(cluster.node(pe, 0))).sum();
    let mutations = acked.load(Ordering::Relaxed);
    assert_eq!(
        version_sum, mutations,
        "shard versions must equal acknowledged mutations exactly"
    );

    let ops = done_ops.load(Ordering::Relaxed);
    assert_eq!(ops, u64::from(PES * CLIENTS_PER_NODE) * ops_per_client);

    // Fold per-node robustness counters for the report.
    let mut retries = 0;
    let mut dups = 0;
    for pe in 0..PES {
        let s = cluster.node(pe, 0).rsr_stats();
        retries += s.retries;
        dups += s.dup_dropped + s.dup_replayed;
    }
    RunStats {
        ops,
        mutations,
        version_sum,
        elapsed,
        retries,
        dups_suppressed: dups,
    }
}

fn main() {
    let ops_per_client: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);

    let configs: [(&str, TransportConfig, Option<FaultConfig>); 4] = [
        ("inproc", TransportConfig::InProcess, None),
        (
            "inproc + faults",
            TransportConfig::InProcess,
            Some(FaultConfig::new(7).drop_p(0.05).dup_p(0.10).reorder_p(0.10)),
        ),
        ("tcp-event", TransportConfig::tcp_event_loopback(), None),
        (
            "tcp-event + faults",
            TransportConfig::tcp_event_loopback(),
            Some(FaultConfig::new(7).drop_p(0.05).dup_p(0.10).reorder_p(0.10)),
        ),
    ];

    println!(
        "dkv on chant-kv: {PES} PEs x {CLIENTS_PER_NODE} clients x {ops_per_client} mixed ops \
         (50% get / 40% put / 10% add), {KEYS} keys, replicated x2"
    );
    println!("config             |    ops |  time ms |  kops/s | muts=vsum | retries | dups suppressed");
    for (name, transport, faults) in configs {
        let s = run_config(transport, faults, ops_per_client);
        println!(
            "{name:<19}| {:6} | {:8.1} | {:7.1} | {:9} | {:7} | {:7}",
            s.ops,
            s.elapsed.as_secs_f64() * 1e3,
            s.ops as f64 / s.elapsed.as_secs_f64() / 1e3,
            s.version_sum,
            s.retries,
            s.dups_suppressed,
        );
        assert_eq!(s.version_sum, s.mutations);
    }
}
