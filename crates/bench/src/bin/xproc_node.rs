//! One rank of a real multi-process Chant cluster.
//!
//! Spawned N times by `tests/xproc.rs` (and usable by hand — see
//! EXPERIMENTS.md) with the standard rank/port bootstrap environment:
//! `CHANT_TRANSPORT=tcp-event`, `CHANT_RANK=<pe>`,
//! `CHANT_PEERS=host:port,…`.
//! Every process builds the *same* cluster and calls `run` with the
//! same main; the transport config makes each one host only its own
//! PE's node, so a chant RPC here genuinely crosses OS process
//! boundaries — the paper's talking threads in separate address spaces.
//!
//! The workload is the PR 3 robustness acceptance scenario, now over
//! real sockets: each rank fires `CHANT_XPROC_OPS` (default 250)
//! non-idempotent counted RSRs at its right neighbour through a lossy
//! loopback shim (1% drop + 1% dup, seed from `CHANT_FAULT_SEED`),
//! with retry/backoff and the server-side dedup window keeping the
//! effects exactly-once. On success the process verifies:
//!
//! 1. its local counter shows each neighbour op exactly once;
//! 2. frames actually crossed the socket;
//! 3. after cluster teardown, **zero** socket file descriptors remain
//!    open (`/proc/self/fd`), i.e. the transport leaked nothing;
//!
//! then prints `XPROC-OK rank=<r> ops=<n>` for the parent to assert on.
//!
//! Under `--features trace` with `CHANT_TRACE_OUT=<path>` set, the rank
//! additionally installs the tracer before building its cluster, runs a
//! PING-piggybacked clock sync against rank 0 after the workload, and
//! writes a self-describing per-process Perfetto export (rank + clock
//! offset embedded) that `trace_merge` stitches into one cluster
//! timeline.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use chant_bench::launch::rank_from_env;
use chant_core::{ChantCluster, FaultConfig, RetryPolicy};

const FN_COUNT: u32 = 1001;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// This process's open socket file descriptors, via `/proc/self/fd`.
/// Returns `None` where procfs is unavailable. Compared against a
/// baseline taken before the cluster exists, because inherited stdio
/// can itself be a socket (e.g. under an ssh/CI harness).
fn open_socket_fds() -> Option<Vec<String>> {
    let entries = std::fs::read_dir("/proc/self/fd").ok()?;
    let mut sockets = Vec::new();
    for entry in entries.flatten() {
        if let Ok(target) = std::fs::read_link(entry.path()) {
            if target.to_string_lossy().starts_with("socket:") {
                sockets.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    sockets.sort();
    Some(sockets)
}

fn main() {
    let (transport, rank, pes) = rank_from_env("xproc_node");
    assert!(pes >= 2, "xproc_node needs at least two peers");
    let ops = env_u64("CHANT_XPROC_OPS", 250) as u32;
    let seed = env_u64("CHANT_FAULT_SEED", 42);
    let baseline_fds = open_socket_fds();

    // Tracing must be live before the cluster exists: lanes register at
    // component construction.
    #[cfg(feature = "trace")]
    let trace_out = std::env::var("CHANT_TRACE_OUT").ok();
    #[cfg(feature = "trace")]
    if trace_out.is_some() {
        chant_obs::tracer::install();
    }
    #[cfg(feature = "trace")]
    let clock_est: Arc<std::sync::Mutex<Option<chant_obs::ClockEstimate>>> =
        Arc::new(std::sync::Mutex::new(None));
    #[cfg(feature = "trace")]
    let clock_est2 = Arc::clone(&clock_est);

    // Non-idempotent by design: every duplicate execution is visible.
    let counter = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&counter);

    let cluster = ChantCluster::builder()
        .pes(pes)
        .transport(transport)
        .faults(FaultConfig::new(seed).drop_p(0.01).dup_p(0.01))
        .rsr_retry(RetryPolicy {
            max_attempts: 8,
            base_timeout: Duration::from_millis(50),
            max_timeout: Duration::from_millis(400),
            liveness_ping: Duration::from_secs(2),
        })
        .rsr_handler(FN_COUNT, move |_node, req| {
            c2.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::copy_from_slice(&req.args))
        })
        .build();

    let report = cluster.run(move |node| {
        let me = node.self_id();
        let right = chant_core::ChanterId::new((me.pe + 1) % pes, 0, 0).address();
        for i in 0..ops {
            let reply = node
                .rsr_call(right, FN_COUNT, &i.to_le_bytes())
                .unwrap_or_else(|e| panic!("rank {}: op {i} failed: {e}", me.pe));
            assert_eq!(
                &reply[..],
                &i.to_le_bytes(),
                "rank {}: echo mismatch on op {i}",
                me.pe
            );
        }
        // Clock-sync against rank 0 while its server thread is still
        // alive (the shutdown barrier has not run yet). Rank 0 is its
        // own reference: identity offset.
        #[cfg(feature = "trace")]
        {
            let est = if me.pe == 0 {
                Some(chant_obs::ClockEstimate::identity())
            } else {
                node.clock_sync(chant_core::ChanterId::new(0, 0, 0).address(), 8)
            };
            *clock_est2.lock().unwrap() = est;
        }
    });

    // Exactly-once: the left neighbour's ops each ran here exactly once.
    let counted = counter.load(Ordering::SeqCst);
    assert_eq!(
        counted, ops,
        "rank {rank}: expected {ops} counted ops from the left neighbour, saw {counted}"
    );
    assert!(
        report.transport.frames_sent > 0 && report.transport.frames_received > 0,
        "rank {rank}: no socket traffic? {:?}",
        report.transport
    );
    let retries = report.nodes.iter().map(|n| n.rsr.retries).sum::<u64>();

    // Export this process's slice of the cluster timeline while the
    // cluster (and so every registered lane handle) is still alive.
    #[cfg(feature = "trace")]
    if let Some(path) = trace_out {
        let est = clock_est
            .lock()
            .unwrap()
            .take()
            .unwrap_or_else(chant_obs::ClockEstimate::identity);
        let lanes = chant_obs::tracer::drain();
        let value = chant_obs::merge::process_trace_value(rank, &lanes, &est);
        let json = serde_json::to_string(&value).expect("serialize process trace");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("rank {rank}: write {path}: {e}"));
    }

    // Tear the cluster down, then prove the transport closed everything:
    // listener, outbound connections, accepted connections. Cluster drop
    // is synchronous (it joins the transport's threads), but a fault-shim
    // deliverer that raced teardown with a late held-copy send can close
    // its socket a beat after drop returns — give stragglers a bounded
    // grace window before declaring a leak.
    drop(cluster);
    if let Some(before) = baseline_fds {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut after = open_socket_fds();
        while after.as_ref() != Some(&before) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            after = open_socket_fds();
        }
        if let Some(after) = after {
            assert_eq!(
                after, before,
                "rank {rank}: socket fds leaked by the cluster (before vs after)"
            );
        }
    }

    println!("XPROC-OK rank={rank} ops={ops} retries={retries}");
}
