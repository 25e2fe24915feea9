//! Transport scalability: N-peer loopback fan-out per backend, dumped
//! to `bench_results/BENCH_PR6.json`.
//!
//! The thread-per-connection backend spends one OS thread per inbound
//! connection, so its resource bill grows linearly with the peer count;
//! the event-loop backend multiplexes every connection onto a single
//! poller thread. This bench makes that difference measurable: a world
//! of N PEs on one loopback transport, PE 0 fanning messages out
//! round-robin to the other N−1, recording throughput plus the
//! process's open-socket-fd and OS-thread counts while the world is up
//! (threads are reported as the delta over the pre-world baseline, so
//! the number is the transport's own bill).
//!
//! The snapshot also refreshes the `xport_lat` ping-pong medians (with
//! the raw kernel floor they are judged against — see
//! [`chant_bench::latency::raw_tcp_floor_ns`]) and the `rma_lat`
//! one-sided medians, now including the event-loop backend, so
//! `BENCH_PR6.json` is a complete before/after record for the PR.
//!
//! Run with: `cargo run --release -p chant-bench --bin xport_scale`

use std::time::{Duration, Instant};

use bytes::Bytes;
use serde::Serialize;

use chant_bench::latency::{median_rtt_ns, raw_tcp_floor_ns, rma_standard_medians};
use chant_bench::results_dir;
use chant_comm::{kind, Address, CommWorld};
use chant_core::TransportConfig;

/// Messages measured per fan-out run (after the connection-warming
/// round).
const MSGS: u32 = 10_000;

#[derive(Serialize)]
struct BenchLine {
    id: String,
    median_ns: f64,
}

/// One fan-out data point.
#[derive(Serialize)]
struct ScaleLine {
    backend: &'static str,
    peers: u32,
    msgs_per_sec: f64,
    /// Open socket fds while the world was live (listener + both ends
    /// of every loopback connection).
    socket_fds: usize,
    /// OS threads the transport added over the pre-world baseline.
    transport_threads: i64,
}

#[derive(Serialize)]
struct Snapshot {
    snapshot: String,
    benches: Vec<BenchLine>,
    scale: Vec<ScaleLine>,
}

/// Count this process's open socket fds via `/proc/self/fd`.
fn socket_fds() -> usize {
    let Ok(entries) = std::fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            std::fs::read_link(e.path())
                .map(|t| t.to_string_lossy().starts_with("socket:"))
                .unwrap_or(false)
        })
        .count()
}

/// This process's OS thread count via `/proc/self/status`.
fn thread_count() -> i64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// A named, lazily-built backend configuration.
type Backend = (&'static str, fn() -> TransportConfig);

/// Wait until the world has received `want` frames in total, with a
/// generous deadline (a stuck backend should fail loudly, not hang CI).
/// Delivery is the transport's own threads' job; this one only watches.
fn wait_received(world: &CommWorld, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let got = world.transport_stats().frames_received;
        if got >= want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: stalled at {got}/{want} received frames"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One fan-out run: PE 0 sends `MSGS` 32-byte messages round-robin to
/// the other `peers - 1` PEs of a single-process loopback world.
fn fan_out(backend: &'static str, config: TransportConfig, peers: u32) -> ScaleLine {
    let threads_before = thread_count();
    let world = CommWorld::with_transport(peers, 1, config);
    let e0 = world.endpoint(Address::new(0, 0));
    let payload = Bytes::from_static(&[0xA5u8; 32]);

    // Warm: one message per peer, so every connection is dialed (and,
    // on the legacy backend, every drain thread spawned) before the
    // clock starts.
    for pe in 1..peers {
        e0.isend(Address::new(pe, 0), 1, 0, kind::DATA, payload.clone());
    }
    wait_received(&world, u64::from(peers - 1), "warm round");

    let socket_fds = socket_fds();
    let transport_threads = thread_count() - threads_before;

    let base = world.transport_stats().frames_received;
    let t0 = Instant::now();
    for i in 0..MSGS {
        let pe = 1 + (i % (peers - 1));
        e0.isend(Address::new(pe, 0), 1, 0, kind::DATA, payload.clone());
    }
    wait_received(&world, base + u64::from(MSGS), "measured round");
    let elapsed = t0.elapsed().as_secs_f64();

    world.shutdown();
    let line = ScaleLine {
        backend,
        peers,
        msgs_per_sec: f64::from(MSGS) / elapsed,
        socket_fds,
        transport_threads,
    };
    println!(
        "{:9} peers={:5}  {:10.0} msgs/s  {:5} socket fds  {:5} transport threads",
        line.backend, line.peers, line.msgs_per_sec, line.socket_fds, line.transport_threads
    );
    line
}

fn main() {
    const N: usize = 4000;
    const WARMUP: usize = 400;
    const RMA_N: usize = 2000;
    const RMA_WARMUP: usize = 200;
    let mut benches = Vec::new();
    let mut scale = Vec::new();

    let socket_backends: &[Backend] = if cfg!(target_os = "linux") {
        &[
            ("tcp", TransportConfig::tcp_loopback),
            ("tcp-event", TransportConfig::tcp_event_loopback),
        ]
    } else {
        &[("tcp", TransportConfig::tcp_loopback)]
    };

    // Ping-pong medians plus the raw kernel floor they sit on.
    let _ = median_rtt_ns(TransportConfig::InProcess, 500, 100); // warm the process
    benches.push(BenchLine {
        id: "xport/inproc/rtt_32B".into(),
        median_ns: median_rtt_ns(TransportConfig::InProcess, N, WARMUP),
    });
    benches.push(BenchLine {
        id: "xport/raw_floor/rtt_32B".into(),
        median_ns: raw_tcp_floor_ns(N, WARMUP),
    });
    for (tname, config) in socket_backends {
        benches.push(BenchLine {
            id: format!("xport/{tname}/rtt_32B"),
            median_ns: median_rtt_ns(config(), N, WARMUP),
        });
    }

    // One-sided medians, all backends.
    let inproc_cfg: fn() -> TransportConfig = || TransportConfig::InProcess;
    for (tname, config) in std::iter::once(&("inproc", inproc_cfg)).chain(socket_backends.iter()) {
        for (op, median_ns) in rma_standard_medians(config(), RMA_N, RMA_WARMUP) {
            benches.push(BenchLine {
                id: format!("rma/{tname}/{op}"),
                median_ns,
            });
        }
    }

    // The fan-out proper.
    for (tname, config) in socket_backends {
        for peers in [64u32, 256, 1024] {
            scale.push(fan_out(tname, config(), peers));
        }
    }

    for b in &benches {
        println!("{:28} {:10.0} ns", b.id, b.median_ns);
    }
    let snapshot = Snapshot {
        snapshot: "BENCH_PR6".to_string(),
        benches,
        scale,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    let path = results_dir().join("BENCH_PR6.json");
    std::fs::write(&path, json + "\n").expect("write snapshot");
    println!("wrote {}", path.display());
}
