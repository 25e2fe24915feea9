//! End-to-end live telemetry: a real cluster run with the emitter
//! enabled must produce a parseable NDJSON stream whose per-tick deltas
//! add up to the run's actual totals.
//!
//! This is the production-build path — no `trace` feature involved: the
//! emitter writes every always-on counter family present (scheduler,
//! comm, RSR, installed extensions, transport, faults) as flat JSON
//! lines that `chant-top` renders.
//!
//! The sink path goes through `ClusterBuilder::telemetry_path` — no
//! process-global environment mutation, so this test is safe under
//! parallel test threads and the path cannot collide across
//! concurrently-running binaries (it carries the pid).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use chant::chant::{ChantCluster, ChanterId, ClusterReport, TransportConfig};
use chant::kv::{kv_await_ready, kv_drain, with_kv, KvClient};

const FN_COUNT: u32 = 1001;

fn sink(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("chant_telemetry_{tag}_{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Parse the stream at `path` (and remove it), check its shape — flat
/// objects, dense `seq`, monotone `elapsed_s`, every other value a
/// non-negative integer — and check that for *every* counter the run
/// reported, the per-tick deltas reassemble its end-of-run value: the
/// final flush-on-stop tick guarantees nothing after the last interval
/// is lost. Returns the per-key sums.
fn summed_ticks(path: &PathBuf, report: &ClusterReport) -> HashMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("telemetry file was written");
    let _ = std::fs::remove_file(path);
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "no telemetry ticks emitted:\n{text}");

    let mut prev_seq = 0u64;
    let mut prev_elapsed = -1.0f64;
    let mut sums: HashMap<String, u64> = HashMap::new();
    for line in &lines {
        let v: serde::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e:?}"));
        let obj = v.as_object().expect("tick is a flat object");
        let seq = obj.get("seq").and_then(serde::Value::as_u128).expect("seq") as u64;
        let elapsed = obj
            .get("elapsed_s")
            .and_then(serde::Value::as_f64)
            .expect("elapsed_s");
        assert_eq!(seq, prev_seq + 1, "seq must be dense: {line}");
        assert!(elapsed >= prev_elapsed, "elapsed_s went backwards: {line}");
        prev_seq = seq;
        prev_elapsed = elapsed;
        for (key, val) in obj {
            if key == "elapsed_s" || key == "seq" {
                continue;
            }
            let delta = val
                .as_u128()
                .unwrap_or_else(|| panic!("non-integer value for {key}: {line}"));
            *sums.entry(key.clone()).or_default() += delta as u64;
        }
    }
    assert!(!report.counters().is_empty());
    for &(name, total) in report.counters() {
        assert_eq!(
            sums.get(name).copied(),
            Some(total),
            "per-tick deltas of {name} don't sum to the run total:\n{text}"
        );
    }
    assert_eq!(sums.len(), report.counters().len(), "a tick carried an unreported key");
    sums
}

#[cfg(target_os = "linux")]
#[test]
fn emitter_streams_parseable_deltas_that_sum_to_the_run_totals() {
    let path = sink("p2p");

    const N: u32 = 64;
    let counter = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&counter);
    let cluster = ChantCluster::builder()
        .pes(2)
        .transport(TransportConfig::tcp_event_loopback())
        .telemetry(Duration::from_millis(5))
        .telemetry_path(&path)
        .rsr_handler(FN_COUNT, move |_node, req| {
            c2.fetch_add(1, Ordering::SeqCst);
            Ok(Bytes::copy_from_slice(&req.args))
        })
        .build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        for i in 0..N {
            node.send(peer, 3, &i.to_le_bytes()).unwrap();
            node.recv_tag(3).unwrap();
        }
        if me.pe == 0 {
            for i in 0..8u32 {
                node.rsr_call(peer.address(), FN_COUNT, &i.to_le_bytes()).unwrap();
            }
        }
    });
    drop(cluster); // Emitter::stop flushed a final tick before run returned.

    let sums = summed_ticks(&path, &report);
    assert!(sums["comm.sends"] >= u64::from(2 * N), "{sums:?}");
    assert!(sums["comm.msgtests"] > 0, "polling never showed up in telemetry: {sums:?}");
    assert!(sums["transport.frame_bytes_sent"] > 0, "{sums:?}");
    assert!(!sums.contains_key("kv.mutations"), "no KV on this cluster: {sums:?}");
    assert_eq!(counter.load(Ordering::SeqCst), 8, "RSR workload ran");
}

/// An extension's family is in the stream once it is installed: the
/// KV counters live in a crate `chant-core` cannot name.
#[test]
fn kv_counters_ride_the_same_stream() {
    let path = sink("kv");
    const PUTS: u64 = 16;
    let cluster = with_kv(ChantCluster::builder().pes(2))
        .telemetry(Duration::from_millis(5))
        .telemetry_path(&path)
        .build();
    let report = cluster.run(|node| {
        kv_await_ready(node, Duration::from_secs(30)).unwrap();
        if node.pe() == 0 {
            let mut c = KvClient::new(node);
            for i in 0..PUTS {
                c.put(format!("key{i}").as_bytes(), b"v").unwrap();
            }
        }
        kv_drain(node, Duration::from_secs(30)).unwrap();
    });
    drop(cluster);

    let sums = summed_ticks(&path, &report);
    assert_eq!(sums["kv.mutations"], PUTS, "{sums:?}");
    assert_eq!(report.counter("kv.mutations"), PUTS);
}
