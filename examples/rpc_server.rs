//! Remote service requests: RPC, remote fetch, and a coherence-style
//! distributed key/value update — the paper's §3.2 layer, live.
//!
//! Every node runs Chant's server thread. PE 0 acts as a client: it
//! calls a custom RSR handler on PE 1 (a word-count service), uses the
//! built-in remote fetch/store, and finally creates a thread remotely
//! through the same mechanism (§3.3).
//!
//! Run with: `cargo run --example rpc_server`
//!
//! Set `CHANT_TRANSPORT=tcp-event` to route the same RPCs through real
//! loopback sockets; add `CHANT_RANK=<pe>` and
//! `CHANT_PEERS=host:port,host:port` (one process per rank) to run the
//! client and the server as separate OS processes.
//!
//! Set `CHANT_FAULTS=1` to run the same program over a lossy network
//! (1% drop + 1% duplication through the seeded fault shim) with RSR
//! retry/backoff enabled; `CHANT_FAULT_DROP` and `CHANT_FAULT_SEED`
//! override the drop probability and the shim seed. The run ends with
//! the shim's tally and the retry counters from the cluster report.
//!
//! With `CHANT_TRACE_OUT=<file>` set, the run is captured by the
//! chant-obs tracer and the server threads' RSR serve/done events are
//! summarized at the end (request count per function id, service-time
//! histogram), with the full timeline exported to that file.

use bytes::Bytes;
use chant::chant::{
    ChantCluster, ChantError, FaultConfig, PollingPolicy, RetryPolicy, TransportConfig,
};
use chant_comm::Address;

/// Custom RSR function id (user ids start at 1000).
const FN_WORD_COUNT: u32 = 1000;

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    // Install before the cluster exists: lanes register at construction.
    let trace_out = std::env::var("CHANT_TRACE_OUT")
        .ok()
        .filter(|p| !p.is_empty());
    if trace_out.is_some() {
        chant_obs::tracer::install();
    }
    let faulty = std::env::var("CHANT_FAULTS").is_ok_and(|v| v != "0");
    let mut builder = ChantCluster::builder()
        .pes(2)
        .policy(PollingPolicy::SchedulerPollsPs)
        // CHANT_TRANSPORT=tcp-event routes everything through real sockets;
        // with CHANT_RANK + CHANT_PEERS the two PEs become two OS
        // processes (start one per rank, same command line).
        .transport(TransportConfig::from_env());
    if faulty {
        let drop_p = env_parse("CHANT_FAULT_DROP", 0.01);
        let seed = env_parse("CHANT_FAULT_SEED", 42u64);
        println!("fault shim ON: seed {seed}, drop {drop_p}, dup 0.01\n");
        builder = builder
            .faults(FaultConfig::new(seed).drop_p(drop_p).dup_p(0.01))
            .rsr_retry(RetryPolicy::default());
    }
    let cluster = builder
        .rsr_handler(FN_WORD_COUNT, |_node, req| {
            let text = String::from_utf8(req.args.to_vec())
                .map_err(|e| ChantError::Remote(e.to_string()))?;
            let words = text.split_whitespace().count() as u32;
            Ok(Bytes::copy_from_slice(&words.to_le_bytes()))
        })
        .entry("greeter", |node, arg| {
            let who = String::from_utf8_lossy(&arg).to_string();
            println!("  [pe{}] remotely created thread says hi to {who}", node.pe());
            Bytes::from(format!("greeted {who}"))
        })
        .build();

    let report = cluster.run(|node| {
        let remote = Address::new(1, 0);
        if node.pe() != 0 {
            return; // PE 1 only serves
        }

        // 1. Remote procedure call through the server thread.
        let reply = node
            .rsr_call(remote, FN_WORD_COUNT, b"lightweight threads can talk across machines")
            .expect("word count RPC");
        let words = u32::from_le_bytes(reply[..4].try_into().unwrap());
        println!("RPC: remote word count = {words}");
        assert_eq!(words, 6);

        // 2. Remote store + fetch (the paper's remote-fetch example).
        node.remote_store(remote, "config/threshold", b"42")
            .expect("remote store");
        let v = node
            .remote_fetch(remote, "config/threshold")
            .expect("remote fetch");
        println!("fetch: config/threshold on pe1 = {}", String::from_utf8_lossy(&v));

        // 3. Coherence-style broadcast: update every node's local store.
        for pe in 0..node.world().pes() {
            let dst = Address::new(pe, 0);
            node.remote_store(dst, "epoch", b"7").expect("epoch update");
        }
        println!("coherence: 'epoch' updated on all nodes");
        assert_eq!(&node.local_fetch("epoch").unwrap()[..], b"7");

        // 4. Remote thread creation rides the same RSR machinery (§3.3).
        let t = node
            .remote_spawn(remote, "greeter", b"the Chant paper")
            .expect("remote spawn");
        let exit = node.remote_join(t).expect("remote join");
        println!("remote thread exit value: {}", String::from_utf8_lossy(&exit));

        // 5. Error paths are first-class: unknown services report back.
        match node.rsr_call(remote, 9_999, b"") {
            Err(ChantError::Remote(msg)) => println!("unknown service correctly refused: {msg}"),
            other => panic!("expected remote error, got {other:?}"),
        }
    });

    println!("\nall remote service requests completed");
    if let Some(f) = &report.faults {
        println!(
            "shim tally: {} dropped, {} duplicated, {} passed clean",
            f.dropped, f.duplicated, f.passed
        );
        println!(
            "rsr recovery: {} retransmissions, {} duplicates suppressed",
            report.counter("rsr.retries"),
            report.counter("rsr.dup_dropped") + report.counter("rsr.dup_replayed")
        );
    }

    if let Some(path) = trace_out {
        use chant_obs::Event;
        use std::collections::BTreeMap;

        let lanes = chant_obs::tracer::drain();
        let mut served: BTreeMap<u32, u64> = BTreeMap::new();
        for lane in &lanes {
            for e in &lane.events {
                if let Event::RsrServe { fn_id } = e.event {
                    *served.entry(fn_id).or_default() += 1;
                }
            }
        }
        println!("\nRSR server activity (from the trace):");
        for (fn_id, n) in &served {
            let label = match *fn_id {
                1 => "CREATE",
                2 => "JOIN",
                5 => "FETCH",
                6 => "STORE",
                _ if *fn_id == FN_WORD_COUNT => "word_count",
                _ => "other",
            };
            println!("  fn {fn_id:<5} ({label:<10}) served {n} request(s)");
        }
        let svc = chant_obs::registry().histogram("core.rsr_service_ns").snapshot();
        if svc.count > 0 {
            println!(
                "  service time: n={} mean={:.1}us p99<={:.1}us",
                svc.count,
                svc.mean() / 1000.0,
                svc.quantile(0.99) as f64 / 1000.0
            );
        }
        let json = chant_obs::perfetto::to_json_string(&lanes);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("  timeline -> {path} (load in https://ui.perfetto.dev)");
    }
}
