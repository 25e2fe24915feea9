//! `run --smoke` end to end: all four workloads pass their checks, every
//! metric name the benchmark promises is present, finite and carries its
//! unit, the workloads separate the layers, and `BENCHMARK.json` says
//! what the binary says.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_benchmark");

/// The names issue 12 lists, by the list each must be in; dropping or
/// demoting one must fail here, not in a later PR's compare. The
/// issue's other nine end-to-end names are specific to one kind of
/// workload, which `BENCHMARK.json`'s end-to-end list cannot express,
/// and are per-layer metrics (README, "How these map to the issue's
/// twelve names").
const ISSUE_END_TO_END: &str = "setup_s cpu_us_per_op peak_rss_mb";
const ISSUE_PER_LAYER: &str = "
    kv_ops_per_s kv_read_p50_us kv_update_p50_us kv_read_p99_us kv_update_p99_us
    fanout_deliveries_per_s fanout_complete_p50_us fanout_complete_p99_us failed_ratio
    client.kv_get_local_p50_us client.kv_get_remote_p50_us client.kv_put_local_p50_us
    client.kv_put_remote_p50_us client.kv_get_local_p99_us client.kv_get_remote_p99_us
    client.kv_put_local_p99_us client.kv_put_remote_p99_us client.kv_mean_us client.kv_max_us
    client.over_1ms_ratio
    ult.yield_p50_us ult.yield_p99_us ult.spawn_join_p50_us ult.full_switches_per_op
    ult.partial_switches_per_op ult.blocks_per_op ult.schedule_points_per_op ult.idle_spins_per_op
    comm.self_rtt_p50_us comm.msgtests_per_op comm.msgtest_fail_ratio comm.unexpected_ratio
    comm.blocking_waits_per_op comm.sends_per_op comm.bytes_per_op
    transport.frames_per_op transport.frame_bytes_per_op transport.frames_per_write
    transport.wakeups_per_op transport.partial_writes transport.pool_hit_ratio
    transport.send_failures transport.reconnects os.tcp_floor_rtt_us
    core.p2p_rtt_p50_us core.p2p_rtt_p99_us core.rsr_null_p50_us core.rsr_null_p99_us
    core.rsr_self_p50_us core.p2p_over_floor_us core.rsr_over_p2p_us core.rsr_retries
    core.rsr_timeouts core.rsr_dup_dropped core.rsr_dup_replayed
    rma.get_8B_p50_us rma.put_1KiB_p50_us rma.fetch_add_p50_us rma.get_over_rsr_us
    kv.get_over_rsr_us kv.put_over_rsr_us kv.repl_sent_per_update kv.repl_retries kv.no_lease
    kv.not_ready kv.dup_replayed kv.stale_dropped kv.staged_bulk kv.drain_ms
    pubsub.publish_call_p50_us pubsub.first_deliver_p50_us pubsub.last_local_deliver_p50_us
    pubsub.last_remote_deliver_p50_us pubsub.frames_per_publish pubsub.acks_per_publish
    pubsub.retransmits pubsub.dup_dropped pubsub.resyncs
    proc.cpu_user_s proc.cpu_sys_s proc.vol_ctx_switches_per_op proc.invol_ctx_switches_per_op
    proc.threads bench.probe_rounds bench.trace_overhead_ratio
";

fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, k| {
        v.as_object()
            .and_then(|m| m.get(*k))
            .unwrap_or(&Value::Null)
    })
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                at(m, &["name"]).as_str().unwrap().to_string(),
                at(m, &["unit"]).as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_run_checks_outputs_and_emits_every_metric() {
    // The benchmark runs from the repository root and leaves everything
    // under `benchmark/out/` there.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let results_path = root.join("benchmark/out/smoke_results.json");
    let bench = || {
        let mut c = Command::new(EXE);
        c.current_dir(&root);
        c
    };
    let started = std::time::Instant::now();
    let status = bench()
        .args(["run", "--smoke", "--out"])
        .arg(&results_path)
        .status()
        .expect("run the benchmark binary");
    assert!(
        status.success(),
        "`run --smoke` failed; see {}",
        root.join("benchmark/out").display()
    );
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke mode took {:?}",
        started.elapsed()
    );
    // The sizes of a run are constants, not flags.
    let refused = bench()
        .args(["run", "--smoke", "--keys", "10"])
        .output()
        .expect("run");
    assert_eq!(refused.status.code(), Some(2), "--keys must be refused");

    let manifest = bench().arg("manifest").output().expect("manifest");
    let manifest: Value = serde_json::from_slice(&manifest.stdout).expect("manifest is JSON");
    let end_to_end = names(at(&manifest, &["end_to_end"]));
    let per_layer = names(at(&manifest, &["per_layer"]));
    for (list, wanted) in [
        (&end_to_end, ISSUE_END_TO_END),
        (&per_layer, ISSUE_PER_LAYER),
    ] {
        for name in wanted.split_whitespace() {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "{name} is listed in the issue but not where it belongs"
            );
        }
    }

    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(&results_path).expect("results file"))
            .expect("results are JSON");
    assert_eq!(at(&results, &["claim"]), &Value::Null);
    for fact in [
        "nproc",
        "kernel",
        "cpu_model",
        "load_avg_1m",
        "host_busy",
        "os.tcp_floor_rtt_us",
        "git_commit",
        "rustc",
    ] {
        assert_ne!(
            at(&results, &["host", fact]),
            &Value::Null,
            "host fingerprint lacks {fact}"
        );
    }
    let set = &at(&results, &["sets"]).as_array().expect("sets")[0];
    let metric = |w: &str, group: &str, name: &str| {
        at(set, &[w, group, name, "value"])
            .as_f64()
            .unwrap_or_else(|| panic!("{w}: {group} {name} missing"))
    };
    // `run` covers all four workloads; `BENCHMARK.json` lists the three
    // whose own spread stays clear of the contract's largest bound.
    let workloads = [
        "kv_u10_inproc",
        "kv_u10_tcpev",
        "kv_c_tcpev",
        "fanout_tcpev",
    ];
    let listed: Vec<&str> = at(&manifest, &["workloads"])
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| at(w, &["name"]).as_str().unwrap())
        .collect();
    assert_eq!(listed, workloads[1..]);
    for w in &workloads {
        assert_eq!(
            at(set, &[w, "correct"]).as_bool(),
            Some(true),
            "{w}: {:?}",
            at(set, &[w, "violations"])
        );
        assert_eq!(
            at(set, &[w, "failed"]).as_u128(),
            Some(0),
            "{w} had failed ops"
        );
        for (group, list) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            for (name, unit) in list {
                let v = metric(w, group, name);
                assert!(v.is_finite(), "{w}: {name} = {v}");
                assert_eq!(
                    at(set, &[w, group, name, "unit"]).as_str(),
                    Some(unit.as_str()),
                    "{w}: {name}"
                );
                assert!(
                    group == "per_layer" || v > 0.0,
                    "{w}: end-to-end {name} must never be 0"
                );
            }
        }
    }

    // The workloads separate the layers. (The in-process transport
    // counts the frames it hands over, so it is bytes on a wire, not
    // frames, that must be 0 without a socket.)
    assert_eq!(
        metric("kv_u10_inproc", "per_layer", "transport.frame_bytes_per_op"),
        0.0
    );
    assert!(metric("kv_u10_tcpev", "per_layer", "transport.frame_bytes_per_op") > 0.0);
    assert!(metric("kv_u10_tcpev", "per_layer", "transport.frames_per_op") > 0.0);
    assert!(metric("kv_u10_inproc", "per_layer", "kv.repl_sent_per_update") > 0.0);
    assert_eq!(
        metric("kv_c_tcpev", "per_layer", "kv.repl_sent_per_update"),
        0.0
    );
    assert_eq!(
        metric("fanout_tcpev", "per_layer", "pubsub.frames_per_publish"),
        1.0
    );
    assert_eq!(metric("fanout_tcpev", "per_layer", "kv_ops_per_s"), 0.0);
    let trace = at(set, &["kv_u10_tcpev", "notes", "traced", "trace_file"]);
    assert!(root.join(trace.as_str().expect("trace path")).exists());

    // A result file judged against itself is the same everywhere.
    let compare = bench()
        .arg("compare")
        .args([&results_path, &results_path])
        .output()
        .expect("compare");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(
        !table.contains("worse")
            && !table.contains("unresolved")
            // 4 workloads x 6 end-to-end metrics, and op_p99_us on two.
            && table.matches("same").count() == 26,
        "{table}"
    );

    // BENCHMARK.json mirrors the binary's tables.
    let committed = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let committed: Value = serde_json::from_str(&committed).expect("JSON");
    assert_eq!(
        committed, manifest,
        "regenerate BENCHMARK.json with `benchmark manifest`"
    );
}
