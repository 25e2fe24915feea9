//! The metric and workload tables: every name the benchmark emits, its
//! unit and which way is better. `BENCHMARK.json` at the repository
//! root mirrors these tables (the smoke test checks that it does) and
//! `README.md` defines each entry.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it. `run` and `compare` cover all
    /// four; the driver's list holds those whose own run-to-run spread
    /// stays clear of the largest bound the contract allows (README,
    /// "Steadiness").
    pub listed: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kv_u10_inproc",
        why: "90/10 read/update KV on the in-process transport: ult switching, comm matching, core RSR and kv replication do all the work, sockets none",
        listed: false,
    },
    Workload {
        name: "kv_u10_tcpev",
        why: "the same mix and seed over tcp-event loopback between two OS processes: what it loses to kv_u10_inproc is transport and progress cost",
        listed: true,
    },
    Workload {
        name: "kv_c_tcpev",
        why: "read-only on the same transport: lease-served reads, no replication traffic; bypasses the write path",
        listed: true,
    },
    Workload {
        name: "fanout_tcpev",
        why: "one publisher, 1000 subscriber ULTs, window 1: one frame per publish, 1000 wakes; pubsub tree and ult wake path, kv idle",
        listed: true,
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression; 0 for per-layer metrics, which
    /// carry no bound.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const fn e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Measured with tracing and probes off; every one is defined, and
/// never 0, on all four workloads. An "op" is one KV get/put on the
/// `kv_*` workloads and one subscriber delivery (throughput, CPU) or
/// one publish-to-last-delivery round (latency) on `fanout_tcpev`.
pub const END_TO_END: [Metric; 6] = [
    e("setup_s", "s", "lower", 0.25),
    e("ops_per_s", "1/s", "higher", 0.25),
    e("op_p75_us", "us", "lower", 0.25),
    e("update_p75_us", "us", "lower", 0.25),
    e("cpu_us_per_op", "us", "lower", 0.25),
    e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Per-layer figures that `compare` judges too, with a bound, on the
/// workloads where they repeat well within it. `BENCHMARK.json` cannot
/// say this: its end-to-end metrics apply to every workload it lists,
/// and the 99th percentile of a `fanout_tcpev` round spreads by a fifth
/// of itself from run to run (README, "Steadiness").
pub const ALSO_JUDGED: [(&str, f64, &[&str]); 1] =
    [("op_p99_us", 0.25, &["kv_u10_tcpev", "kv_c_tcpev"])];

/// From the traced run: first the latency percentiles too unsteady to
/// carry a bound and the issue's workload-specific end-to-end names
/// (all taken from the untraced reference window that opens every
/// traced run; 0 where a name does not apply to the workload), then one
/// group per layer.
pub const PER_LAYER: [Metric; 87] = [
    m("op_p50_us", "us", "lower"),
    m("op_p99_us", "us", "lower"),
    m("kv_ops_per_s", "1/s", "higher"),
    m("kv_read_p50_us", "us", "lower"),
    m("kv_update_p50_us", "us", "lower"),
    m("kv_read_p99_us", "us", "lower"),
    m("kv_update_p99_us", "us", "lower"),
    m("fanout_deliveries_per_s", "1/s", "higher"),
    m("fanout_complete_p50_us", "us", "lower"),
    m("fanout_complete_p99_us", "us", "lower"),
    m("failed_ratio", "ratio", "lower"),
    // client
    m("client.kv_get_local_p50_us", "us", "lower"),
    m("client.kv_get_local_p99_us", "us", "lower"),
    m("client.kv_get_remote_p50_us", "us", "lower"),
    m("client.kv_get_remote_p99_us", "us", "lower"),
    m("client.kv_put_local_p50_us", "us", "lower"),
    m("client.kv_put_local_p99_us", "us", "lower"),
    m("client.kv_put_remote_p50_us", "us", "lower"),
    m("client.kv_put_remote_p99_us", "us", "lower"),
    m("client.kv_mean_us", "us", "lower"),
    m("client.kv_max_us", "us", "lower"),
    m("client.over_1ms_ratio", "ratio", "lower"),
    // ult
    m("ult.yield_p50_us", "us", "lower"),
    m("ult.yield_p99_us", "us", "lower"),
    m("ult.spawn_join_p50_us", "us", "lower"),
    m("ult.full_switches_per_op", "count", "lower"),
    m("ult.partial_switches_per_op", "count", "lower"),
    m("ult.blocks_per_op", "count", "lower"),
    m("ult.schedule_points_per_op", "count", "lower"),
    m("ult.idle_spins_per_op", "count", "lower"),
    // comm
    m("comm.self_rtt_p50_us", "us", "lower"),
    m("comm.msgtests_per_op", "count", "lower"),
    m("comm.msgtest_fail_ratio", "ratio", "lower"),
    m("comm.unexpected_ratio", "ratio", "lower"),
    m("comm.blocking_waits_per_op", "count", "lower"),
    m("comm.sends_per_op", "count", "lower"),
    m("comm.bytes_per_op", "B", "lower"),
    // transport
    m("transport.frames_per_op", "count", "lower"),
    m("transport.frame_bytes_per_op", "B", "lower"),
    m("transport.frames_per_write", "count", "higher"),
    m("transport.wakeups_per_op", "count", "lower"),
    m("transport.partial_writes", "count", "lower"),
    m("transport.pool_hit_ratio", "ratio", "higher"),
    m("transport.send_failures", "count", "lower"),
    m("transport.reconnects", "count", "lower"),
    m("os.tcp_floor_rtt_us", "us", "lower"),
    // core
    m("core.p2p_rtt_p50_us", "us", "lower"),
    m("core.p2p_rtt_p99_us", "us", "lower"),
    m("core.rsr_null_p50_us", "us", "lower"),
    m("core.rsr_null_p99_us", "us", "lower"),
    m("core.rsr_self_p50_us", "us", "lower"),
    m("core.p2p_over_floor_us", "us", "lower"),
    m("core.rsr_over_p2p_us", "us", "lower"),
    m("core.rsr_retries", "count", "lower"),
    m("core.rsr_timeouts", "count", "lower"),
    m("core.rsr_dup_dropped", "count", "lower"),
    m("core.rsr_dup_replayed", "count", "lower"),
    // rma
    m("rma.get_8B_p50_us", "us", "lower"),
    m("rma.put_1KiB_p50_us", "us", "lower"),
    m("rma.fetch_add_p50_us", "us", "lower"),
    m("rma.get_over_rsr_us", "us", "lower"),
    // kv
    m("kv.get_over_rsr_us", "us", "lower"),
    m("kv.put_over_rsr_us", "us", "lower"),
    m("kv.repl_sent_per_update", "count", "lower"),
    m("kv.repl_retries", "count", "lower"),
    m("kv.no_lease", "count", "lower"),
    m("kv.not_ready", "count", "lower"),
    m("kv.dup_replayed", "count", "lower"),
    m("kv.stale_dropped", "count", "lower"),
    m("kv.staged_bulk", "count", "lower"),
    m("kv.drain_ms", "ms", "lower"),
    // pubsub
    m("pubsub.publish_call_p50_us", "us", "lower"),
    m("pubsub.first_deliver_p50_us", "us", "lower"),
    m("pubsub.last_local_deliver_p50_us", "us", "lower"),
    m("pubsub.last_remote_deliver_p50_us", "us", "lower"),
    m("pubsub.frames_per_publish", "count", "lower"),
    m("pubsub.acks_per_publish", "count", "lower"),
    m("pubsub.retransmits", "count", "lower"),
    m("pubsub.dup_dropped", "count", "lower"),
    m("pubsub.resyncs", "count", "lower"),
    // proc / bench
    m("proc.cpu_user_s", "s", "lower"),
    m("proc.cpu_sys_s", "s", "lower"),
    m("proc.vol_ctx_switches_per_op", "count", "lower"),
    m("proc.invol_ctx_switches_per_op", "count", "lower"),
    m("proc.threads", "count", "lower"),
    m("bench.probe_rounds", "count", "higher"),
    m("bench.trace_overhead_ratio", "ratio", "lower"),
];
