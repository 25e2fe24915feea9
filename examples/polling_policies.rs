//! Run the paper's Figure-9 workload on the LIVE runtime under all four
//! polling policies and print the observable scheduling counters —
//! a live (wall-clock) miniature of the §4.2 experiment.
//!
//! The simulated reproduction of Tables 3–5 lives in
//! `cargo run -p chant-bench --bin tables -- 3` (etc.); this example shows the
//! same structural signatures (who context-switches, who msgtests) on
//! real threads.
//!
//! Run with: `cargo run --example polling_policies`
//!
//! With `CHANT_TRACE_OUT=<file>` set, the whole run is captured by the
//! chant-obs tracer: every dispatch, block, unblock, send, arrival, and
//! msgtest on every VP, across all four policies, is exported to that
//! file as one Chrome-trace-event JSON (load it at
//! <https://ui.perfetto.dev>), and the metrics registry's counters and
//! latency histograms are printed at the end:
//!
//! `CHANT_TRACE_OUT=bench_results/polling_policies_trace.json cargo run --release --example polling_policies`

use chant::chant::{ChantCluster, ChanterId, PollingPolicy};
use chant_ult::SpawnAttr;

fn busy(units: u64) {
    for i in 0..units {
        std::hint::black_box(i);
    }
}

fn run_policy(policy: PollingPolicy) {
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(policy)
        .server(false)
        .build();

    let report = cluster.run(|node| {
        let mut ids = Vec::new();
        for i in 0..6u32 {
            ids.push(node.spawn(SpawnAttr::new(), move |n| {
                let me = n.self_id();
                let partner = ChanterId::new(1 - me.pe, 0, me.thread);
                let tag = (i + 1) as i32;
                // The Figure-9 loop: compute(alpha); send; compute(beta); recv.
                for _ in 0..25 {
                    busy(2_000); // alpha
                    n.send(partner, tag, b"payload").unwrap();
                    busy(200); // beta
                    n.recv_tag(tag).unwrap();
                }
            }));
        }
        for id in ids {
            node.remote_join(id).unwrap();
        }
    });

    let full: u64 = report.counter("ult.full_switches");
    let partial: u64 = report.counter("ult.partial_switches");
    let tests: u64 = report.counter("comm.msgtests");
    let testany: u64 = report.counter("comm.testany_calls");
    let redisp: u64 = report.counter("ult.self_redispatches");
    println!(
        "{:<30} wall {:>8.2?}  ctxsw {:>6}  partial {:>6}  redispatch {:>6}  msgtest {:>6}  testany {:>5}",
        policy.label(),
        report.elapsed,
        full,
        partial,
        redisp,
        tests,
        testany
    );
}

fn main() {
    println!(
        "Figure-9 workload, live runtime: 2 PEs x 6 threads x 25 iterations\n\
         (structural counters differ by policy exactly as the paper describes)\n"
    );
    // The tracer must be installed before any cluster is built: VPs and
    // endpoints register their lanes at construction time.
    let trace_out = std::env::var("CHANT_TRACE_OUT")
        .ok()
        .filter(|p| !p.is_empty());
    if trace_out.is_some() {
        chant_obs::tracer::install();
    }
    let mut all_lanes: Vec<chant_obs::LaneTrace> = Vec::new();
    for policy in PollingPolicy::ALL {
        run_policy(policy);
        // Each policy builds a fresh cluster, so lane names repeat
        // across runs; drain between policies and prefix the policy
        // label so every Perfetto track is unambiguous.
        if trace_out.is_some() {
            let mut lanes = chant_obs::tracer::drain();
            for lane in &mut lanes {
                lane.name = format!("{}/{}", policy.label(), lane.name);
            }
            all_lanes.extend(lanes);
        }
    }
    if let Some(path) = trace_out {
        let events: usize = all_lanes.iter().map(|l| l.events.len()).sum();
        let json = chant_obs::perfetto::to_json_string(&all_lanes);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!(
            "\ntraced {events} events across {} lanes -> {path} (load in https://ui.perfetto.dev)",
            all_lanes.len()
        );
        let snap = chant_obs::registry().snapshot();
        println!("\nmetrics registry (all four policies combined):");
        for (name, value) in &snap.counters {
            println!("  {name:<28} {value:>10}");
        }
        for (name, h) in &snap.histograms {
            if h.count > 0 {
                println!(
                    "  {name:<28} n={:<8} mean={:>9.0}ns p99<={}ns",
                    h.count,
                    h.mean(),
                    h.quantile(0.99)
                );
            }
        }
    }
    println!(
        "\nreading the table:\n\
         - Thread polls: no partial switches; failed receives burn full switches.\n\
         - Scheduler polls (PS): partial switches appear — unready TCBs are requeued\n\
           without restoring their context.\n\
         - Scheduler polls (WQ): the scheduler's table scan drives msgtest way up.\n\
         - WQ+testany: one msgtestany per schedule point replaces the per-request scan."
    );
}
