//! Render a text Gantt chart of the Figure-9 workload under each polling
//! policy: which VP is dispatching (#), blocked-heavy (~), or idle (.),
//! across virtual time. A quick visual intuition for why the policies
//! differ — WQ's idle-heavy stripes are the scan windows.
//!
//! The same runs are also exported as a Chrome-trace-event JSON (one track per policy × PE, virtual-time
//! timestamps) to `bench_results/timeline_trace.json`, loadable in
//! Perfetto / `chrome://tracing`.

use chant_core::PollingPolicy;
use chant_sim::{CostModel, Engine, LayerMode, SimProgram, ThreadSpec};

fn main() {
    let cost = CostModel::paragon_polling();
    let mut all_lanes: Vec<chant_obs::LaneTrace> = Vec::new();
    for policy in [
        PollingPolicy::ThreadPolls,
        PollingPolicy::SchedulerPollsPs,
        PollingPolicy::SchedulerPollsWq,
    ] {
        let mut engine = Engine::new(2, cost, LayerMode::Chant(policy));
        for pe in 0..2usize {
            for t in 0..12u32 {
                engine.add_thread(ThreadSpec {
                    vp: pe,
                    program: SimProgram::figure9(1_000, 100, pe ^ 1, t, 0, 12),
                });
            }
        }
        engine.set_compute_jitter(10, 0x5EED_CAFE);
        engine.enable_trace();
        let metrics = engine.run().expect("run");
        let trace = engine.take_trace();
        println!(
            "\n{} — {:.0} ms simulated, {} events traced",
            policy.label(),
            metrics.time_ms(),
            trace.events.len()
        );
        for (vp, row) in trace.gantt(2, metrics.total_ns, 100).iter().enumerate() {
            println!("  PE{vp} |{row}|");
        }
        let mut lanes = trace.to_lane_traces(2);
        for lane in &mut lanes {
            lane.name = format!("{}/{}", policy.label(), lane.name);
        }
        all_lanes.extend(lanes);
    }
    println!("\nlegend: '#' dispatch/completion-heavy, '~' blocking-heavy, '.' idle, ' ' quiet");
    let json = chant_obs::perfetto::to_json_string(&all_lanes);
    let path = chant_bench::results_dir().join("timeline_trace.json");
    std::fs::write(&path, json).expect("write timeline trace");
    println!(
        "wrote {} (load in https://ui.perfetto.dev)",
        chant_bench::shown(&path)
    );
}
