//! Ablation/sensitivity study: how the paper's policy ranking depends on
//! the machine's cost parameters (the design-choice questions DESIGN.md
//! calls out). Sweeps one parameter at a time over the Figure-9 workload
//! and reports the WQ/PS and TP/PS time ratios plus the waiting-thread
//! population; CSV series land in bench_results/.

use chant_bench::{print_table, shown, write_csv};
use chant_sim::experiments::PollingConfig;
use chant_sim::sensitivity::{sweep, SweepParam};

fn run_sweep(param: SweepParam, values: &[u64], csv_name: &str) {
    let cfg = PollingConfig::default();
    let points = sweep(param, values, 100, 100, cfg).expect("sweep");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for p in &points {
        rows.push(vec![
            format!("{:.0}us", p.value as f64 / 1000.0),
            format!("{:.0}", p.tp.time_ms),
            format!("{:.0}", p.ps.time_ms),
            format!("{:.0}", p.wq.time_ms),
            format!("{:.3}", p.tp_over_ps()),
            format!("{:.3}", p.wq_over_ps()),
            format!("{:.2}", p.ps.avg_waiting),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.4},{:.4},{:.4}",
            p.value,
            p.tp.time_ms,
            p.ps.time_ms,
            p.wq.time_ms,
            p.tp_over_ps(),
            p.wq_over_ps(),
            p.ps.avg_waiting
        ));
    }
    print_table(
        &format!("Ablation — sweep of {} (alpha=100, beta=100)", param.label()),
        &["value", "TP ms", "PS ms", "WQ ms", "TP/PS", "WQ/PS", "waiting"],
        &rows,
    );
    let path = write_csv(
        csv_name,
        "value_ns,tp_ms,ps_ms,wq_ms,tp_over_ps,wq_over_ps,ps_avg_waiting",
        &csv,
    );
    println!("series written: {}", shown(&path));
}

fn main() {
    println!(
        "How robust is the paper's ranking (PS <= TP << WQ) to the machine?\n\
         Each sweep varies one cost parameter of the calibrated Paragon model."
    );
    run_sweep(
        SweepParam::MsgtestCost,
        &[10_000, 50_000, 150_000, 350_000, 700_000, 1_400_000],
        "ablation_msgtest_cost.csv",
    );
    run_sweep(
        SweepParam::FullSwitchCost,
        &[10_000, 40_000, 80_000, 160_000, 320_000],
        "ablation_ctxsw_cost.csv",
    );
    run_sweep(
        SweepParam::NetLatency,
        &[500_000, 2_000_000, 6_000_000, 12_000_000, 24_000_000],
        "ablation_net_latency.csv",
    );
    println!(
        "\nreadings:\n\
         - WQ's penalty is essentially a linear function of msgtest cost: on a\n\
           machine with cheap completion tests the waiting-queue design is fine —\n\
           the paper's WQ verdict is a statement about NX on the Paragon.\n\
         - TP tracks PS until switches get expensive AND flight windows exceed the\n\
           ready-queue cycle; then the partial switch starts paying for itself.\n\
         - Latency controls the waiting-thread population (Figure 13's x-axis in\n\
           disguise): more flight time, more parked threads, more scan work for WQ."
    );
}
