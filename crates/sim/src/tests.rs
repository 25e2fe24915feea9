//! Behavioural tests for the simulator: determinism, conservation, and
//! the qualitative orderings the paper reports.

use chant_core::PollingPolicy;

use crate::engine::{simulate, Engine, SimError};
use crate::experiments::{
    pingpong, pingpong_once, polling_run, wq_testany_comparison, PollingConfig, PAPER_SIZES,
};
use crate::program::{LayerMode, SimOp, SimProgram, ThreadSpec};
use crate::CostModel;

fn unit() -> CostModel {
    CostModel::abstract_unit()
}

fn two_vp_exchange() -> Vec<ThreadSpec> {
    vec![
        ThreadSpec {
            vp: 0,
            program: SimProgram::figure9(10, 5, 1, 0, 64, 4),
        },
        ThreadSpec {
            vp: 1,
            program: SimProgram::figure9(10, 5, 0, 0, 64, 4),
        },
    ]
}

#[test]
fn simple_exchange_completes_under_every_policy() {
    for policy in PollingPolicy::ALL {
        let m = simulate(
            2,
            unit(),
            LayerMode::Chant(policy),
            two_vp_exchange(),
        )
        .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert_eq!(m.sends(), 8, "{policy:?}");
        assert_eq!(m.recvs(), 8, "{policy:?}");
        assert!(m.total_ns > 0);
    }
}

#[test]
fn simulation_is_deterministic() {
    for policy in PollingPolicy::ALL {
        let run = || {
            polling_run(
                CostModel::paragon_polling(),
                policy,
                1_000,
                100,
                PollingConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.time_ms, b.time_ms, "{policy:?}");
        assert_eq!(a.full_switches, b.full_switches, "{policy:?}");
        assert_eq!(a.msgtest_attempted, b.msgtest_attempted, "{policy:?}");
        assert_eq!(a.avg_waiting, b.avg_waiting, "{policy:?}");
    }
}

#[test]
fn message_conservation_in_polling_workload() {
    let cfg = PollingConfig::default();
    for policy in PollingPolicy::ALL {
        let r = polling_run(CostModel::paragon_polling(), policy, 100, 100, cfg).unwrap();
        let expect = 2 * u64::from(cfg.threads_per_pe) * u64::from(cfg.iterations);
        assert_eq!(r.messages, expect, "{policy:?}");
    }
}

#[test]
fn deadlock_is_detected() {
    // One thread receives a message nobody sends.
    let threads = vec![ThreadSpec {
        vp: 0,
        program: SimProgram {
            ops: vec![SimOp::Recv { from_vp: 1, tag: 0 }],
            repeat: 1,
        },
    }];
    match simulate(
        2,
        unit(),
        LayerMode::Chant(PollingPolicy::SchedulerPollsWq),
        threads,
    ) {
        Err(SimError::Deadlock { live_per_vp }) => assert_eq!(live_per_vp, vec![1, 0]),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn event_budget_stops_runaway_tp_spin() {
    // TP spins with events; a never-satisfied receive must hit the budget
    // rather than loop forever.
    let threads = vec![ThreadSpec {
        vp: 0,
        program: SimProgram {
            ops: vec![SimOp::Recv { from_vp: 1, tag: 0 }],
            repeat: 1,
        },
    }];
    let mut engine = Engine::new(2, unit(), LayerMode::Chant(PollingPolicy::ThreadPolls));
    engine.add_threads(threads);
    engine.set_max_events(10_000);
    match engine.run() {
        Err(SimError::EventBudgetExhausted { .. }) => {}
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
}

#[test]
fn process_mode_pingpong_matches_closed_form() {
    // Per message = send_cpu + net + crecv_claim with the unit model:
    // 100 + (1000 + 0) + 100 = 1200 ns.
    let us = pingpong_once(unit(), LayerMode::Process, 0, 100).unwrap();
    let per_msg_ns = us * 1000.0;
    assert!(
        (per_msg_ns - 1200.0).abs() < 25.0,
        "per message {per_msg_ns}ns (startup amortized over 200 messages)"
    );
}

// ---------------------------------------------------------------------
// Qualitative reproductions of the paper's findings
// ---------------------------------------------------------------------

#[test]
fn table2_shape_process_beats_tp_beats_sp() {
    let rows = pingpong(CostModel::paragon_pingpong(), &PAPER_SIZES, 2_000).unwrap();
    for r in &rows {
        assert!(
            r.process_us < r.thread_tp_us && r.thread_tp_us < r.thread_sp_us,
            "ordering broken at {} bytes: {r:?}",
            r.msg_bytes
        );
        assert!(r.tp_overhead_pct > 0.0 && r.tp_overhead_pct < 20.0, "{r:?}");
        assert!(r.sp_overhead_pct < 35.0, "{r:?}");
    }
    // Overhead percentages shrink as messages grow (fixed costs amortize)
    // — the paper's Table 2 trend.
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    assert!(
        last.tp_overhead_pct < first.tp_overhead_pct,
        "TP overhead must shrink with size: {first:?} -> {last:?}"
    );
    assert!(
        last.sp_overhead_pct < first.sp_overhead_pct,
        "SP overhead must shrink with size: {first:?} -> {last:?}"
    );
}

#[test]
fn polling_shape_ps_fastest_wq_slowest() {
    // The paper's headline §4.2 finding at beta = 100.
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    for alpha in [100u64, 10_000] {
        let tp = polling_run(cost, PollingPolicy::ThreadPolls, alpha, 100, cfg).unwrap();
        let ps = polling_run(cost, PollingPolicy::SchedulerPollsPs, alpha, 100, cfg).unwrap();
        let wq = polling_run(cost, PollingPolicy::SchedulerPollsWq, alpha, 100, cfg).unwrap();
        // PS never loses to TP; in this simulated regime (queue cycle
        // longer than flight windows) they often tie, cf. EXPERIMENTS.md.
        assert!(
            ps.time_ms <= tp.time_ms + 1e-9,
            "alpha {alpha}: PS {} > TP {}",
            ps.time_ms,
            tp.time_ms
        );
        assert!(
            tp.time_ms < wq.time_ms,
            "alpha {alpha}: TP {} >= WQ {}",
            tp.time_ms,
            wq.time_ms
        );
    }
}

#[test]
fn polling_shape_wq_does_most_msgtests() {
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    let tp = polling_run(cost, PollingPolicy::ThreadPolls, 100, 100, cfg).unwrap();
    let ps = polling_run(cost, PollingPolicy::SchedulerPollsPs, 100, 100, cfg).unwrap();
    let wq = polling_run(cost, PollingPolicy::SchedulerPollsWq, 100, 100, cfg).unwrap();
    // Figure 12 compares *failed* tests; WQ's per-request table scans
    // dwarf the self-polling policies.
    assert!(
        wq.msgtest_failed > 2 * tp.msgtest_failed,
        "WQ {} vs TP {}",
        wq.msgtest_failed,
        tp.msgtest_failed
    );
    assert!(
        wq.msgtest_failed > 2 * ps.msgtest_failed,
        "WQ {} vs PS {}",
        wq.msgtest_failed,
        ps.msgtest_failed
    );
}

#[test]
fn polling_shape_tp_needs_more_full_switches_than_ps() {
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    for alpha in [100u64, 100_000] {
        let tp = polling_run(cost, PollingPolicy::ThreadPolls, alpha, 100, cfg).unwrap();
        let ps = polling_run(cost, PollingPolicy::SchedulerPollsPs, alpha, 100, cfg).unwrap();
        assert!(
            tp.full_switches >= ps.full_switches,
            "alpha {alpha}: TP {} < PS {}",
            tp.full_switches,
            ps.full_switches
        );
        assert_eq!(tp.partial_switches, 0, "TP never partial-switches");
    }
}

#[test]
fn ps_partial_switches_when_examinations_fail() {
    // Few threads and a long flight window make the queue cycle shorter
    // than the message flight, so the dispatcher repeatedly examines a
    // TCB whose message has not arrived: the partial switch of §4.2.
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig {
        threads_per_pe: 2,
        ..PollingConfig::default()
    };
    let ps = polling_run(cost, PollingPolicy::SchedulerPollsPs, 100, 100, cfg).unwrap();
    let tp = polling_run(cost, PollingPolicy::ThreadPolls, 100, 100, cfg).unwrap();
    assert!(
        ps.partial_switches > 100,
        "examinations must fail in this regime: {ps:?}"
    );
    // Where PS pays a partial switch, TP pays a full dispatch: the
    // paper's cost argument for PS over TP.
    assert!(
        tp.full_switches > 2 * ps.full_switches,
        "TP {} vs PS {} full switches",
        tp.full_switches,
        ps.full_switches
    );
    assert!(
        ps.time_ms < tp.time_ms,
        "PS {} must beat TP {} when examinations fail",
        ps.time_ms,
        tp.time_ms
    );
}

#[test]
fn waiting_grows_with_alpha() {
    // Figure 13: larger alpha widens the gap between a receive being
    // posted and the matching send happening, so more threads wait.
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    let small = polling_run(cost, PollingPolicy::SchedulerPollsPs, 100, 100, cfg).unwrap();
    let big = polling_run(cost, PollingPolicy::SchedulerPollsPs, 100_000, 100, cfg).unwrap();
    assert!(
        big.avg_waiting > small.avg_waiting,
        "waiting must grow with alpha: {} -> {}",
        small.avg_waiting,
        big.avg_waiting
    );
}

#[test]
fn testany_improves_wq() {
    // The paper's hypothesis: with a single msgtestany call, WQ's
    // relative performance should improve.
    let cost = CostModel::paragon_polling();
    let rows = wq_testany_comparison(cost, 100, &[100, 10_000], PollingConfig::default())
        .unwrap();
    for (wq, any) in rows {
        assert!(
            any.time_ms < wq.time_ms,
            "testany must beat per-request testing: {} vs {}",
            any.time_ms,
            wq.time_ms
        );
        assert!(any.testany_calls > 0);
        assert!(
            any.msgtest_attempted < wq.msgtest_attempted / 2,
            "testany replaces per-request msgtests"
        );
    }
}

#[test]
fn times_scale_with_alpha() {
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    for policy in [PollingPolicy::ThreadPolls, PollingPolicy::SchedulerPollsPs] {
        let small = polling_run(cost, policy, 100, 100, cfg).unwrap();
        let big = polling_run(cost, policy, 100_000, 100, cfg).unwrap();
        assert!(
            big.time_ms > small.time_ms * 1.5,
            "{policy:?}: {0} -> {1}",
            small.time_ms,
            big.time_ms
        );
    }
}

#[test]
fn waiting_threads_are_counted() {
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    let r = polling_run(cost, PollingPolicy::SchedulerPollsPs, 1_000, 100, cfg).unwrap();
    assert!(
        r.avg_waiting > 0.1,
        "some threads must wait on receives: {}",
        r.avg_waiting
    );
    assert!(
        r.avg_waiting < 24.0,
        "cannot exceed the thread population: {}",
        r.avg_waiting
    );
}

/// Calibration aid, not a regression test: dump the Table-3 analogue so
/// model parameters can be compared against the paper's numbers.
/// Run with: cargo test -p chant-sim dump_table3 -- --ignored --nocapture
#[test]
#[ignore = "diagnostic dump for calibration"]
fn dump_table3() {
    let cost = CostModel::paragon_polling();
    let cfg = PollingConfig::default();
    println!("policy                alpha   time_ms  ctxsw  partial  att    fail   wait");
    for &alpha in &[100u64, 1_000, 10_000, 100_000] {
        for policy in [
            PollingPolicy::ThreadPolls,
            PollingPolicy::SchedulerPollsPs,
            PollingPolicy::SchedulerPollsWq,
            PollingPolicy::SchedulerPollsWqTestany,
        ] {
            let r = polling_run(cost, policy, alpha, 100, cfg).unwrap();
            println!(
                "{:<22}{:<8}{:<9.0}{:<7}{:<9}{:<7}{:<7}{:.2}",
                r.policy.label(),
                alpha,
                r.time_ms,
                r.full_switches,
                r.partial_switches,
                r.msgtest_attempted,
                r.msgtest_failed,
                r.avg_waiting
            );
        }
    }
}

/// Parameter-sweep diagnostic.
#[test]
#[ignore = "diagnostic sweep for calibration"]
fn sweep_latency() {
    for lat_ms in [4u64, 6, 8, 12, 16] {
        let mut cost = CostModel::paragon_polling();
        cost.net_latency_ns = lat_ms * 1_000_000;
        let cfg = PollingConfig::default();
        for policy in [
            PollingPolicy::ThreadPolls,
            PollingPolicy::SchedulerPollsPs,
            PollingPolicy::SchedulerPollsWq,
        ] {
            let r = polling_run(cost, policy, 100, 100, cfg).unwrap();
            println!(
                "L={lat_ms}ms {:<22} time={:<6.0} ctxsw={:<6} part={:<6} fail={:<6} wait={:.2}",
                r.policy.label(),
                r.time_ms,
                r.full_switches,
                r.partial_switches,
                r.msgtest_failed,
                r.avg_waiting
            );
        }
    }
}

/// Diagnostic: print the Table-2 analogue next to the paper's values.
#[test]
#[ignore = "diagnostic dump for calibration"]
fn dump_table2() {
    let rows = pingpong(CostModel::paragon_pingpong(), &PAPER_SIZES, 20_000).unwrap();
    let paper = [
        (667.1, 710.8, 6.4, 773.7, 15.9),
        (917.0, 973.2, 6.1, 1126.5, 22.8),
        (1639.3, 1701.2, 3.8, 1828.8, 11.5),
        (2873.5, 2998.8, 4.3, 3130.8, 8.9),
        (5531.8, 5624.8, 1.7, 5689.0, 2.9),
    ];
    for (r, p) in rows.iter().zip(paper) {
        println!(
            "{:>6}B  proc {:>7.1} (paper {:>7.1})  TP {:>7.1}/{:>4.1}% (paper {:>7.1}/{:>4.1}%)  SP {:>7.1}/{:>4.1}% (paper {:>7.1}/{:>4.1}%)",
            r.msg_bytes, r.process_us, p.0, r.thread_tp_us, r.tp_overhead_pct, p.1, p.2,
            r.thread_sp_us, r.sp_overhead_pct, p.3, p.4
        );
    }
}

#[test]
fn trace_counts_are_consistent_with_metrics() {
    use crate::{Engine, TraceKind};
    let mut engine = Engine::new(
        2,
        CostModel::abstract_unit(),
        LayerMode::Chant(PollingPolicy::SchedulerPollsPs),
    );
    engine.add_threads(two_vp_exchange());
    engine.enable_trace();
    let metrics = engine.run().unwrap();
    let trace = engine.take_trace();

    let dispatches = trace.count(|e| matches!(e.kind, TraceKind::Dispatch { .. }));
    assert_eq!(
        dispatches as u64,
        metrics.full_switches() + metrics.vps.iter().map(|v| v.redispatches).sum::<u64>(),
        "every dispatch must be traced exactly once"
    );
    let sends = trace.count(|e| matches!(e.kind, TraceKind::Send { .. }));
    assert_eq!(sends as u64, metrics.sends());
    let arrivals = trace.count(|e| matches!(e.kind, TraceKind::Arrive { .. }));
    assert_eq!(arrivals as u64, metrics.sends(), "all sends arrive");
    let completions = trace.count(|e| matches!(e.kind, TraceKind::RecvComplete { .. }));
    assert_eq!(completions as u64, metrics.recvs());
    let done = trace.count(|e| matches!(e.kind, TraceKind::ThreadDone { .. }));
    assert_eq!(done, 2, "both threads finish");
    // Per-VP timestamps are monotone.
    for vp in 0..2 {
        let times: Vec<u64> = trace.for_vp(vp).map(|e| e.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "vp {vp} not monotone");
    }
}

#[test]
fn tracing_does_not_change_the_schedule() {
    use crate::Engine;
    let run = |traced: bool| {
        let mut engine = Engine::new(
            2,
            CostModel::paragon_polling(),
            LayerMode::Chant(PollingPolicy::SchedulerPollsWq),
        );
        engine.add_threads(two_vp_exchange());
        engine.set_compute_jitter(10, 42);
        if traced {
            engine.enable_trace();
        }
        engine.run().unwrap()
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.total_ns, b.total_ns);
    assert_eq!(a.full_switches(), b.full_switches());
    assert_eq!(a.msgtest_attempted(), b.msgtest_attempted());
}

#[test]
fn pingpong_tp_single_thread_uses_self_redispatch() {
    // Paper §4.1: with one thread per PE, TP's failed polls must be
    // self-redispatches, not full switches.
    use crate::engine::simulate;
    let threads = vec![
        ThreadSpec {
            vp: 0,
            program: SimProgram::ping(1, 0, 1024, 50),
        },
        ThreadSpec {
            vp: 1,
            program: SimProgram::pong(0, 0, 1024, 50),
        },
    ];
    let m = simulate(
        2,
        CostModel::paragon_pingpong(),
        LayerMode::Chant(PollingPolicy::ThreadPolls),
        threads,
    )
    .unwrap();
    let redispatches: u64 = m.vps.iter().map(|v| v.redispatches).sum();
    assert!(redispatches > 10, "lone TP thread must self-redispatch");
    assert!(
        m.full_switches() <= 4,
        "only startup dispatches may be full switches: {}",
        m.full_switches()
    );
}

#[test]
fn pingpong_sp_single_thread_pays_full_switches() {
    // The same workload under scheduler-polls: every resume is a restore
    // from the blocked state — the context switch Table 2's SP column
    // pays per message.
    use crate::engine::simulate;
    let threads = vec![
        ThreadSpec {
            vp: 0,
            program: SimProgram::ping(1, 0, 1024, 50),
        },
        ThreadSpec {
            vp: 1,
            program: SimProgram::pong(0, 0, 1024, 50),
        },
    ];
    let m = simulate(
        2,
        CostModel::paragon_pingpong(),
        LayerMode::Chant(PollingPolicy::SchedulerPollsWq),
        threads,
    )
    .unwrap();
    assert!(
        m.full_switches() as f64 >= 0.8 * 100.0,
        "SP must pay ~one full switch per message: {}",
        m.full_switches()
    );
}

#[test]
fn a_recorded_cost_model_with_the_old_lane_field_still_loads() {
    // Models recorded while the simulator had lanes carry
    // `"vps_per_pe": 1`; deserializing ignores fields it does not know.
    let v = serde::Serialize::serialize(&CostModel::paragon_polling());
    let mut m = match v {
        serde::Value::Object(m) => m,
        other => panic!("expected object, got {other:?}"),
    };
    m.insert("vps_per_pe".to_string(), serde::Serialize::serialize(&1u32));
    let old: CostModel =
        serde::Deserialize::deserialize(&serde::Value::Object(m)).expect("recorded model loads");
    assert_eq!(old, CostModel::paragon_polling());
}
