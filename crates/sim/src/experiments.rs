//! Packaged experiments: one driver per table/figure of the paper.
//!
//! * [`pingpong`] — Table 2 / Figure 8: per-message time of raw
//!   process-to-process NX traffic vs thread-to-thread Chant traffic
//!   under the Thread-polls and Scheduler-polls policies.
//! * [`polling`] — Tables 3–5 / Figures 10–13: the Figure-9 workload
//!   (2 PEs × 12 threads × 100 iterations of
//!   `compute(α); send; compute(β); recv`) under each polling policy,
//!   reporting Time, context switches, `msgtest` calls, and the average
//!   number of waiting threads.

use chant_core::PollingPolicy;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::engine::{simulate, Engine, SimError};
use crate::program::{LayerMode, SimProgram, ThreadSpec};

/// One row of the Table-2 reproduction.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PingpongPoint {
    /// Message size in bytes.
    pub msg_bytes: u32,
    /// Per-message time, raw process-to-process (µs).
    pub process_us: f64,
    /// Per-message time, Chant threads with Thread-polls (µs).
    pub thread_tp_us: f64,
    /// TP overhead relative to Process (%).
    pub tp_overhead_pct: f64,
    /// Per-message time, Chant threads with Scheduler-polls (µs).
    pub thread_sp_us: f64,
    /// SP overhead relative to Process (%).
    pub sp_overhead_pct: f64,
}

/// Run one ping-pong measurement in the given mode and return the
/// per-message time in microseconds (an "exchange" is one send in each
/// direction, i.e. two messages per iteration).
pub fn pingpong_once(
    cost: CostModel,
    mode: LayerMode,
    msg_bytes: u32,
    iterations: u32,
) -> Result<f64, SimError> {
    let threads = vec![
        ThreadSpec {
            vp: 0,
            program: SimProgram::ping(1, 0, msg_bytes, iterations),
        },
        ThreadSpec {
            vp: 1,
            program: SimProgram::pong(0, 0, msg_bytes, iterations),
        },
    ];
    let metrics = simulate(2, cost, mode, threads)?;
    Ok(metrics.time_us() / (2.0 * f64::from(iterations)))
}

/// Reproduce Table 2 / Figure 8 for the given message sizes.
///
/// "Thread (SP)" is the scheduler-polls configuration of the paper's
/// §4.1 experiment: the blocked thread leaves the ready queue and the
/// scheduler polls for it, "forcing a context switch for each message
/// received" — the WQ algorithm with a single outstanding request.
pub fn pingpong(
    cost: CostModel,
    sizes: &[u32],
    iterations: u32,
) -> Result<Vec<PingpongPoint>, SimError> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let process = pingpong_once(cost, LayerMode::Process, size, iterations)?;
        let tp = pingpong_once(
            cost,
            LayerMode::Chant(PollingPolicy::ThreadPolls),
            size,
            iterations,
        )?;
        let sp = pingpong_once(
            cost,
            LayerMode::Chant(PollingPolicy::SchedulerPollsWq),
            size,
            iterations,
        )?;
        rows.push(PingpongPoint {
            msg_bytes: size,
            process_us: process,
            thread_tp_us: tp,
            tp_overhead_pct: 100.0 * (tp - process) / process,
            thread_sp_us: sp,
            sp_overhead_pct: 100.0 * (sp - process) / process,
        });
    }
    Ok(rows)
}

/// Configuration of the Figure-9 polling workload.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PollingConfig {
    /// Processing elements (the paper used 2).
    pub pes: usize,
    /// Threads per PE (the paper used 12).
    pub threads_per_pe: u32,
    /// Iterations of the send/receive loop per thread (the paper: 100).
    pub iterations: u32,
    /// Message body size in bytes (unreported in the paper; the
    /// calibrated cost model folds transfer cost into fixed costs, so 0).
    pub msg_bytes: u32,
    /// Multiplicative compute-noise amplitude (percent). Real machines
    /// de-phase the threads; 0 would keep the pairs in deterministic
    /// lockstep and no receive would ever wait.
    pub jitter_pct: u64,
    /// Seed for the deterministic noise generator.
    pub jitter_seed: u64,
}

impl Default for PollingConfig {
    fn default() -> Self {
        PollingConfig {
            pes: 2,
            threads_per_pe: 12,
            iterations: 100,
            msg_bytes: 0,
            jitter_pct: 10,
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

/// One row of the Tables-3/4/5 reproduction.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PollingRun {
    /// Polling policy under test.
    pub policy: PollingPolicy,
    /// Figure-9 α (compute units before the send).
    pub alpha: u64,
    /// Figure-9 β (compute units before the receive).
    pub beta: u64,
    /// Total running time (ms) — the paper's "Time".
    pub time_ms: f64,
    /// Complete context switches — the paper's "CtxSw".
    pub full_switches: u64,
    /// Partial switches (PS only; not in the paper's tables but called
    /// out in its §4.2 description).
    pub partial_switches: u64,
    /// `msgtest` calls attempted.
    pub msgtest_attempted: u64,
    /// `msgtest` calls that failed — the paper's Figure 12 series.
    pub msgtest_failed: u64,
    /// `msgtestany` calls (WQ+testany ablation only).
    pub testany_calls: u64,
    /// Average threads waiting on outstanding receives — Figure 13.
    pub avg_waiting: f64,
    /// Messages transferred (sanity: 2 × threads × iterations).
    pub messages: u64,
}

/// Run the Figure-9 workload once.
pub fn polling_run(
    cost: CostModel,
    policy: PollingPolicy,
    alpha: u64,
    beta: u64,
    cfg: PollingConfig,
) -> Result<PollingRun, SimError> {
    assert!(cfg.pes >= 2 && cfg.pes.is_multiple_of(2), "PEs must pair up");
    // One simulated VP per PE; thread t pairs with the partner PE's
    // thread t.
    let mut threads = Vec::new();
    for pe in 0..cfg.pes {
        let partner = pe ^ 1; // pairwise partnership, as in the paper
        for t in 0..cfg.threads_per_pe {
            threads.push(ThreadSpec {
                vp: pe,
                program: SimProgram::figure9(
                    alpha,
                    beta,
                    partner,
                    t,
                    cfg.msg_bytes,
                    cfg.iterations,
                ),
            });
        }
    }
    let mut engine = Engine::new(cfg.pes, cost, LayerMode::Chant(policy));
    engine.add_threads(threads);
    engine.set_compute_jitter(cfg.jitter_pct, cfg.jitter_seed);
    let metrics = engine.run()?;
    Ok(PollingRun {
        policy,
        alpha,
        beta,
        time_ms: metrics.time_ms(),
        full_switches: metrics.full_switches(),
        partial_switches: metrics.partial_switches(),
        msgtest_attempted: metrics.msgtest_attempted(),
        msgtest_failed: metrics.msgtest_failed(),
        testany_calls: metrics.testany_calls(),
        avg_waiting: metrics.avg_waiting_threads(),
        messages: metrics.recvs(),
    })
}

/// Reproduce one of Tables 3–5: sweep α for a fixed β under the three
/// paper policies (TP, PS, WQ).
pub fn polling_table(
    cost: CostModel,
    beta: u64,
    alphas: &[u64],
    cfg: PollingConfig,
) -> Result<Vec<PollingRun>, SimError> {
    let policies = [
        PollingPolicy::ThreadPolls,
        PollingPolicy::SchedulerPollsPs,
        PollingPolicy::SchedulerPollsWq,
    ];
    let mut rows = Vec::new();
    for &alpha in alphas {
        for policy in policies {
            rows.push(polling_run(cost, policy, alpha, beta, cfg)?);
        }
    }
    Ok(rows)
}

/// The paper's §4.2 hypothesis: re-run the WQ policy with native
/// `msgtestany` support and compare against per-request testing.
pub fn wq_testany_comparison(
    cost: CostModel,
    beta: u64,
    alphas: &[u64],
    cfg: PollingConfig,
) -> Result<Vec<(PollingRun, PollingRun)>, SimError> {
    let mut rows = Vec::new();
    for &alpha in alphas {
        let wq = polling_run(cost, PollingPolicy::SchedulerPollsWq, alpha, beta, cfg)?;
        let any = polling_run(
            cost,
            PollingPolicy::SchedulerPollsWqTestany,
            alpha,
            beta,
            cfg,
        )?;
        rows.push((wq, any));
    }
    Ok(rows)
}

/// The α values used throughout the paper's §4.2.
pub const PAPER_ALPHAS: [u64; 4] = [100, 1_000, 10_000, 100_000];

/// The message sizes of Table 2.
pub const PAPER_SIZES: [u32; 5] = [1024, 2048, 4096, 8192, 16384];
