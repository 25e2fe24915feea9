//! Sensitivity analysis: how the paper's conclusions depend on the
//! machine's cost parameters.
//!
//! The paper's ranking (PS ≤ TP ≪ WQ) was measured on one machine, the
//! Paragon, whose `msgtest` was an expensive kernel trap. These sweeps
//! ask the engineering questions a Chant adopter would: on a machine
//! with cheap tests, is WQ still bad? How large must the context-switch
//! cost be before TP's wasted dispatches hurt? How does message latency
//! move the waiting-thread population? Each sweep varies exactly one
//! parameter of [`CostModel`] and replays the Figure-9 workload.

use chant_core::PollingPolicy;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::engine::SimError;
use crate::experiments::{polling_run, PollingConfig, PollingRun};
use crate::Ns;

/// Which cost-model parameter a sweep varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepParam {
    /// `msgtest_ns` — the per-test cost driving WQ's scan penalty.
    MsgtestCost,
    /// `ctxsw_full_ns` — the full-switch cost driving TP's penalty.
    FullSwitchCost,
    /// `net_latency_ns` — flight time, driving the waiting population.
    NetLatency,
    /// `recv_post_ns` — receive posting cost (per-message fixed cost).
    RecvPostCost,
}

impl SweepParam {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            SweepParam::MsgtestCost => "msgtest cost",
            SweepParam::FullSwitchCost => "full context-switch cost",
            SweepParam::NetLatency => "network latency",
            SweepParam::RecvPostCost => "receive posting cost",
        }
    }

    fn apply(self, base: CostModel, value: Ns) -> CostModel {
        let mut c = base;
        match self {
            SweepParam::MsgtestCost => c.msgtest_ns = value,
            SweepParam::FullSwitchCost => c.ctxsw_full_ns = value,
            SweepParam::NetLatency => c.net_latency_ns = value,
            SweepParam::RecvPostCost => c.recv_post_ns = value,
        }
        c
    }

    /// The parameter's value in the given model.
    pub fn read(self, c: &CostModel) -> Ns {
        match self {
            SweepParam::MsgtestCost => c.msgtest_ns,
            SweepParam::FullSwitchCost => c.ctxsw_full_ns,
            SweepParam::NetLatency => c.net_latency_ns,
            SweepParam::RecvPostCost => c.recv_post_ns,
        }
    }
}

/// One sweep point: the parameter value and the three policies' results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Swept parameter value (ns).
    pub value: Ns,
    /// Thread polls result.
    pub tp: PollingRun,
    /// Scheduler polls (PS) result.
    pub ps: PollingRun,
    /// Scheduler polls (WQ) result.
    pub wq: PollingRun,
}

impl SweepPoint {
    /// WQ time relative to PS — the paper's headline penalty.
    pub fn wq_over_ps(&self) -> f64 {
        self.wq.time_ms / self.ps.time_ms
    }

    /// TP time relative to PS.
    pub fn tp_over_ps(&self) -> f64 {
        self.tp.time_ms / self.ps.time_ms
    }
}

/// Sweep one parameter across the given values, running all three paper
/// policies at each point.
pub fn sweep(
    param: SweepParam,
    values: &[Ns],
    alpha: u64,
    beta: u64,
    cfg: PollingConfig,
) -> Result<Vec<SweepPoint>, SimError> {
    let base = CostModel::paragon_polling();
    let mut out = Vec::with_capacity(values.len());
    for &v in values {
        let cost = param.apply(base, v);
        out.push(SweepPoint {
            value: v,
            tp: polling_run(cost, PollingPolicy::ThreadPolls, alpha, beta, cfg)?,
            ps: polling_run(cost, PollingPolicy::SchedulerPollsPs, alpha, beta, cfg)?,
            wq: polling_run(cost, PollingPolicy::SchedulerPollsWq, alpha, beta, cfg)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PollingConfig {
        PollingConfig {
            iterations: 40, // keep sweeps quick
            ..PollingConfig::default()
        }
    }

    #[test]
    fn wq_penalty_grows_with_msgtest_cost() {
        let points = sweep(
            SweepParam::MsgtestCost,
            &[50_000, 350_000, 1_000_000],
            100,
            100,
            cfg(),
        )
        .unwrap();
        let penalties: Vec<f64> = points.iter().map(SweepPoint::wq_over_ps).collect();
        assert!(
            penalties.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "WQ/PS must be monotone in msgtest cost: {penalties:?}"
        );
        assert!(
            penalties[2] > penalties[0] + 0.1,
            "an order of magnitude in test cost must show: {penalties:?}"
        );
    }

    #[test]
    fn waiting_population_grows_as_latency_rises() {
        // Within the regime where first tests race the partner's send
        // (latency above the per-slot post+test time); at very low
        // latency the workload changes regime entirely (receives complete
        // at first test and threads stop yielding).
        let points = sweep(
            SweepParam::NetLatency,
            &[4_000_000, 8_000_000, 16_000_000],
            100,
            100,
            cfg(),
        )
        .unwrap();
        let waits: Vec<f64> = points.iter().map(|p| p.ps.avg_waiting).collect();
        assert!(
            waits.windows(2).all(|w| w[0] < w[1]),
            "waiting threads must grow with latency: {waits:?}"
        );
    }

    #[test]
    fn param_apply_and_read_roundtrip() {
        let base = CostModel::paragon_polling();
        for p in [
            SweepParam::MsgtestCost,
            SweepParam::FullSwitchCost,
            SweepParam::NetLatency,
            SweepParam::RecvPostCost,
        ] {
            let c = p.apply(base, 123_456);
            assert_eq!(p.read(&c), 123_456, "{p:?}");
        }
    }

    #[test]
    fn times_scale_with_per_message_fixed_costs() {
        let points = sweep(
            SweepParam::RecvPostCost,
            &[100_000, 700_000, 1_400_000],
            100,
            100,
            cfg(),
        )
        .unwrap();
        let times: Vec<f64> = points.iter().map(|p| p.ps.time_ms).collect();
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "PS time must grow with recv-post cost: {times:?}"
        );
    }
}
