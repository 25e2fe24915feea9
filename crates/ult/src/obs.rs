//! Scheduler instrumentation glue.
//!
//! Each VP registers one `chant-obs` lane (named after the VP) at
//! construction and caches the handles it needs on hot paths: the lane
//! for event emission and two registry histograms for latency
//! attribution. When no tracer is installed the VP carries `None` and
//! every emission site is one branch.

use std::sync::Arc;

use chant_obs::{Event, Histogram, LaneHandle};

/// Per-VP observability handles, cached at VP construction.
pub(crate) struct VpObs {
    /// The VP's trace lane.
    pub lane: LaneHandle,
    /// Time threads of this VP spent Blocked (block → unblock), ns.
    pub blocked_ns: Arc<Histogram>,
    /// Time the scheduler spent finding a dispatchable thread at each
    /// schedule point that dispatched, ns.
    pub sched_point_ns: Arc<Histogram>,
}

impl VpObs {
    /// Register a lane for the VP named `name`, if a tracer is active.
    pub fn register(name: &str) -> Option<VpObs> {
        let lane = chant_obs::tracer::register_lane(name)?;
        let reg = chant_obs::registry();
        Some(VpObs {
            lane,
            blocked_ns: reg.histogram("ult.blocked_ns"),
            sched_point_ns: reg.histogram("ult.sched_point_ns"),
        })
    }

    /// Emit `event` on the VP's lane.
    #[inline]
    pub fn emit(&self, event: Event) {
        self.lane.emit(event);
    }
}
