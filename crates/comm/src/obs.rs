//! Endpoint instrumentation glue.
//!
//! Each endpoint registers one `chant-obs` lane (named `ep<pe>.<proc>`)
//! at construction and caches the histogram handles its delivery paths
//! record into. Endpoints built while no tracer is installed carry
//! `None` and stay silent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use chant_obs::{Histogram, LaneHandle};

use crate::header::Address;

/// Per-endpoint observability handles.
pub(crate) struct EpObs {
    /// The endpoint's trace lane.
    pub lane: LaneHandle,
    /// Posted-receive wait: irecv post → matching message delivery, ns
    /// (the latency a pre-posted zero-copy receive actually waited).
    pub recv_wait_ns: Arc<Histogram>,
    /// Unexpected-message park: arrival → claim by a receive, ns (the
    /// time a message sat in the "system buffer" the paper's pre-posted
    /// path avoids).
    pub unexpected_park_ns: Arc<Histogram>,
    /// Origin PE half of this endpoint's wire-level trace ids.
    origin_pe: u32,
    /// Next local sequence number; starts at 1 so id `0` stays the
    /// "untraced" sentinel.
    next_seq: AtomicU64,
}

impl EpObs {
    /// Register a lane for the endpoint at `addr`, if a tracer is active.
    pub fn register(addr: Address) -> Option<EpObs> {
        let lane = chant_obs::tracer::register_lane(&format!("ep{}.{}", addr.pe, addr.process))?;
        let reg = chant_obs::registry();
        Some(EpObs {
            lane,
            recv_wait_ns: reg.histogram("comm.recv_wait_ns"),
            unexpected_park_ns: reg.histogram("comm.unexpected_park_ns"),
            origin_pe: addr.pe,
            next_seq: AtomicU64::new(1),
        })
    }

    /// Allocate the next `(origin_pe, seq)` wire-level trace id.
    pub fn next_trace_id(&self) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        chant_obs::trace_id::pack(self.origin_pe, seq)
    }
}
