//! The process-wide tracer: lane registration and event collection.
//!
//! A *lane* is one horizontal track in the exported timeline — a
//! virtual processor, a communication endpoint, or a simulated PE.
//! Each lane owns one [`EventRing`], so emission never crosses lanes
//! and never takes a lock: instrumented components call
//! [`register_lane`] once at construction and keep the returned
//! [`LaneHandle`], whose [`emit`](LaneHandle::emit) is a timestamp read
//! plus a lock-free ring push.
//!
//! The tracer is installed explicitly ([`install`]) *before* the
//! runtime under observation is constructed; components built while no
//! tracer is installed get `None` from [`register_lane`] and skip
//! emission with a single branch. That branch is the only switch:
//! every build of the runtime carries the instrumentation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::event::{Event, LaneTrace, TimedEvent};
use crate::ring::EventRing;

/// Default ring capacity per lane (events). At 16 bytes/event this is
/// 4 MiB per lane — enough for several seconds of saturated tracing.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 18;

/// How a lane's ring behaves when it fills.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RingMode {
    /// Drop new events and count them (the PR 2 contract: tracing must
    /// never perturb the scheduling it observes, and a full capture is
    /// a capture failure you size the ring out of).
    #[default]
    DropNewest,
    /// Flight recorder: evict the oldest event to admit the newest, so
    /// each lane always holds the most recent `capacity` events. For
    /// long-running nodes where the interesting window is the seconds
    /// *before* a failure, dumped on `NodeUnreachable`, retry
    /// exhaustion, or panic.
    KeepLatest,
}

struct LaneInner {
    name: String,
    ring: EventRing,
    mode: RingMode,
}

/// A registered lane's emission handle. Cheap to clone; cache it in the
/// instrumented component and call [`emit`](LaneHandle::emit) from hot
/// paths.
#[derive(Clone)]
pub struct LaneHandle {
    inner: Arc<LaneInner>,
    epoch: Instant,
}

impl LaneHandle {
    /// Record `event` now (nanoseconds since the tracer's epoch).
    /// Lock-free; drops (and counts) the event if the lane's ring is
    /// full.
    #[inline]
    pub fn emit(&self, event: Event) {
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        self.emit_at(ts_ns, event);
    }

    /// Record `event` with an explicit timestamp (used when the caller
    /// measured the instant itself, e.g. the start of a span it is
    /// reporting after the fact).
    #[inline]
    pub fn emit_at(&self, ts_ns: u64, event: Event) {
        match self.inner.mode {
            RingMode::DropNewest => {
                self.inner.ring.push(TimedEvent { ts_ns, event });
            }
            RingMode::KeepLatest => self.inner.ring.push_keep_latest(TimedEvent { ts_ns, event }),
        }
    }

    /// Nanoseconds since the tracer's epoch — the same clock
    /// [`emit`](LaneHandle::emit) stamps with.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The lane's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }
}

/// The collector behind the global [`install`]/[`drain`] entry points.
pub struct Tracer {
    epoch: Instant,
    lane_capacity: usize,
    mode: RingMode,
    lanes: Mutex<Vec<Arc<LaneInner>>>,
}

impl Tracer {
    fn new(lane_capacity: usize, mode: RingMode) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            lane_capacity,
            mode,
            lanes: Mutex::new(Vec::new()),
        }
    }

    fn register(&self, name: &str) -> LaneHandle {
        let inner = Arc::new(LaneInner {
            name: name.to_string(),
            ring: EventRing::new(self.lane_capacity),
            mode: self.mode,
        });
        self.lanes.lock().push(Arc::clone(&inner));
        LaneHandle {
            inner,
            epoch: self.epoch,
        }
    }

    fn drain(&self) -> Vec<LaneTrace> {
        let mut lanes = self.lanes.lock();
        let traces = lanes
            .iter()
            .map(|l| LaneTrace {
                name: l.name.clone(),
                events: l.ring.drain(),
                dropped: l.ring.dropped(),
            })
            .collect();
        // Retire lanes no handle refers to anymore: their components
        // are gone, so they can never emit again. Without this, a
        // process that builds runtimes in sequence (e.g. one cluster
        // per polling policy) re-exports every dead predecessor lane,
        // empty, on each subsequent drain.
        lanes.retain(|l| Arc::strong_count(l) > 1);
        traces
    }
}

/// `true` while a tracer is installed. Relaxed is sufficient: this flag
/// only gates whether lanes register; emission goes through handles that
/// carry their own ring reference.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static TRACER: Mutex<Option<Arc<Tracer>>> = Mutex::new(None);

/// Install the process-wide tracer with [`DEFAULT_LANE_CAPACITY`]
/// events per lane. Returns `false` if one is already installed.
///
/// Must run *before* constructing the runtime to be observed: lanes
/// register at component construction, and components built while no
/// tracer is installed stay silent for their lifetime.
pub fn install() -> bool {
    install_with_capacity(DEFAULT_LANE_CAPACITY)
}

/// [`install`] with an explicit per-lane ring capacity (rounded up to a
/// power of two).
pub fn install_with_capacity(lane_capacity: usize) -> bool {
    install_with(lane_capacity, RingMode::DropNewest)
}

/// [`install`] with an explicit per-lane ring capacity *and* ring mode.
/// `RingMode::KeepLatest` turns every lane into a flight recorder
/// holding the most recent `lane_capacity` events.
pub fn install_with(lane_capacity: usize, mode: RingMode) -> bool {
    let mut slot = TRACER.lock();
    if slot.is_some() {
        return false;
    }
    *slot = Some(Arc::new(Tracer::new(lane_capacity, mode)));
    ACTIVE.store(true, Ordering::Relaxed);
    true
}

/// Nanoseconds since the installed tracer's epoch — the clock every
/// lane stamps with, readable without a lane. `None` when no tracer is
/// installed. This is the timestamp the clock-offset probes exchange:
/// two processes comparing these values (through
/// [`crate::clock::estimate_offset`]) learn the shift that maps one
/// process's trace timeline onto the other's.
pub fn global_now_ns() -> Option<u64> {
    if !active() {
        return None;
    }
    TRACER
        .lock()
        .as_ref()
        .map(|t| t.epoch.elapsed().as_nanos() as u64)
}

/// Whether a tracer is currently installed.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The installed tracer's ring mode, `None` when no tracer is
/// installed. Lets failure paths ask "is this process a flight
/// recorder?" before spending a drain + file write on a dump.
pub fn mode() -> Option<RingMode> {
    TRACER.lock().as_ref().map(|t| t.mode)
}

/// Register a lane with the installed tracer. Returns `None` (one
/// relaxed load, one branch) when tracing is not active, so
/// instrumented constructors can call this unconditionally.
pub fn register_lane(name: &str) -> Option<LaneHandle> {
    if !active() {
        return None;
    }
    TRACER.lock().as_ref().map(|t| t.register(name))
}

/// Drain every lane's buffered events, leaving the tracer installed so
/// the run can continue recording. Lanes appear in registration order;
/// events within a lane are in emission order.
pub fn drain() -> Vec<LaneTrace> {
    TRACER
        .lock()
        .as_ref()
        .map(|t| t.drain())
        .unwrap_or_default()
}

/// Drain every lane and uninstall the tracer. Existing [`LaneHandle`]s
/// keep their rings alive and may still emit, but nothing will collect
/// those events.
pub fn uninstall() -> Vec<LaneTrace> {
    let tracer = TRACER.lock().take();
    ACTIVE.store(false, Ordering::Relaxed);
    tracer.map(|t| t.drain()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole install → register → emit → drain →
    // uninstall cycle: the global is process-wide, so the steps must
    // run in one sequence rather than as independent tests.
    #[test]
    fn lifecycle() {
        assert!(!active());
        assert!(register_lane("early").is_none());
        assert!(install_with_capacity(64));
        assert!(!install(), "double install must be rejected");
        assert!(active());

        let a = register_lane("pe0.0").unwrap();
        let b = register_lane("pe1.0").unwrap();
        a.emit(Event::Dispatch {
            thread: 1,
            full_switch: true,
        });
        a.emit(Event::Yield { thread: 1 });
        b.emit(Event::Idle);

        let lanes = drain();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].name, "pe0.0");
        assert_eq!(lanes[0].events.len(), 2);
        assert!(lanes[0].events[0].ts_ns <= lanes[0].events[1].ts_ns);
        assert_eq!(lanes[1].name, "pe1.0");
        assert_eq!(lanes[1].events.len(), 1);
        assert_eq!(lanes[0].dropped, 0);

        // drain() left the tracer installed and the rings empty.
        a.emit(Event::Idle);
        assert!(global_now_ns().is_some());
        let again = uninstall();
        assert_eq!(again[0].events.len(), 1);
        assert!(!active());
        assert!(register_lane("late").is_none());
        assert!(global_now_ns().is_none());

        // Flight-recorder install: lanes keep the last N events.
        assert!(install_with(4, RingMode::KeepLatest));
        let fr = register_lane("fr").unwrap();
        for i in 0..40u32 {
            fr.emit(Event::Unblock { thread: i });
        }
        let lanes = uninstall();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].events.len(), 4);
        assert_eq!(lanes[0].dropped, 0);
        let kept: Vec<u32> = lanes[0]
            .events
            .iter()
            .filter_map(|e| e.event.thread())
            .collect();
        assert_eq!(kept, vec![36, 37, 38, 39]);
    }
}
