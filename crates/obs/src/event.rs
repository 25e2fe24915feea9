//! The unified event model.
//!
//! One vocabulary for everything the paper counts: the scheduler's
//! dispatch/block/yield cycle (Tables 3–5's "CtxSw" column), the
//! communication layer's send/arrive/match activity, the completion
//! inquiries (`msgtest`, Figure 12), and the remote-service server's
//! request handling (§3.2). Both the live runtime (via the `trace`
//! features of `chant-ult`/`chant-comm`/`chant-core`) and the simulator
//! (`chant_sim::Trace`, via a lossless `From` impl) emit these, so one
//! exporter renders either into the same Chrome-trace/Perfetto JSON.

use serde::{Deserialize, Serialize};

/// Helpers for the wire-level trace id: a per-message `(origin_pe,
/// seq)` pair packed into one `u64` (16 bits of origin PE, 48 bits of
/// per-endpoint sequence). `0` is reserved for "no id" (control frames
/// allocated before tracing was installed, pre-trace peers).
pub mod trace_id {
    /// Bits of the packed id carrying the sequence number.
    pub const SEQ_BITS: u32 = 48;
    /// Mask selecting the sequence bits.
    pub const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

    /// Pack `(origin_pe, seq)` into one id. The PE is truncated to 16
    /// bits and the sequence to 48 — both far beyond any cluster this
    /// runtime addresses.
    pub fn pack(origin_pe: u32, seq: u64) -> u64 {
        ((origin_pe as u64 & 0xFFFF) << SEQ_BITS) | (seq & SEQ_MASK)
    }

    /// Unpack an id into `(origin_pe, seq)`.
    pub fn unpack(id: u64) -> (u32, u64) {
        ((id >> SEQ_BITS) as u32, id & SEQ_MASK)
    }

    /// Render an id as the `origin:seq` string the Perfetto flow
    /// arrows and merge tool key on.
    pub fn display(id: u64) -> String {
        let (pe, seq) = unpack(id);
        format!("{pe}:{seq}")
    }
}

/// What the fault shim did to a message (the annotated first-class
/// fault events of the distributed-tracing layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The message was silently discarded.
    Drop,
    /// A duplicate copy was scheduled for delivery.
    Duplicate,
    /// Delivery was deferred by the shim's latency draw.
    Delay,
    /// The message was held back past a later one.
    Reorder,
}

impl FaultKind {
    /// Short display name (also the Chrome-trace event name suffix).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "dup",
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
        }
    }
}

/// One traced occurrence on a lane (a VP, an endpoint, or a simulated
/// processor). `Copy` and small on purpose: events travel through the
/// lock-free ring by value and must never tear.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A thread's context was restored (or it was re-dispatched without
    /// a switch when `full_switch` is false).
    Dispatch {
        /// Thread id within the lane.
        thread: u32,
        /// Complete context switch vs same-thread re-dispatch.
        full_switch: bool,
    },
    /// A candidate's pending request failed its pre-dispatch test and
    /// the TCB was requeued without restoring its context (the PS
    /// policy's partial switch, paper §4.2).
    PartialSwitch {
        /// Thread id within the lane.
        thread: u32,
    },
    /// A thread blocked waiting for an explicit wakeup (a receive under
    /// a scheduler-polls policy, a join, a condition wait).
    Block {
        /// Thread id within the lane.
        thread: u32,
    },
    /// A blocked thread was made ready again.
    Unblock {
        /// Thread id within the lane.
        thread: u32,
    },
    /// A running thread voluntarily yielded the processor.
    Yield {
        /// Thread id within the lane.
        thread: u32,
    },
    /// The lane went idle: nothing runnable until an external event.
    Idle,
    /// A thread finished (returned, panicked, or was cancelled).
    ThreadDone {
        /// Thread id within the lane.
        thread: u32,
    },
    /// A message left this lane.
    Send {
        /// Destination lane-local identifier (VP index or PE).
        to: u32,
        /// Matching tag.
        tag: i32,
    },
    /// A message arrived at this lane.
    Arrive {
        /// Source lane-local identifier (VP index or PE).
        from: u32,
        /// Matching tag.
        tag: i32,
        /// Whether a posted receive was waiting (the zero-copy path) —
        /// false when the message was parked unexpected, and false for
        /// sources (like the simulator) that do not distinguish.
        posted: bool,
    },
    /// A receive completed and its message was claimed.
    RecvComplete {
        /// Thread id within the lane (0 when unknown).
        thread: u32,
    },
    /// One `msgtest` completion inquiry (NX `msgdone`).
    Msgtest {
        /// Whether the tested request was complete.
        ok: bool,
    },
    /// One `msgtestany` completion inquiry (MPI `MPI_TEST_ANY`).
    Testany {
        /// Whether any covered request was complete.
        ready: bool,
    },
    /// The RSR server thread took a request in hand (paper §3.2).
    RsrServe {
        /// Requested function id.
        fn_id: u32,
    },
    /// The RSR server finished a request (reply sent or fire-and-forget
    /// handler returned).
    RsrDone {
        /// Requested function id.
        fn_id: u32,
    },
    /// A message left this lane carrying a wire-level trace id — the
    /// causal half-edge the cluster merge tool connects to its
    /// [`Event::MsgRecv`] with a Perfetto flow arrow.
    MsgSend {
        /// Destination PE.
        to: u32,
        /// Matching tag.
        tag: i32,
        /// Packed `(origin_pe, seq)` trace id (see [`trace_id`]).
        id: u64,
    },
    /// A message with a wire-level trace id arrived at this lane.
    MsgRecv {
        /// Source PE.
        from: u32,
        /// Matching tag.
        tag: i32,
        /// Packed `(origin_pe, seq)` trace id (see [`trace_id`]).
        id: u64,
    },
    /// The fault shim perturbed a traced message (first-class annotated
    /// drop/dup/delay/reorder — no more inferring drops from gaps).
    Fault {
        /// What the shim did.
        kind: FaultKind,
        /// Trace id of the perturbed message (0 when untraced).
        id: u64,
    },
    /// A client issued a remote service request (paper §3.2, viewed
    /// from the calling side; pairs with the server's `RsrServe`).
    RsrCall {
        /// Requested function id.
        fn_id: u32,
        /// The caller's RSR sequence number (its dedup-table key).
        seq: u64,
    },
    /// A client re-sent a timed-out remote service request.
    RsrRetry {
        /// Requested function id.
        fn_id: u32,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A pub-sub publisher injected a message into its topic's fan-out
    /// tree (viewed from the publishing node; pairs with every
    /// subscriber node's `PubsubDeliver`).
    PubsubPublish {
        /// Topic identifier.
        topic: u64,
        /// Per-(origin, topic) publish sequence number.
        seq: u64,
    },
    /// A pub-sub message reached a local subscriber's mailbox.
    PubsubDeliver {
        /// Topic identifier.
        topic: u64,
        /// The publish's sequence number.
        seq: u64,
    },
}

impl Event {
    /// Short display name, used as the Chrome-trace event name for
    /// instant events.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Dispatch { .. } => "dispatch",
            Event::PartialSwitch { .. } => "partial_switch",
            Event::Block { .. } => "block",
            Event::Unblock { .. } => "unblock",
            Event::Yield { .. } => "yield",
            Event::Idle => "idle",
            Event::ThreadDone { .. } => "thread_done",
            Event::Send { .. } => "send",
            Event::Arrive { .. } => "arrive",
            Event::RecvComplete { .. } => "recv_complete",
            Event::Msgtest { .. } => "msgtest",
            Event::Testany { .. } => "testany",
            Event::RsrServe { .. } => "rsr_serve",
            Event::RsrDone { .. } => "rsr_done",
            Event::MsgSend { .. } => "msg.send",
            Event::MsgRecv { .. } => "msg.recv",
            Event::Fault { kind, .. } => match kind {
                FaultKind::Drop => "fault.drop",
                FaultKind::Duplicate => "fault.dup",
                FaultKind::Delay => "fault.delay",
                FaultKind::Reorder => "fault.reorder",
            },
            Event::RsrCall { .. } => "rsr.call",
            Event::RsrRetry { .. } => "rsr.retry",
            Event::PubsubPublish { .. } => "pubsub.publish",
            Event::PubsubDeliver { .. } => "pubsub.deliver",
        }
    }

    /// The wire-level trace id this event carries, if any.
    pub fn trace_id(&self) -> Option<u64> {
        match *self {
            Event::MsgSend { id, .. } | Event::MsgRecv { id, .. } | Event::Fault { id, .. } => {
                (id != 0).then_some(id)
            }
            _ => None,
        }
    }

    /// The thread a scheduling event concerns, if it concerns one.
    pub fn thread(&self) -> Option<u32> {
        match *self {
            Event::Dispatch { thread, .. }
            | Event::PartialSwitch { thread }
            | Event::Block { thread }
            | Event::Unblock { thread }
            | Event::Yield { thread }
            | Event::ThreadDone { thread }
            | Event::RecvComplete { thread } => Some(thread),
            _ => None,
        }
    }

    /// Whether this event ends a dispatched run of its thread: the
    /// baton-departure half of the dispatch/departure balance every
    /// well-formed trace maintains (see `crate::balance`).
    pub fn is_departure(&self) -> bool {
        matches!(
            self,
            Event::Block { .. } | Event::Yield { .. } | Event::ThreadDone { .. }
        )
    }
}

/// An [`Event`] stamped with its emission time, nanoseconds since the
/// tracer's epoch (wall clock for the live runtime, virtual time for
/// the simulator).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// What happened.
    pub event: Event,
}

/// One lane's worth of drained trace: its name and its events in
/// emission order (per lane monotone in time).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LaneTrace {
    /// Lane name (e.g. `pe0.0` for a VP, `ep0.0` for an endpoint).
    pub name: String,
    /// Events in emission order.
    pub events: Vec<TimedEvent>,
    /// Events the lane's ring had to drop because it was full when they
    /// were emitted (0 in a well-sized capture).
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_threads() {
        let d = Event::Dispatch {
            thread: 3,
            full_switch: true,
        };
        assert_eq!(d.name(), "dispatch");
        assert_eq!(d.thread(), Some(3));
        assert!(!d.is_departure());
        assert!(Event::Yield { thread: 3 }.is_departure());
        assert!(Event::Block { thread: 3 }.is_departure());
        assert!(Event::ThreadDone { thread: 3 }.is_departure());
        assert_eq!(Event::Idle.thread(), None);
        assert!(!Event::Idle.is_departure());
    }

    #[test]
    fn trace_id_packs_and_unpacks() {
        let id = trace_id::pack(3, 0x1234_5678_9ABC);
        assert_eq!(trace_id::unpack(id), (3, 0x1234_5678_9ABC));
        assert_eq!(trace_id::display(id), "3:20015998343868");
        // Truncation keeps the layout total.
        let wide = trace_id::pack(u32::MAX, u64::MAX);
        let (pe, seq) = trace_id::unpack(wide);
        assert_eq!(pe, 0xFFFF);
        assert_eq!(seq, trace_id::SEQ_MASK);
        assert_eq!(
            Event::MsgSend { to: 1, tag: 7, id }.trace_id(),
            Some(id)
        );
        assert_eq!(Event::MsgSend { to: 1, tag: 7, id: 0 }.trace_id(), None);
        assert_eq!(Event::Idle.trace_id(), None);
    }

    #[test]
    fn tracing_events_serialize_round_trip() {
        for e in [
            Event::MsgSend { to: 1, tag: 3, id: trace_id::pack(0, 9) },
            Event::MsgRecv { from: 0, tag: 3, id: trace_id::pack(0, 9) },
            Event::Fault { kind: FaultKind::Drop, id: 17 },
            Event::Fault { kind: FaultKind::Reorder, id: 0 },
            Event::RsrCall { fn_id: 1000, seq: 4 },
            Event::RsrRetry { fn_id: 1000, attempt: 2 },
            Event::PubsubPublish { topic: 42, seq: 7 },
            Event::PubsubDeliver { topic: 42, seq: 7 },
        ] {
            let t = TimedEvent { ts_ns: 5, event: e };
            let json = serde_json::to_string(&t).unwrap();
            let back: TimedEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn events_serialize_round_trip() {
        let e = TimedEvent {
            ts_ns: 42,
            event: Event::Arrive {
                from: 1,
                tag: 7,
                posted: true,
            },
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: TimedEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
