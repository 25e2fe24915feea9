//! Execution tracing: a per-run log of scheduling and messaging events
//! with virtual timestamps, for debugging the simulator and visualizing
//! schedules (the `timeline` binary renders one as a text Gantt chart).
//!
//! Tracing is off by default (zero overhead beyond a branch); enable it
//! with [`crate::Engine::enable_trace`] before running.

use serde::{Deserialize, Serialize};

use crate::Ns;

/// One traced event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A thread was dispatched (context restored).
    Dispatch {
        /// Thread index within its VP.
        thread: usize,
        /// Whether this was a full switch (vs a self-redispatch).
        full_switch: bool,
    },
    /// A thread blocked on a receive (first test failed).
    BlockOnRecv {
        /// Thread index within its VP.
        thread: usize,
    },
    /// A message left this VP.
    Send {
        /// Destination VP.
        to: usize,
        /// Matching tag.
        tag: u32,
    },
    /// A message arrived at this VP.
    Arrive {
        /// Source VP.
        from: usize,
        /// Matching tag.
        tag: u32,
    },
    /// A receive completed (claimed by its thread).
    RecvComplete {
        /// Thread index within its VP.
        thread: usize,
    },
    /// The VP went idle (nothing runnable until a message arrives).
    Idle,
    /// A thread finished its program.
    ThreadDone {
        /// Thread index within its VP.
        thread: usize,
    },
}

/// A timestamped event on one VP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time (ns).
    pub at: Ns,
    /// The VP the event belongs to.
    pub vp: usize,
    /// What happened.
    pub kind: TraceKind,
}

/// An in-memory event log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Events in emission order (per VP monotone in time).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Events for one VP, in order.
    pub fn for_vp(&self, vp: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.vp == vp)
    }

    /// Count events matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Render a text Gantt chart: one row per VP, `cols` character
    /// columns spanning `[0, horizon]` virtual time. Each cell shows the
    /// dominant activity in its time slice: `#` running (dispatches),
    /// `.` idle, `~` blocked-heavy, space for no events.
    pub fn gantt(&self, n_vps: usize, horizon: Ns, cols: usize) -> Vec<String> {
        assert!(cols > 0 && horizon > 0);
        let mut rows = Vec::with_capacity(n_vps);
        for vp in 0..n_vps {
            let mut dispatch = vec![0u32; cols];
            let mut idle = vec![0u32; cols];
            let mut blocked = vec![0u32; cols];
            for e in self.for_vp(vp) {
                let col = ((e.at as u128 * cols as u128) / (horizon as u128 + 1)) as usize;
                let col = col.min(cols - 1);
                match e.kind {
                    TraceKind::Dispatch { .. } | TraceKind::RecvComplete { .. } => {
                        dispatch[col] += 1;
                    }
                    TraceKind::Idle => idle[col] += 1,
                    TraceKind::BlockOnRecv { .. } => blocked[col] += 1,
                    _ => {}
                }
            }
            let mut row = String::with_capacity(cols);
            for c in 0..cols {
                let ch = if dispatch[c] >= idle[c] && dispatch[c] >= blocked[c] && dispatch[c] > 0
                {
                    '#'
                } else if blocked[c] >= idle[c] && blocked[c] > 0 {
                    '~'
                } else if idle[c] > 0 {
                    '.'
                } else {
                    ' '
                };
                row.push(ch);
            }
            rows.push(row);
        }
        rows
    }
}

/// Bridge into the shared observability event model (`chant-obs`).
///
/// The conversion is lossless from the simulator's side: every
/// `TraceKind` variant and every field maps onto a [`chant_obs::Event`]
/// counterpart. Fields the simulator does not track are filled with
/// fixed defaults (`Arrive::posted` is `false` — the simulator's trace
/// does not record whether a posted receive was waiting) and narrowing
/// casts (`usize` thread → `u32`, `u32` tag → `i32`) cannot lose
/// information for any trace the simulator can produce (thread counts
/// and tags are small by construction).
impl From<TraceKind> for chant_obs::Event {
    fn from(kind: TraceKind) -> chant_obs::Event {
        use chant_obs::Event;
        match kind {
            TraceKind::Dispatch {
                thread,
                full_switch,
            } => Event::Dispatch {
                thread: thread as u32,
                full_switch,
            },
            TraceKind::BlockOnRecv { thread } => Event::Block {
                thread: thread as u32,
            },
            TraceKind::Send { to, tag } => Event::Send {
                to: to as u32,
                tag: tag as i32,
            },
            TraceKind::Arrive { from, tag } => Event::Arrive {
                from: from as u32,
                tag: tag as i32,
                posted: false,
            },
            TraceKind::RecvComplete { thread } => Event::RecvComplete {
                thread: thread as u32,
            },
            TraceKind::Idle => Event::Idle,
            TraceKind::ThreadDone { thread } => Event::ThreadDone {
                thread: thread as u32,
            },
        }
    }
}

impl From<TraceEvent> for chant_obs::TimedEvent {
    fn from(e: TraceEvent) -> chant_obs::TimedEvent {
        chant_obs::TimedEvent {
            ts_ns: e.at,
            event: e.kind.into(),
        }
    }
}

impl Trace {
    /// Convert this simulator trace into per-VP observability lanes
    /// (virtual-time timestamps), ready for the Perfetto exporter.
    /// Lanes are named `sim.vp{n}` for `n in 0..n_vps`; a VP with no
    /// events still gets an (empty) lane so track order is stable.
    pub fn to_lane_traces(&self, n_vps: usize) -> Vec<chant_obs::LaneTrace> {
        let mut lanes: Vec<chant_obs::LaneTrace> = (0..n_vps)
            .map(|vp| chant_obs::LaneTrace {
                name: format!("sim.vp{vp}"),
                events: Vec::new(),
                dropped: 0,
            })
            .collect();
        for e in &self.events {
            if let Some(lane) = lanes.get_mut(e.vp) {
                lane.events.push((*e).into());
            }
        }
        lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gantt_buckets_events() {
        let mut t = Trace::default();
        t.events.push(TraceEvent {
            at: 0,
            vp: 0,
            kind: TraceKind::Dispatch {
                thread: 0,
                full_switch: true,
            },
        });
        t.events.push(TraceEvent {
            at: 99,
            vp: 0,
            kind: TraceKind::Idle,
        });
        t.events.push(TraceEvent {
            at: 50,
            vp: 1,
            kind: TraceKind::BlockOnRecv { thread: 2 },
        });
        let rows = t.gantt(2, 99, 10);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].chars().next(), Some('#'));
        assert_eq!(rows[0].chars().last(), Some('.'));
        assert!(rows[1].contains('~'));
    }

    #[test]
    fn for_vp_filters() {
        let mut t = Trace::default();
        for vp in [0, 1, 0, 2] {
            t.events.push(TraceEvent {
                at: 1,
                vp,
                kind: TraceKind::Idle,
            });
        }
        assert_eq!(t.for_vp(0).count(), 2);
        assert_eq!(t.count(|e| matches!(e.kind, TraceKind::Idle)), 4);
    }

    #[test]
    fn bridge_maps_every_variant_and_groups_by_vp() {
        use chant_obs::Event;
        let kinds = [
            TraceKind::Dispatch {
                thread: 3,
                full_switch: true,
            },
            TraceKind::BlockOnRecv { thread: 3 },
            TraceKind::Send { to: 1, tag: 7 },
            TraceKind::Arrive { from: 0, tag: 7 },
            TraceKind::RecvComplete { thread: 3 },
            TraceKind::Idle,
            TraceKind::ThreadDone { thread: 3 },
        ];
        let expected = [
            Event::Dispatch {
                thread: 3,
                full_switch: true,
            },
            Event::Block { thread: 3 },
            Event::Send { to: 1, tag: 7 },
            Event::Arrive {
                from: 0,
                tag: 7,
                posted: false,
            },
            Event::RecvComplete { thread: 3 },
            Event::Idle,
            Event::ThreadDone { thread: 3 },
        ];
        let mut t = Trace::default();
        for (i, kind) in kinds.iter().enumerate() {
            t.events.push(TraceEvent {
                at: i as Ns * 10,
                vp: i % 2,
                kind: *kind,
            });
        }
        for (kind, want) in kinds.iter().zip(expected.iter()) {
            assert_eq!(Event::from(*kind), *want);
        }
        let lanes = t.to_lane_traces(2);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].name, "sim.vp0");
        assert_eq!(lanes[0].events.len(), 4);
        assert_eq!(lanes[1].events.len(), 3);
        assert_eq!(lanes[0].events[1].ts_ns, 20);
        assert_eq!(lanes[0].events[1].event, Event::Send { to: 1, tag: 7 });
    }
}
