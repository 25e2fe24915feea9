//! `chant-obs`: the unified observability layer.
//!
//! The paper's whole evaluation (Tables 3–5, Figures 12–13) is built on
//! counting scheduler and completion-inquiry events. This crate gives
//! the repo one substrate for that counting instead of four scattered
//! ones:
//!
//! * [`event`] — the unified [`Event`] vocabulary shared
//!   by the live runtime and the simulator.
//! * [`ring`] — the lock-free bounded ring each lane buffers events in.
//! * [`tracer`] — process-wide lane registration and collection; emit
//!   is a timestamp read plus a lock-free push.
//! * [`metrics`] — the [`counters!`] declaration every always-on counter
//!   family is made with, and named counters and log₂-bucketed latency
//!   histograms behind one registry.
//! * [`perfetto`] — the Chrome-trace-event/Perfetto JSON exporter (and
//!   schema validator) both trace sources render through.
//! * [`clock`] — midpoint/min-RTT clock-offset estimation between
//!   processes (fed by timestamps piggybacked on the PING probe).
//! * [`merge`] — stitches N per-process exports into one clock-aligned
//!   cluster timeline with Perfetto flow arrows on the wire-level
//!   trace ids.
//!
//! The runtime crates always link this crate for their counter
//! families and their instrumentation. Event emission and every
//! histogram happen only in components built after a tracer was
//! installed ([`tracer::install`]); the rest hold `None`.

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod merge;
pub mod metrics;
pub mod perfetto;
pub mod ring;
pub mod tracer;

pub use clock::{estimate_offset, ClockEstimate, ClockSample};
pub use event::{trace_id, Event, FaultKind, LaneTrace, TimedEvent};
pub use metrics::{registry, Counter, CounterFamily, Histogram, MetricsRegistry, Percentiles};
pub use tracer::{LaneHandle, RingMode};

/// What [`check_balance`] tallied over one lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceReport {
    /// `Dispatch` events seen.
    pub dispatches: u64,
    /// Departures (`Block`/`Yield`/`ThreadDone`) seen.
    pub departures: u64,
    /// Thread whose dispatched run was still open at the end of the
    /// capture, if any (a mid-run snapshot; `None` for a completed run).
    pub open_thread: Option<u32>,
}

/// Check the dispatch/departure balance invariant over one lane's
/// events: every `Dispatch` is followed by exactly one departure of the
/// same thread before the next `Dispatch`. Returns the tally, or a
/// description of the first violation.
///
/// For a lane drained after its runtime finished, a balanced trace has
/// `dispatches == departures` and `open_thread == None`.
pub fn check_balance(events: &[TimedEvent]) -> Result<BalanceReport, String> {
    let mut report = BalanceReport::default();
    for (idx, te) in events.iter().enumerate() {
        match te.event {
            Event::Dispatch { thread, .. } => {
                if let Some(open) = report.open_thread {
                    return Err(format!(
                        "event {idx}: dispatch of t{thread} while t{open} still running"
                    ));
                }
                report.dispatches += 1;
                report.open_thread = Some(thread);
            }
            ref ev if ev.is_departure() => {
                let thread = ev.thread().expect("departures carry a thread");
                match report.open_thread {
                    Some(open) if open == thread => {
                        report.departures += 1;
                        report.open_thread = None;
                    }
                    Some(open) => {
                        return Err(format!(
                            "event {idx}: {} of t{thread} while t{open} is the running thread",
                            ev.name()
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {idx}: {} of t{thread} with no dispatched run open",
                            ev.name()
                        ))
                    }
                }
            }
            _ => {}
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn te(ts_ns: u64, event: Event) -> TimedEvent {
        TimedEvent { ts_ns, event }
    }

    #[test]
    fn balance_accepts_well_formed_lane() {
        let events = vec![
            te(
                0,
                Event::Dispatch {
                    thread: 1,
                    full_switch: true,
                },
            ),
            te(1, Event::Send { to: 0, tag: 3 }),
            te(2, Event::Block { thread: 1 }),
            te(3, Event::Unblock { thread: 1 }),
            te(
                4,
                Event::Dispatch {
                    thread: 1,
                    full_switch: false,
                },
            ),
            te(5, Event::ThreadDone { thread: 1 }),
        ];
        let r = check_balance(&events).unwrap();
        assert_eq!(r.dispatches, 2);
        assert_eq!(r.departures, 2);
        assert_eq!(r.open_thread, None);
    }

    #[test]
    fn balance_reports_open_run() {
        let events = vec![te(
            0,
            Event::Dispatch {
                thread: 7,
                full_switch: true,
            },
        )];
        let r = check_balance(&events).unwrap();
        assert_eq!(r.open_thread, Some(7));
    }

    #[test]
    fn balance_rejects_violations() {
        // Double dispatch.
        let double = vec![
            te(
                0,
                Event::Dispatch {
                    thread: 1,
                    full_switch: true,
                },
            ),
            te(
                1,
                Event::Dispatch {
                    thread: 2,
                    full_switch: true,
                },
            ),
        ];
        assert!(check_balance(&double).is_err());
        // Departure of the wrong thread.
        let wrong = vec![
            te(
                0,
                Event::Dispatch {
                    thread: 1,
                    full_switch: true,
                },
            ),
            te(1, Event::Yield { thread: 2 }),
        ];
        assert!(check_balance(&wrong).is_err());
        // Departure with nothing running.
        let orphan = vec![te(0, Event::Block { thread: 1 })];
        assert!(check_balance(&orphan).is_err());
    }
}
