//! Per-endpoint communication statistics.
//!
//! Two kinds of counters live here:
//!
//! * the `msgtest` counters the paper reports in its Tables 3–5, and
//! * delivery-path counters ([`CommStats::posted_matches`] vs
//!   [`CommStats::unexpected_buffered`]) that make the paper's zero-copy
//!   argument *testable*: a receive posted before the message arrives is
//!   delivered without intermediate buffering, while a late receive pays
//!   for one system-buffer stop (the copy Chant's design avoids by
//!   pre-posting).

chant_obs::counters! {
    /// Monotonic counters for one endpoint.
    "comm": pub struct CommStats => pub struct CommStatsSnapshot {
        /// Messages sent (blocking + nonblocking).
        sends,
        /// Receives posted (blocking + nonblocking).
        recvs_posted,
        /// Arriving messages that found a matching posted receive: the
        /// zero-copy path ("place the incoming message in the proper memory
        /// location upon arrival", paper §3.1).
        posted_matches,
        /// Arriving messages with no matching posted receive, parked in the
        /// unexpected queue: the buffered path.
        unexpected_buffered,
        /// Posted receives satisfied from the unexpected queue.
        unexpected_claimed,
        /// Posted receives retired unmatched when their last handle was
        /// dropped (abandoned receives must not claim future arrivals).
        posted_retired,
        /// `msgtest` calls (the paper's "total number of msgtest calls").
        msgtests,
        /// `msgtest` calls that returned "not yet" (the paper's Figure 12
        /// counts failed tests).
        msgtest_failures,
        /// `msgtestany`-style calls (MPI `MPI_TEST_ANY`; one call however
        /// many requests it covers).
        testany_calls,
        /// Blocking waits (`msgwait`, `crecv`, `csend`).
        blocking_waits,
        /// `iprobe` calls.
        probes,
        /// Payload bytes sent.
        bytes_sent,
        /// Payload bytes received (claimed by receives).
        bytes_received,
        /// Multicast (`isend_many`) calls. One call however many
        /// destinations it covers; the per-destination sends are counted in
        /// `sends` as usual.
        multicasts,
        /// Destinations suppressed by `isend_many`'s per-link dedup: a
        /// destination listed more than once receives the frame exactly
        /// once, and the repeats land here instead of on the wire.
        multicast_dedups,
    }
}
