//! Pluggable transports under the matching engine.
//!
//! [`crate::CommWorld`]'s routing path is a thin, swappable seam: after
//! the fault shim has had its say, a message to another endpoint is
//! handed to its sender's PE's [`Transport`] (a world has one per hosted
//! PE, all sharing one set of counters), which is responsible for getting
//! the framed `(header, body)` pair to the destination endpoint's
//! matching tables (via
//! [`DeliverySink::deliver`]). A message an endpoint sends to itself
//! never reaches a transport: the world delivers it in place, on the
//! sender's thread. Everything above the seam — matching, polling
//! policies, deadlines, RSR retry/dedup, fault injection,
//! observability — is transport-agnostic and must behave
//! identically on every backend; `tests/transport_conformance.rs`
//! enforces exactly that, with the in-process backend as the oracle.
//!
//! Two backends ship:
//!
//! * **in-process** ([`TransportConfig::InProcess`], the default): the
//!   original synchronous delivery into the destination endpoint. Zero
//!   new cost; the paper's table reproductions run on this path.
//! * **TCP, event-loop** ([`TransportConfig::TcpEvent`], Linux only):
//!   length-prefixed frames ([`encode_frame`]) over TCP sockets, each
//!   PE's connections in its own epoll set and no thread of its own —
//!   the PE's waiting threads drive it ([`Transport::poll`],
//!   [`Progress`]) — with nonblocking sockets, one bounded send buffer
//!   per peer and same-peer send coalescing: a lane's threads append
//!   what they send to the peer's buffer, and the lane hands each buffer
//!   to the kernel at its next turn or before it parks
//!   ([`Transport::flush`]). In *loopback* mode all endpoints stay in one OS
//!   process, each PE with its own listener, and traffic between PEs
//!   makes a real kernel round trip; in
//!   *multi-process* mode (a rank and a peer list, usually from
//!   [`TransportConfig::from_env`]) each OS process hosts one PE's
//!   endpoints and a chant message genuinely crosses address spaces —
//!   the paper's "threads that talk to threads in other address
//!   spaces", live.

mod frame;
#[cfg(target_os = "linux")]
mod tcp_event;

pub use frame::{
    decode_frame, encode_frame, encode_frame_into, FrameError, FRAME_HEADER_LEN, FRAME_MAGIC,
    MAX_FRAME_LEN,
};

#[cfg(target_os = "linux")]
pub(crate) use tcp_event::TcpEventTransport;

use std::os::raw::c_int;
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;

use crate::header::Header;
use crate::world::WorldInner;

/// A message-moving backend under the matching engine.
///
/// It carries messages between distinct endpoints only: a message whose
/// `dst` is its `src` the world delivers in place, before any transport.
/// Implementations receive fully-formed headers (the `(pe, process,
/// thread-bearing ctx/tag)` signature of §3.1) and opaque bodies, and
/// must eventually hand every non-lost message to the destination
/// endpoint via the [`DeliverySink`] they were constructed with.
/// Ordering contract: two messages sent on the same `(src, dst)` link
/// must be delivered in send order (per-sender FIFO, the NX guarantee
/// the matching tables rely on). Loss is permitted only for transports
/// that document it (the upper layers' retry/dedup machinery recovers).
pub trait Transport: Send + Sync {
    /// Short stable name for reports and traces (`"inproc"`,
    /// `"tcp-event"`).
    fn name(&self) -> &'static str;

    /// Move one message toward its destination. May block briefly for
    /// backpressure; must not block indefinitely. Never called from
    /// inside a delivery. A transport driven by its waiters may leave
    /// the write to [`Transport::flush`] — but only when the caller is a
    /// user-level thread whose lane drives it (its VP's progress fd is
    /// [`Transport::poll_fd`]), so that lane's next turn or park writes it.
    fn send(&self, header: Header, body: Bytes);

    /// The fd that is readable while [`Transport::poll`] has work — for
    /// a transport with no thread of its own, which the threads that
    /// wait on it must drive. `None` (the default): delivery needs no
    /// driving.
    fn poll_fd(&self) -> Option<c_int> {
        None
    }

    /// Move traffic on the calling thread: one turn of the transport's
    /// event loop — wait up to `timeout` for readiness without the loop's
    /// lock, then take the lock and dispatch what is ready. A no-op when
    /// there is no loop.
    fn poll(&self, _timeout: Duration) {}

    /// Write what [`Transport::send`] left queued for the calling lane,
    /// without waiting for readiness. [`Transport::poll`] does the same
    /// at the start of every turn; a lane calls this before it parks.
    /// A no-op when nothing is left (one atomic load) or there is no loop.
    fn flush(&self) {}

    /// Tear down background threads and close any handles. Called
    /// from world teardown, which never starts inside a turn (a turn
    /// holds the world); must be idempotent.
    fn shutdown(&self);
}

/// Where a transport hands arriving messages back into the runtime: the
/// destination endpoint's matching tables, reached through a weak
/// world reference so a transport can never keep a dead world alive.
#[derive(Clone)]
pub struct DeliverySink {
    world: Weak<WorldInner>,
}

/// Why a [`DeliverySink::deliver`] did not deliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliverError {
    /// The world was torn down; the message is dropped (same rule as
    /// the fault shim's held messages at shutdown).
    WorldGone,
    /// The destination endpoint is not hosted by this process (a
    /// misrouted or corrupted frame in multi-process mode).
    NotHosted,
}

impl DeliverySink {
    pub(crate) fn new(world: Weak<WorldInner>) -> DeliverySink {
        DeliverySink { world }
    }

    /// The world, held by a turn for its whole length so that its
    /// teardown cannot start inside it (`None`: it is gone).
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    pub(crate) fn pin(&self) -> Option<Arc<WorldInner>> {
        self.world.upgrade()
    }

    /// Deliver into the destination endpoint's matching tables. The
    /// endpoint's waker runs inside this call, so it must not send (see
    /// [`crate::Endpoint::set_waker`]).
    pub fn deliver(&self, header: Header, body: Bytes) -> Result<(), DeliverError> {
        let world = self.world.upgrade().ok_or(DeliverError::WorldGone)?;
        world.deliver(header, body)
    }
}

/// How a scheduler drives one PE's transport when it has no thread of
/// its own (see [`crate::CommWorld::progress`]): sleep on
/// [`Progress::fd`] among its other wake-ups, and run [`Progress::turn`]
/// when it is readable — and, while busy, every so often — and run
/// [`Progress::flush`] before it parks.
#[derive(Clone)]
pub struct Progress {
    fd: c_int,
    transport: Weak<dyn Transport>,
}

impl Progress {
    pub(crate) fn of(transport: &Arc<dyn Transport>) -> Option<Progress> {
        Some(Progress {
            fd: transport.poll_fd()?,
            transport: Arc::downgrade(transport),
        })
    }

    /// Readable while the transport has work for [`Progress::turn`]
    /// (an epoll fd: add it to a set for `EPOLLIN`).
    pub fn fd(&self) -> c_int {
        self.fd
    }

    /// One turn that waits for no readiness, only for the transport's
    /// lock (held for short nonblocking passes). A no-op once the
    /// transport is gone.
    pub fn turn(&self) {
        if let Some(t) = self.transport.upgrade() {
            t.poll(Duration::ZERO);
        }
    }

    /// Write the sends this PE's lanes left for their next turn or park
    /// (see [`Transport::send`]). A no-op once the transport is gone.
    pub fn flush(&self) {
        if let Some(t) = self.transport.upgrade() {
            t.flush();
        }
    }
}

chant_obs::counters! {
    /// What a transport has done so far. In-process worlds report frames
    /// but keep every socket-specific counter at zero. A message an
    /// endpoint sends to itself is not a frame on any backend: it is
    /// delivered before the transport and counted by none of these.
    "transport": pub(crate) struct TransportStats => pub struct TransportStatsSnapshot {
        /// Frames between distinct endpoints accepted for sending: queued
        /// for the wire, counted before any of their bytes reach the
        /// kernel (in-process: before they are delivered). A queued frame
        /// later dropped counts here and in `send_failures`.
        frames_sent,
        /// Frames received and delivered into endpoints.
        frames_received,
        /// Frame bytes written (headers + bodies + prefixes).
        frame_bytes_sent,
        /// Frame bytes read.
        frame_bytes_received,
        /// Outbound connections established.
        connects,
        /// Inbound connections accepted.
        accepts,
        /// Outbound connections re-established after a write failure.
        reconnects,
        /// Queued frames dropped because the peer stayed unreachable or
        /// its connection failed (each also counted in `frames_sent`). On
        /// the socket backend: the frames appended since the peer's send
        /// buffer was last empty — exact unless a partial write came
        /// first, whose fully written frames then count too.
        send_failures,
        /// Frames rejected by the codec (connection dropped afterwards).
        malformed_frames,
        /// Well-formed frames addressed to an endpoint this process does
        /// not host.
        misrouted,
        /// Writes that carried the first byte of more than one frame
        /// (batch depth = `coalesced_frames / coalesced_writes`).
        coalesced_writes,
        /// Frames whose first byte those writes carried: a frame counts
        /// in the first write that carries any of its bytes.
        coalesced_frames,
        /// Writes the kernel cut short inside a frame, resumed later
        /// from the saved offset.
        partial_writes,
        /// Event-loop turns that found a socket ready: each is one
        /// kernel → thread hand-off of arrivals or writability.
        wakeups,
        /// Sends that found their peer's queue at its byte bound and ran
        /// event-loop turns until a flush made room.
        backpressure_waits,
        /// Frames encoded into capacity the peer's send buffer already
        /// had: sends that did not allocate. The name stays with
        /// `benchmark/src/counters.rs`, which reads it.
        pool_hits,
        /// Frames whose encode grew the peer's send buffer (named with
        /// `pool_hits`, for the same reader).
        pool_misses,
    }
}

/// Configuration of the socket backend.
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// This OS process's PE index, or `None` for single-process
    /// loopback (all PEs hosted here, traffic still over sockets).
    pub rank: Option<u32>,
    /// Listen addresses (`host:port`), one per PE in rank order. Empty
    /// selects loopback mode, an ephemeral port per PE. Non-empty requires
    /// `rank` to be set.
    pub peers: Vec<String>,
    /// Dial attempts for a peer never reached before (bootstrap: peers
    /// start in parallel, so patience here is correctness).
    pub connect_attempts: u32,
    /// Initial backoff between dial attempts; doubles up to 500 ms.
    pub connect_backoff_ms: u64,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            rank: None,
            peers: Vec::new(),
            connect_attempts: 80,
            connect_backoff_ms: 25,
        }
    }
}

/// Which transport a world routes through, and how it is configured.
#[derive(Clone, Debug, Default)]
pub enum TransportConfig {
    /// Synchronous in-process delivery (the default; the oracle backend
    /// for the conformance suite).
    #[default]
    InProcess,
    /// Length-prefixed frames over TCP sockets in one epoll set, driven
    /// by the threads that wait on it, with nonblocking sockets, send
    /// coalescing, and one send buffer per peer (Linux only; see
    /// [`TcpOptions`]).
    TcpEvent(TcpOptions),
}

impl TransportConfig {
    /// A single-process socket world: every endpoint lives here, but
    /// every message between distinct endpoints makes a real kernel
    /// round trip through a loopback socket (what the conformance suite
    /// and the fault matrix run).
    pub fn tcp_event_loopback() -> TransportConfig {
        TransportConfig::TcpEvent(TcpOptions::default())
    }

    /// Read the transport from the environment — the rank/port
    /// bootstrap shared by examples and the cross-process tests:
    ///
    /// * `CHANT_TRANSPORT` — `tcp-event` (or its alias `tcp`) selects
    ///   the socket backend; anything else (or unset) selects
    ///   in-process.
    /// * `CHANT_RANK` — this OS process's PE index (multi-process mode;
    ///   omit for single-process loopback).
    /// * `CHANT_PEERS` — comma-separated `host:port` listen addresses,
    ///   one per PE in rank order (required when `CHANT_RANK` is set).
    pub fn from_env() -> TransportConfig {
        let name = std::env::var("CHANT_TRANSPORT").ok();
        TransportConfig::select(name.as_deref(), || {
            let rank = std::env::var("CHANT_RANK").ok().and_then(|s| s.parse().ok());
            let peers = std::env::var("CHANT_PEERS")
                .map(|s| {
                    s.split(',')
                        .map(|p| p.trim().to_string())
                        .filter(|p| !p.is_empty())
                        .collect()
                })
                .unwrap_or_default();
            TcpOptions {
                rank,
                peers,
                ..TcpOptions::default()
            }
        })
    }

    /// The transport a `CHANT_TRANSPORT` value names; `socket_opts` is
    /// asked for the socket backend's options only when it is chosen.
    fn select(name: Option<&str>, socket_opts: impl FnOnce() -> TcpOptions) -> TransportConfig {
        let sockets = ["tcp", "tcp-event", "tcp_event"];
        match name {
            Some(v) if sockets.iter().any(|n| v.eq_ignore_ascii_case(n)) => {
                TransportConfig::TcpEvent(socket_opts())
            }
            _ => TransportConfig::InProcess,
        }
    }

    /// The contiguous PE range this process hosts under this config:
    /// one PE in multi-process mode, all of them otherwise.
    pub fn hosted_pes(&self, pes: u32) -> std::ops::Range<u32> {
        match self {
            TransportConfig::TcpEvent(TcpOptions { rank: Some(r), .. }) => {
                assert!(*r < pes, "CHANT_RANK {r} outside the world ({pes} PEs)");
                *r..*r + 1
            }
            _ => 0..pes,
        }
    }
}

/// The original backend: deliver synchronously into the destination
/// endpoint, on the sender's thread, before `send` returns. This is the
/// exact pre-trait code path — the paper's table reproductions and
/// every existing test run on it unchanged.
pub(crate) struct InProcessTransport {
    sink: DeliverySink,
    stats: Arc<TransportStats>,
}

impl Transport for InProcessTransport {
    fn name(&self) -> &'static str {
        "inproc"
    }

    fn send(&self, header: Header, body: Bytes) {
        self.stats.frames_sent.incr();
        if self.sink.deliver(header, body).is_ok() {
            self.stats.frames_received.incr();
        }
    }

    fn shutdown(&self) {}
}

/// Construct the configured transports for a world being built, one per
/// hosted PE in PE order, counting into `stats` and holding only a weak
/// reference to the world.
pub(crate) fn build_transports(
    config: &TransportConfig,
    pes: u32,
    world: Weak<WorldInner>,
    stats: &Arc<TransportStats>,
) -> Vec<Arc<dyn Transport>> {
    let sink = DeliverySink::new(world);
    match config {
        TransportConfig::InProcess => {
            // Stateless, so every PE may share one.
            let stats = Arc::clone(stats);
            let t: Arc<dyn Transport> = Arc::new(InProcessTransport { sink, stats });
            vec![t; pes as usize]
        }
        #[cfg(target_os = "linux")]
        TransportConfig::TcpEvent(opts) => TcpEventTransport::start_hosted(opts, pes, &sink, stats)
            .unwrap_or_else(|e| panic!("failed to start the socket transport: {e}"))
            .into_iter()
            .map(|t| t as Arc<dyn Transport>)
            .collect(),
        #[cfg(not(target_os = "linux"))]
        TransportConfig::TcpEvent(_) => panic!(
            "the socket transport needs Linux (its event loop is built on epoll); \
             unset CHANT_TRANSPORT to run in-process"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_is_an_alias_of_the_socket_backend() {
        let select = |name| TransportConfig::select(name, TcpOptions::default);
        for name in ["tcp", "TCP", "tcp-event", "tcp_event"] {
            assert!(matches!(select(Some(name)), TransportConfig::TcpEvent(_)), "{name}");
        }
        for name in [None, Some("inproc")] {
            assert!(matches!(select(name), TransportConfig::InProcess), "{name:?}");
        }
    }
}
