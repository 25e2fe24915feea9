//! Pluggable transports under the matching engine.
//!
//! [`crate::CommWorld`]'s routing path is a thin, swappable seam: after
//! the fault shim has had its say, a message to another endpoint is
//! handed to the world's [`Transport`], which is responsible for getting
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
//!   length-prefixed frames ([`encode_frame`]) over TCP sockets, every
//!   connection in one epoll set and no thread of its own — the threads
//!   that wait on it drive it ([`Transport::poll`], [`Progress`]) — with
//!   nonblocking sockets, same-peer send coalescing into vectored
//!   writes, pooled frame buffers and a bounded per-peer send queue. In
//!   *loopback* mode all endpoints stay in one OS process and traffic
//!   between PEs makes a real kernel round trip; in
//!   *multi-process* mode (a rank and a peer list, usually from
//!   [`TransportConfig::from_env`]) each OS process hosts one PE's
//!   endpoints and a chant message genuinely crosses address spaces —
//!   the paper's "threads that talk to threads in other address
//!   spaces", live.

mod frame;
#[cfg(target_os = "linux")]
mod pool;
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
    /// backpressure; must not block indefinitely.
    fn send(&self, header: Header, body: Bytes);

    /// What this transport has done so far.
    fn stats(&self) -> TransportStatsSnapshot;

    /// The fd that is readable while [`Transport::poll`] has work — for
    /// a transport with no thread of its own, which the threads that
    /// wait on it must drive. `None` (the default): delivery needs no
    /// driving.
    fn poll_fd(&self) -> Option<c_int> {
        None
    }

    /// Move traffic on the calling thread: one turn of the transport's
    /// event loop. `Some(t)`: wait out a turn in progress on another
    /// thread, then up to `t` for readiness. `None`: a turn that waits
    /// for nothing, skipped when another is in progress. Returns
    /// whether a turn ran (never, when there is no loop).
    fn poll(&self, _timeout: Option<Duration>) -> bool {
        false
    }

    /// Tear down background threads and close any handles. Called
    /// from world teardown — possibly inside this transport's own
    /// [`Transport::poll`], when a delivery held the world's last
    /// reference; must be idempotent.
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

    /// Deliver into the destination endpoint's matching tables.
    pub fn deliver(&self, header: Header, body: Bytes) -> Result<(), DeliverError> {
        let Some(w) = self.world.upgrade() else {
            return Err(DeliverError::WorldGone);
        };
        if !w.hosts(header.dst) {
            return Err(DeliverError::NotHosted);
        }
        w.endpoint(header.dst).deliver(header, body);
        Ok(())
    }
}

/// How a scheduler drives a transport that has no thread of its own
/// (see [`crate::CommWorld::progress`]): sleep on [`Progress::fd`] among
/// its other wake-ups, and run [`Progress::turn`] when it is readable —
/// and, while busy, every so often.
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

    /// One turn that waits for no readiness: after waiting out a turn
    /// in progress on another thread (`wait`), or else skipped when one
    /// is. A no-op once the transport is gone.
    pub fn turn(&self, wait: bool) {
        if let Some(t) = self.transport.upgrade() {
            t.poll(wait.then_some(Duration::ZERO));
        }
    }
}

chant_obs::counters! {
    /// What a transport has done so far. In-process worlds report frames
    /// but keep every socket-specific counter at zero. A message an
    /// endpoint sends to itself is not a frame on any backend: it is
    /// delivered before the transport and counted by none of these.
    "transport": pub(crate) struct TransportStats => pub struct TransportStatsSnapshot {
        /// Frames between distinct endpoints handed to the wire (or
        /// delivered directly, in-process).
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
        /// Messages dropped because the peer stayed unreachable.
        send_failures,
        /// Frames rejected by the codec (connection dropped afterwards).
        malformed_frames,
        /// Well-formed frames addressed to an endpoint this process does
        /// not host.
        misrouted,
        /// Vectored writes that carried more than one frame (batch depth
        /// = `coalesced_frames / coalesced_writes`).
        coalesced_writes,
        /// Frames carried by those multi-frame vectored writes.
        coalesced_frames,
        /// Writes the kernel cut short, resumed later from the saved
        /// offset.
        partial_writes,
        /// Event-loop turns that found a socket ready: each is one
        /// kernel → thread hand-off of arrivals or writability.
        wakeups,
        /// Sends that found their peer's queue at its byte bound and ran
        /// event-loop turns until a flush made room.
        backpressure_waits,
        /// Frame buffers served from the reuse pool.
        pool_hits,
        /// Frame buffers that had to be freshly allocated.
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
    /// selects loopback mode with an ephemeral port. Non-empty requires
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
    /// coalescing, and pooled buffers (Linux only; see [`TcpOptions`]).
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

impl InProcessTransport {
    pub fn new(sink: DeliverySink) -> InProcessTransport {
        InProcessTransport {
            sink,
            stats: Arc::new(TransportStats::default()),
        }
    }
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

    fn stats(&self) -> TransportStatsSnapshot {
        self.stats.snapshot()
    }

    fn shutdown(&self) {}
}

/// Construct the configured transport for a world being built, holding
/// only a weak reference to it.
pub(crate) fn build_transport(
    config: &TransportConfig,
    #[cfg_attr(not(target_os = "linux"), allow(unused_variables))] pes: u32,
    world: Weak<WorldInner>,
) -> Arc<dyn Transport> {
    let sink = DeliverySink::new(world);
    match config {
        TransportConfig::InProcess => Arc::new(InProcessTransport::new(sink)),
        #[cfg(target_os = "linux")]
        TransportConfig::TcpEvent(opts) => TcpEventTransport::start(opts.clone(), pes, sink)
            .unwrap_or_else(|e| panic!("failed to start the socket transport: {e}")),
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
