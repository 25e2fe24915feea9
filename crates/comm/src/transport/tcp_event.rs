//! The socket backend: length-prefixed frames between OS processes (or,
//! in loopback mode, between the PEs of one), every connection in one
//! epoll set ([`chant_ult::sys`]) and no thread of its own.
//!
//! * **The waiters drive.** The set's dispatch state — inbound staging
//!   buffers, the listener, scratch — sits behind a try-lock, and
//!   whoever takes it runs a *turn* ([`Transport::poll`]): collect what
//!   is ready, dispatch it. `ChantNode::new` adds the set's fd to every
//!   scheduler lane's own sleep set, so an idle lane sleeps on its
//!   sockets and its wake-ups at once and an arriving frame wakes the
//!   lane that reads it (kernel → lane, one hop); a busy lane turns at
//!   its schedule points (every 50 µs, see `chant_ult::Vp`); an OS
//!   thread blocked in `msgwait` turns while it waits.
//! * **Inline sends, coalesced.** A sender encodes into a pooled buffer,
//!   appends it to the peer's queue and — when the queue was idle —
//!   flushes right there: one nonblocking `write_vectored` per kernel
//!   round-trip for the whole queue (`coalesced_*` count the batch
//!   depth). Only when the socket pushes back does it arm `EPOLLOUT`;
//!   the next turn to see it resumes where the kernel stopped.
//! * **A bounded send queue.** The backlog behind a socket that pushes
//!   back holds at most [`SEND_QUEUE_MAX_BYTES`] (plus the frame that
//!   crossed the line). At the bound `send` runs turns until one makes
//!   room — counted in `backpressure_waits`. A turn reads every inbound
//!   socket too, so two ranks flooding each other each drain what holds
//!   the other back. Nothing is dropped, and queue order is send order.
//!
//! Delivery semantics are the in-process oracle's, which
//! `tests/transport_conformance.rs` holds it to: per-link FIFO (one
//! connection per destination PE, single flusher under the peer lock).
//! Malformed frames are counted and drop their connection, never panic;
//! the first dial to a peer is patient (bootstrap), a redial fails fast,
//! and what an unreachable peer costs is a counted `send_failures` drop
//! that RSR retry/liveness upstream turns into `Timeout`/`NodeUnreachable`.

#![cfg(target_os = "linux")]

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::raw::c_int;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use chant_ult::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;

use super::frame::{decode_frame, encode_frame_into, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use super::pool::BufferPool;
use super::{
    DeliverError, DeliverySink, TcpOptions, Transport, TransportStats, TransportStatsSnapshot,
};
use crate::header::Header;

/// Dial attempts for a peer we had reached before (it answered once, so
/// a long outage means it is gone — fail fast and let retries upstairs
/// pace themselves).
const RECONNECT_ATTEMPTS: u32 = 2;

/// Most frames one `write_vectored` call will carry.
const MAX_IOV: usize = 64;

/// Initial per-connection receive staging buffer.
const READ_BUF_INIT: usize = 64 * 1024;

/// Most bytes one peer's send queue holds before `send` waits for a
/// flush: enough to ride out a burst against a full socket buffer,
/// small enough that a peer that stopped reading stalls its senders
/// instead of growing this process.
const SEND_QUEUE_MAX_BYTES: usize = 1 << 20;

/// Longest one turn of a sender held at the bound waits for readiness.
const HELD_TURN: Duration = Duration::from_millis(1);

/// Epoll tokens: the listener is 0, an inbound connection counts up
/// from 1, an outbound one is `OUTBOUND | sequence << 32 | peer PE` (the
/// sequence tells a torn-down connection's stale events apart).
const TOKEN_LISTENER: u64 = 0;
const OUTBOUND: u64 = 1 << 63;

/// What every connection is watched for: data, or the peer's EOF.
const READABLE: u32 = EPOLLIN | EPOLLRDHUP;

thread_local! {
    /// The transport (by address) whose turn this thread is running: a
    /// teardown that starts inside it (a delivery dropped the world's
    /// last reference) must not wait for the lock its thread holds.
    static IN_TURN: Cell<usize> = const { Cell::new(0) };
}

/// Outbound state for one destination PE, behind a mutex that
/// serializes queue access *and* flushing — there is exactly one
/// flusher at a time, and frames leave in queue order, so per-link FIFO
/// holds by construction. Every write under that lock is nonblocking;
/// nothing holds it across a kernel wait, nor while taking the reactor.
#[derive(Default)]
struct PeerOut {
    /// The connection, also in the epoll set (which watches its fd for
    /// writability and EOF). `None` until the first send dials.
    conn: Option<Arc<TcpStream>>,
    /// Epoll token of `conn` (valid while `conn` is `Some`).
    token: u64,
    /// Encoded frames not yet fully handed to the kernel.
    q: VecDeque<Vec<u8>>,
    /// Total length of the frames in `q` (bounded, see
    /// [`SEND_QUEUE_MAX_BYTES`]).
    q_bytes: usize,
    /// Bytes of `q[0]` already written (partial-write resume point).
    woff: usize,
    /// Is `EPOLLOUT` armed (backlog left for a turn)?
    want_write: bool,
    /// Is some sender currently inside the blocking dial?
    dialing: bool,
    /// Has a full dial cycle happened (patient budget spent)?
    tried: bool,
}

/// One accepted (inbound) connection, owned by the reactor.
struct InboundConn {
    stream: TcpStream,
    /// Staging buffer; valid bytes are `buf[start..end]`. Kept at full
    /// length (zero-filled once per growth) so reads land in `[end..]`
    /// without per-read zeroing.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// The dispatch state of a turn, held by whichever thread runs one.
struct Reactor {
    inbound: HashMap<u64, InboundConn>,
    /// `None` after teardown (dropping it closes the listening socket).
    listener: Option<TcpListener>,
    /// Scratch for `epoll_pwait2`.
    events: Vec<EpollEvent>,
}

pub(crate) struct TcpEventTransport {
    opts: TcpOptions,
    /// Resolved listen address of every PE's process, by PE index.
    peers: Vec<SocketAddr>,
    sink: DeliverySink,
    stats: Arc<TransportStats>,
    pool: BufferPool,
    epoll: Epoll,
    /// Lock order: the reactor before a peer lock.
    reactor: Mutex<Reactor>,
    /// Outbound state, by destination PE.
    out: Vec<Mutex<PeerOut>>,
    /// Sequence for epoll tokens (see [`OUTBOUND`]).
    next_token: AtomicU64,
    stop: AtomicBool,
}

impl TcpEventTransport {
    /// Bind the listener and return the transport. Errors are
    /// configuration/bind problems; runtime I/O failures are handled
    /// per connection.
    pub fn start(opts: TcpOptions, pes: u32, sink: DeliverySink) -> std::io::Result<Arc<Self>> {
        let (listener, peers) = if opts.peers.is_empty() {
            assert!(opts.rank.is_none(), "a TCP rank needs a peer list (set CHANT_PEERS)");
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let local = listener.local_addr()?;
            (listener, vec![local; pes as usize])
        } else {
            let n = opts.peers.len();
            let msg = format!("CHANT_PEERS must list one address per PE ({pes} PEs, {n} peers)");
            assert_eq!(n, pes as usize, "{msg}");
            let rank = opts.rank.expect("a TCP peer list needs a rank (set CHANT_RANK)");
            let resolve = |p: &String| {
                let unresolved = || {
                    let msg = format!("peer address '{p}' did not resolve");
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
                };
                p.to_socket_addrs()?.next().ok_or_else(unresolved)
            };
            let peers = opts.peers.iter().map(resolve).collect::<std::io::Result<Vec<_>>>()?;
            let listener = TcpListener::bind(peers[rank as usize])?;
            (listener, peers)
        };
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        let stats = Arc::new(TransportStats::default());
        Ok(Arc::new(TcpEventTransport {
            opts,
            peers,
            sink,
            pool: BufferPool::new(256, Arc::clone(&stats)),
            stats,
            epoll,
            reactor: Mutex::new(Reactor {
                inbound: HashMap::new(),
                listener: Some(listener),
                events: vec![EpollEvent::default(); 128],
            }),
            out: (0..pes).map(|_| Mutex::default()).collect(),
            next_token: AtomicU64::new(TOKEN_LISTENER + 1),
            stop: AtomicBool::new(false),
        }))
    }

    // -- sender side ---------------------------------------------------

    /// Dial a peer, with the bootstrap budget on the first cycle and
    /// the fail-fast budget afterwards. Called without any peer lock
    /// held (the `dialing` flag keeps it single-flight).
    fn dial(&self, pe: u32, attempts: u32) -> Option<TcpStream> {
        let addr = self.peers[pe as usize];
        let mut backoff = Duration::from_millis(self.opts.connect_backoff_ms.max(1));
        for attempt in 0..attempts {
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    self.stats.connects.incr();
                    return Some(s);
                }
                Err(_) if attempt + 1 < attempts => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
                Err(_) => {}
            }
        }
        None
    }

    /// Register a freshly dialed stream with the epoll set and install
    /// it as the peer's connection. Returns false (queue dropped and
    /// counted) if registration fails.
    fn install_conn(&self, pe: u32, s: &mut PeerOut, stream: TcpStream) -> bool {
        let seq = self.next_token.fetch_add(1, Ordering::Relaxed) & 0x7fff_ffff;
        let token = OUTBOUND | seq << 32 | u64::from(pe);
        // Read interest only: the remote never sends on our outbound
        // link, so EPOLLIN here means EOF.
        if stream.set_nonblocking(true).is_err()
            || self.epoll.add(stream.as_raw_fd(), READABLE, token).is_err()
        {
            self.fail_queue(s);
            return false;
        }
        // `woff` and `want_write` are already clear: no link, no backlog.
        s.conn = Some(Arc::new(stream));
        s.token = token;
        true
    }

    /// Drop everything queued for an unreachable peer, counting each
    /// frame as a send failure (upstream retry/liveness takes over).
    fn fail_queue(&self, s: &mut PeerOut) {
        while let Some(f) = s.q.pop_front() {
            self.stats.send_failures.incr();
            self.pool.put(f);
        }
        s.q_bytes = 0;
        s.woff = 0;
    }

    /// Tear down a peer's connection after an I/O error or remote EOF:
    /// close the socket, deregister, drop the backlog (counted), and
    /// leave the slot ready for a fail-fast redial on the next send.
    fn teardown_locked(&self, s: &mut PeerOut) {
        if let Some(conn) = s.conn.take() {
            self.epoll.delete(conn.as_raw_fd());
            let _ = conn.shutdown(Shutdown::Both);
        }
        s.want_write = false;
        self.fail_queue(s);
    }

    /// Flush as much of the peer's queue as the socket will take, in as
    /// few vectored writes as possible. Caller holds the peer lock; all
    /// writes are nonblocking.
    fn flush_locked(&self, s: &mut PeerOut) {
        let Some(conn) = s.conn.clone() else { return };
        let mut w = &*conn;
        while !s.q.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(s.q.len().min(MAX_IOV));
            let mut it = s.q.iter();
            let first = it.next().expect("queue non-empty");
            slices.push(IoSlice::new(&first[s.woff..]));
            for f in it.take(MAX_IOV - 1) {
                slices.push(IoSlice::new(f));
            }
            let batched = slices.len();
            match w.write_vectored(&slices) {
                Ok(mut n) if n > 0 => {
                    self.stats.frame_bytes_sent.add(n as u64);
                    if batched > 1 {
                        self.stats.coalesced_writes.incr();
                        self.stats.coalesced_frames.add(batched as u64);
                    }
                    // Advance the queue by n bytes, recycling every
                    // fully written frame.
                    while n > 0 {
                        let remaining = s.q[0].len() - s.woff;
                        if n >= remaining {
                            n -= remaining;
                            s.woff = 0;
                            let done = s.q.pop_front().expect("frame while advancing");
                            s.q_bytes -= done.len();
                            self.pool.put(done);
                            self.stats.frames_sent.incr();
                        } else {
                            s.woff += n;
                            n = 0;
                            self.stats.partial_writes.incr();
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Kernel buffer full: leave the backlog to a turn.
                    if !s.want_write {
                        s.want_write = true;
                        let fd = conn.as_raw_fd();
                        let _ = self.epoll.modify(fd, READABLE | EPOLLOUT, s.token);
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // A zero-length write or a hard error: the link is gone.
                _ => {
                    self.stats.reconnects.incr();
                    self.teardown_locked(s);
                    return;
                }
            }
        }
        // Drained: quiesce write interest so the set goes quiet.
        if s.want_write {
            s.want_write = false;
            if let Some(conn) = &s.conn {
                let _ = self.epoll.modify(conn.as_raw_fd(), READABLE, s.token);
            }
        }
    }

    // -- reactor side --------------------------------------------------

    /// One turn (see [`Transport::poll`]): take the reactor, wait at most
    /// `timeout` for readiness, dispatch it all. Every hold is bounded.
    fn turn(&self, timeout: Option<Duration>) -> bool {
        let r = timeout.map_or_else(|| self.reactor.try_lock(), |_| Some(self.reactor.lock()));
        let Some(mut r) = r else { return false };
        let outer = IN_TURN.replace(self as *const Self as usize);
        self.dispatch(&mut r, timeout.unwrap_or_default());
        IN_TURN.set(outer);
        if self.stop.load(Ordering::Acquire) {
            Self::close_inbound(&mut r);
        }
        true
    }

    fn dispatch(&self, r: &mut Reactor, timeout: Duration) {
        let n = self.epoll.wait(&mut r.events, Some(timeout)).len();
        self.stats.wakeups.add(u64::from(n > 0));
        for i in 0..n {
            let EpollEvent { data: token, events: bits } = r.events[i];
            if token == TOKEN_LISTENER {
                self.accept_ready(r);
            } else if token & OUTBOUND != 0 {
                self.outbound_event(token as u32, token, bits);
            } else if let Some(conn) = r.inbound.get_mut(&token) {
                if !self.inbound_ready(conn) {
                    // Dropping the stream closes it, which leaves the set.
                    self.pool.put(r.inbound.remove(&token).expect("conn present").buf);
                }
            }
        }
    }

    /// Teardown of the reactor's side: close the inbound connections
    /// (remote ends see EOF) and the listener. Idempotent.
    fn close_inbound(r: &mut Reactor) {
        r.inbound.clear();
        r.listener = None;
    }

    fn accept_ready(&self, r: &mut Reactor) {
        let Some(listener) = r.listener.as_ref() else { return };
        // WouldBlock (backlog drained) or a failed accept alike.
        while let Ok((stream, _)) = listener.accept() {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.stats.accepts.incr();
            let token = self.next_token.fetch_add(1, Ordering::Relaxed);
            if self.epoll.add(stream.as_raw_fd(), READABLE, token).is_err() {
                continue;
            }
            let mut buf = self.pool.get();
            let target = buf.capacity().max(READ_BUF_INIT);
            buf.resize(target, 0);
            let conn = InboundConn { stream, buf, start: 0, end: 0 };
            r.inbound.insert(token, conn);
        }
    }

    /// Writability / EOF on an outbound connection.
    fn outbound_event(&self, pe: u32, token: u64, bits: u32) {
        let mut s = self.out[pe as usize].lock();
        if s.conn.is_none() || s.token != token {
            return; // stale event for a connection already torn down
        }
        if bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP | EPOLLIN) != 0 {
            // The remote never sends on our outbound link: readability
            // or a hangup flag means the connection is gone.
            self.stats.reconnects.incr();
            self.teardown_locked(&mut s);
            return;
        }
        if bits & EPOLLOUT != 0 {
            self.flush_locked(&mut s);
        }
    }

    /// Drain one inbound connection: read everything available, parse
    /// and deliver complete frames. Returns false when the connection
    /// is finished (EOF, error, or lost framing).
    fn inbound_ready(&self, conn: &mut InboundConn) -> bool {
        loop {
            // Make room: compact consumed bytes, grow for jumbo frames.
            if conn.end == conn.buf.len() {
                if conn.start > 0 {
                    conn.buf.copy_within(conn.start..conn.end, 0);
                    conn.end -= conn.start;
                    conn.start = 0;
                } else {
                    let grown = (conn.buf.len() * 2).max(READ_BUF_INIT);
                    conn.buf.resize(grown, 0);
                }
            }
            match conn.stream.read(&mut conn.buf[conn.end..]) {
                Ok(0) => return false, // EOF
                Ok(n) => {
                    conn.end += n;
                    if !self.parse_frames(conn) {
                        return false;
                    }
                    // Level-triggered epoll re-reports anything left; a
                    // short read means the socket is drained.
                    if conn.end < conn.buf.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Parse every complete frame in `buf[start..end]` and deliver it.
    /// Returns false on lost framing (connection must drop).
    fn parse_frames(&self, conn: &mut InboundConn) -> bool {
        loop {
            let avail = conn.end - conn.start;
            if avail < 4 {
                break;
            }
            let n = u32::from_le_bytes(
                conn.buf[conn.start..conn.start + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            if (n as usize) < FRAME_HEADER_LEN || n > MAX_FRAME_LEN {
                self.stats.malformed_frames.incr();
                return false;
            }
            let total = 4 + n as usize;
            if avail < total {
                // Partial frame: ensure the buffer can ever hold it.
                if conn.buf.len() < total {
                    conn.buf.copy_within(conn.start..conn.end, 0);
                    conn.end -= conn.start;
                    conn.start = 0;
                    conn.buf.resize(total.next_power_of_two(), 0);
                }
                break;
            }
            let payload = &conn.buf[conn.start + 4..conn.start + total];
            let Ok((header, body)) = decode_frame(payload) else {
                self.stats.malformed_frames.incr();
                return false;
            };
            self.stats.frames_received.incr();
            self.stats.frame_bytes_received.add(total as u64);
            // `WorldGone`: teardown is in progress, and the stop flag
            // arrives with the transport's shutdown call.
            if let Err(DeliverError::NotHosted) = self.sink.deliver(header, body) {
                self.stats.misrouted.incr();
            }
            conn.start += total;
        }
        if conn.start == conn.end {
            conn.start = 0;
            conn.end = 0;
        }
        true
    }
}

impl Transport for TcpEventTransport {
    fn name(&self) -> &'static str {
        "tcp-event"
    }

    fn send(&self, header: Header, body: Bytes) {
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        let pe = header.dst.pe;
        let mut frame = self.pool.get();
        encode_frame_into(&header, &body, &mut frame);
        let slot = &self.out[pe as usize];
        let mut s = slot.lock();
        // At the queue's byte bound, move traffic until a flush (or a
        // teardown) makes room. A turn never sends, so it never ends
        // up here waiting on itself.
        if s.q_bytes >= SEND_QUEUE_MAX_BYTES {
            self.stats.backpressure_waits.incr();
            while s.q_bytes >= SEND_QUEUE_MAX_BYTES && !self.stop.load(Ordering::Acquire) {
                drop(s);
                self.turn(Some(HELD_TURN));
                s = slot.lock();
            }
            if self.stop.load(Ordering::Acquire) {
                self.pool.put(frame);
                return;
            }
        }
        s.q_bytes += frame.len();
        s.q.push_back(frame);
        while s.conn.is_none() {
            if s.dialing {
                // Another sender is mid-dial; our frame rides its
                // queue and flushes when the dial lands.
                return;
            }
            let budget = if s.tried { RECONNECT_ATTEMPTS } else { self.opts.connect_attempts };
            s.tried = true;
            s.dialing = true;
            // The dial blocks (bootstrap patience is correctness);
            // release the queue so other senders keep enqueueing.
            drop(s);
            let dialed = self.dial(pe, budget);
            s = slot.lock();
            s.dialing = false;
            let Some(stream) = dialed else {
                self.fail_queue(&mut s);
                return;
            };
            if !self.install_conn(pe, &mut s, stream) {
                return;
            }
        }
        // Inline fast path: flush here and now unless a backlog is
        // already armed (order demands we queue behind it and let
        // EPOLLOUT drive).
        if !s.want_write {
            self.flush_locked(&mut s);
        }
    }

    fn stats(&self) -> TransportStatsSnapshot {
        self.stats.snapshot()
    }

    fn poll_fd(&self) -> Option<c_int> {
        Some(self.epoll.fd())
    }

    fn poll(&self, timeout: Option<Duration>) -> bool {
        self.turn(timeout)
    }

    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Inside a turn on this thread, that turn closes it when it ends.
        if IN_TURN.get() != self as *const Self as usize {
            Self::close_inbound(&mut self.reactor.lock());
        }
        // Close outbound connections: remote ends see EOF. Anything
        // still queued counts as a failure (clean teardown drains first).
        // A sender held at the bound sees `stop` after its turn.
        for peer in &self.out {
            self.teardown_locked(&mut peer.lock());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Address;
    use std::sync::Weak;
    use std::time::Instant;

    fn dangling_sink() -> DeliverySink {
        DeliverySink::new(Weak::new())
    }

    /// The fd-leak test counts this process's open fds, so the tests of
    /// this module (which all open sockets) take turns.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn header(dst_pe: u32, len: u32) -> Header {
        Header {
            src: Address::new(0, 0),
            dst: Address::new(dst_pe, 0),
            tag: 1,
            ctx: 0,
            kind: 0,
            len,
            trace: 0,
        }
    }

    /// All fds this process holds, for leak accounting (sockets, epoll
    /// and eventfd instances all show up here).
    fn open_fds() -> usize {
        std::fs::read_dir("/proc/self/fd")
            .map(|d| d.count())
            .unwrap_or(0)
    }

    #[test]
    fn shutdown_is_idempotent_and_leaks_no_fds() {
        let _serial = serial();
        let before = open_fds();
        {
            let t = TcpEventTransport::start(TcpOptions::default(), 2, dangling_sink())
                .expect("start event transport");
            // Generate real traffic to itself (loopback peers): frames
            // go out, turns on this thread accept and read them,
            // delivery hits the dangling sink (world gone) and is dropped.
            for i in 0..20u32 {
                t.send(header(1, 4), Bytes::copy_from_slice(&i.to_le_bytes()));
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while t.stats().frames_received < 20 && Instant::now() < deadline {
                t.poll(Some(Duration::from_millis(5)));
            }
            assert_eq!(t.stats().frames_sent, 20, "{:?}", t.stats());
            assert_eq!(t.stats().frames_received, 20, "{:?}", t.stats());
            t.shutdown();
            t.shutdown(); // idempotent: second call is a no-op
        }
        // Sockets and the epoll set all closed.
        let deadline = Instant::now() + Duration::from_secs(2);
        while open_fds() != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(open_fds(), before, "event transport leaked fds");
    }

    /// A peer that stops reading fills the kernel buffers, then the
    /// bounded user-space queue; from there `send` waits instead of
    /// queueing. When the peer reads again everything arrives, in order.
    #[test]
    fn full_send_queue_holds_senders_back_and_loses_nothing() {
        let _serial = serial();
        const FRAMES: u32 = 400;
        const BODY: usize = 64 * 1024; // 25 MiB in all: far past any socket buffer
        let peer = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), peer.local_addr().unwrap().to_string()],
            connect_attempts: 2,
            ..TcpOptions::default()
        };
        let t = TcpEventTransport::start(opts, 2, dangling_sink()).expect("start");
        let sender = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let mut body = vec![0u8; BODY];
                for seq in 0..FRAMES {
                    body[..4].copy_from_slice(&seq.to_le_bytes());
                    t.send(header(1, BODY as u32), Bytes::copy_from_slice(&body));
                }
            })
        };
        let (mut conn, _) = peer.accept().unwrap();
        // Do not read: the sender must end up held at the bound.
        let deadline = Instant::now() + Duration::from_secs(20);
        while t.stats().backpressure_waits == 0 {
            assert!(Instant::now() < deadline, "sender never hit the bound: {:?}", t.stats());
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(!sender.is_finished(), "an unread peer must stall its sender");
        let held = t.stats();
        assert!(
            (held.frames_sent as usize) < FRAMES as usize,
            "frames cannot all be on the wire yet: {held:?}"
        );

        // The peer reads again: every frame, in send order. The tail the
        // sender leaves is flushed by the next turn: a lane's, here a stand-in's.
        let lane = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                while !t.stop.load(Ordering::Acquire) {
                    t.poll(Some(Duration::from_millis(1)));
                }
            })
        };
        conn.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut len = [0u8; 4];
        for want in 0..FRAMES {
            conn.read_exact(&mut len).expect("frame length");
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            conn.read_exact(&mut payload).expect("frame payload");
            let (_, body) = decode_frame(&payload).expect("well-formed frame");
            assert_eq!(body.len(), BODY);
            let seq = u32::from_le_bytes(body[..4].try_into().unwrap());
            assert_eq!(seq, want, "per-link FIFO broken across the backpressure wait");
        }
        sender.join().unwrap();
        t.poll(Some(Duration::ZERO)); // waits out a stand-in turn mid-flush: its writes are counted
        let snap = t.stats();
        assert_eq!(snap.frames_sent, u64::from(FRAMES), "{snap:?}");
        assert_eq!(snap.send_failures, 0, "nothing may be dropped: {snap:?}");
        assert!(snap.backpressure_waits >= 1);
        t.shutdown();
        lane.join().unwrap();
    }

    /// A sender held at the bound is released (its frame dropped, like
    /// every send after shutdown) when the transport shuts down.
    #[test]
    fn shutdown_releases_a_sender_held_at_the_bound() {
        let _serial = serial();
        let peer = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), peer.local_addr().unwrap().to_string()],
            connect_attempts: 2,
            ..TcpOptions::default()
        };
        let t = TcpEventTransport::start(opts, 2, dangling_sink()).expect("start");
        let sender = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let body = Bytes::from(vec![0u8; 256 * 1024]);
                while !t.stop.load(Ordering::Acquire) {
                    t.send(header(1, body.len() as u32), body.clone());
                }
            })
        };
        let (_conn, _) = peer.accept().unwrap(); // held open, never read
        let deadline = Instant::now() + Duration::from_secs(20);
        while t.stats().backpressure_waits == 0 {
            assert!(Instant::now() < deadline, "sender never hit the bound");
            std::thread::sleep(Duration::from_millis(10));
        }
        t.shutdown();
        let t0 = Instant::now();
        while !sender.is_finished() {
            assert!(t0.elapsed() < Duration::from_secs(5), "shutdown left a sender waiting");
            std::thread::sleep(Duration::from_millis(10));
        }
        sender.join().unwrap();
    }

    #[test]
    fn unreachable_peer_counts_failures_without_blocking_forever() {
        let _serial = serial();
        // Reserve a port nobody listens on.
        let dead = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), dead.to_string()],
            connect_attempts: 2,
            connect_backoff_ms: 1,
        };
        // rank 0 binds peers[0]; port 0 means an ephemeral bind.
        let t = TcpEventTransport::start(opts, 2, dangling_sink()).expect("start");
        let t0 = Instant::now();
        t.send(header(1, 1), Bytes::copy_from_slice(b"x"));
        assert!(t0.elapsed() < Duration::from_secs(10), "dial never failed fast");
        assert!(t.stats().send_failures >= 1, "{:?}", t.stats());
        t.shutdown();
    }
}
