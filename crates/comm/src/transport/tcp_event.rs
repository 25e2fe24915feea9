//! The socket backend: length-prefixed frames between the PEs of a
//! world, one transport per hosted PE — its own listener, epoll set
//! ([`chant_ult::sys`]) and peer queues — with no thread of its own. A
//! rank hosts one PE; a loopback world hosts every PE, each on its own
//! ephemeral port, so its PEs talk exactly as ranks do. It carries only
//! messages between distinct endpoints: the world delivers a message to
//! its own sender in place, so a PE never dials its own listener.
//!
//! * **The PE's waiters drive.** All of a transport's state sits behind
//!   one lock. A *turn* ([`Transport::poll`]) waits for readiness
//!   without it, then takes it and dispatches what is ready. The set's
//!   fd is in its PE's lane's sleep set (`ChantNode::new`), so an
//!   arriving frame wakes the lane that reads it (kernel → lane, one
//!   hop); a busy lane turns at its schedule points (every 50 µs, see
//!   `chant_ult::Vp`); an OS thread blocked in `msgwait` turns its
//!   endpoint's PE while it waits. A turn pins the world, so teardown
//!   never starts inside one, and a delivery never sends (`send` panics
//!   if it does), so nothing waits for the lock its own turn holds.
//! * **Sends wait for the lane.** A sender encodes its frame onto the
//!   end of the peer's one byte buffer. A ULT whose lane drives this set
//!   (`chant_ult::current_progress_fd`) stops there: the lane hands each
//!   peer's buffer to the kernel in plain nonblocking `write`s at its
//!   next turn or before it parks ([`Transport::flush`]; `coalesced_*`
//!   count the batch depth), or at once at [`FLUSH_FRAMES`] frames or
//!   [`FLUSH_BYTES`]. Any other sender writes right there. Only a socket
//!   that pushes back arms `EPOLLOUT`; the next turn to see it resumes
//!   where the kernel stopped.
//! * **A bounded send buffer.** The backlog behind a socket that pushes
//!   back holds at most [`SEND_QUEUE_MAX_BYTES`] unwritten bytes (plus
//!   the frame that crossed the line). At the bound `send` runs turns
//!   until one makes room — counted in `backpressure_waits`. A turn reads
//!   every inbound socket too, so two ranks flooding each other each
//!   drain what holds the other back. Nothing is dropped, and byte order
//!   is send order.
//!
//! Delivery semantics are the in-process oracle's, which
//! `tests/transport_conformance.rs` holds it to: per-link FIFO (one
//! connection per destination PE, one flusher at a time under the lock).
//! Malformed frames are counted and drop their connection, never panic;
//! the first dial to a peer is patient (bootstrap), a redial fails fast,
//! and what an unreachable peer costs is a counted `send_failures` drop
//! that RSR retry/liveness upstream turns into `Timeout`/`NodeUnreachable`.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::raw::c_int;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use chant_ult::current_progress_fd;
use chant_ult::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;

use super::frame::{decode_frame, encode_frame_into, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use super::{DeliverError, DeliverySink, TcpOptions, Transport, TransportStats};
use crate::header::Header;
use crate::world::WorldInner;

/// Dial attempts for a peer reached before: it answered once, so a long
/// outage means it is gone (fail fast; retries upstairs pace themselves).
const RECONNECT_ATTEMPTS: u32 = 2;

/// Frames at which a lane's send writes at once: the first frame of a
/// batch waits for the lane's next turn or park only while this many
/// more queue behind it.
const FLUSH_FRAMES: u64 = 64;

/// Initial per-connection receive staging buffer.
const READ_BUF_INIT: usize = 64 * 1024;

/// Most unwritten bytes one peer's send buffer holds before `send`
/// waits for a flush: enough to ride out a burst against a full socket
/// buffer, small enough that a peer that stopped reading stalls its
/// senders instead of growing this process.
const SEND_QUEUE_MAX_BYTES: usize = 1 << 20;

/// Unwritten bytes at which a lane's send writes at once (a sixteenth
/// of the bound).
const FLUSH_BYTES: usize = 64 * 1024;

/// A send buffer that grew past this (one bulk frame) is freed when it
/// drains, so that it does not pin its size for good.
const MAX_KEPT_CAPACITY: usize = 1 << 20;

/// Longest a sender held at the bound waits for readiness per turn.
const HELD_TURN: Duration = Duration::from_millis(1);

/// Epoll tokens: the listener is 0, an inbound connection counts up
/// from 1, an outbound one is `OUTBOUND | sequence << 32 | peer PE` (the
/// sequence tells a torn-down connection's stale events apart).
const TOKEN_LISTENER: u64 = 0;
const OUTBOUND: u64 = 1 << 63;

/// What every connection is watched for: data, or the peer's EOF.
const READABLE: u32 = EPOLLIN | EPOLLRDHUP;

// Is this thread delivering a frame? A delivery that sent would wait
// for the lock its own turn holds; `send` panics instead.
thread_local!(static DELIVERING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });

/// Outbound state for one destination PE. One flusher at a time (the
/// lock's holder), bytes in append order: per-link FIFO by construction.
#[derive(Default)]
struct PeerOut {
    /// The connection, also in the epoll set (which watches its fd for
    /// writability and EOF). `None` until the first send dials.
    conn: Option<TcpStream>,
    /// Epoll token of `conn` (valid while `conn` is `Some`).
    token: u64,
    /// Encoded frames back to back, in send order. `buf[woff..]` is not
    /// yet handed to the kernel (bounded: [`SEND_QUEUE_MAX_BYTES`]); the
    /// written prefix is reclaimed before the buffer would grow.
    buf: Vec<u8>,
    /// Bytes of `buf` already written (partial-write resume point).
    woff: usize,
    /// Offset of the first frame no byte of which is written yet
    /// (`buf.len()` if none): where a write's count of frames begins.
    next_frame: usize,
    /// Frames appended since `buf` was last empty.
    frames: u64,
    /// Is `EPOLLOUT` armed (backlog left for a turn)?
    want_write: bool,
    /// Is some sender inside the blocking dial, with the lock released?
    dialing: bool,
    /// Has a full dial cycle happened (patient budget spent)?
    tried: bool,
}

impl PeerOut {
    /// Bytes appended but not yet handed to the kernel.
    fn unwritten(&self) -> usize {
        self.buf.len() - self.woff
    }

    /// Empty the buffer, freeing it if one bulk frame grew it past
    /// [`MAX_KEPT_CAPACITY`].
    fn clear(&mut self) {
        if self.buf.capacity() > MAX_KEPT_CAPACITY {
            self.buf = Vec::new();
        } else {
            self.buf.clear();
        }
        (self.woff, self.next_frame, self.frames) = (0, 0, 0);
    }
}

/// One accepted (inbound) connection.
struct InboundConn {
    stream: TcpStream,
    /// Staging buffer; valid bytes are `buf[start..end]`. Kept at full
    /// length (zero-filled once per growth) so reads land in `[end..]`
    /// without per-read zeroing.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Everything a turn or a send touches, behind the transport's one lock.
struct State {
    inbound: HashMap<u64, InboundConn>,
    /// `None` after teardown (dropping it closes the listening socket).
    listener: Option<TcpListener>,
    /// Outbound state, by destination PE.
    out: Vec<PeerOut>,
    /// Sequence for epoll tokens (see [`OUTBOUND`]).
    next_token: u64,
    /// Scratch for `epoll_pwait2`.
    events: Vec<EpollEvent>,
}

pub(crate) struct TcpEventTransport {
    opts: TcpOptions,
    /// Resolved listen address of every PE, by PE index.
    peers: Vec<SocketAddr>,
    sink: DeliverySink,
    stats: Arc<TransportStats>,
    epoll: Epoll,
    state: Mutex<State>,
    stop: AtomicBool,
    /// Has a lane's ULT left frames queued for its next turn or park?
    /// Relaxed: the frames are published by the lock, the lane that set it
    /// reads its own store, and whoever clears it takes the lock next and
    /// writes every queue (a frame queued in between included).
    deferred: AtomicBool,
}

impl TcpEventTransport {
    /// One transport per PE this process hosts, sharing `stats`. A rank
    /// (`opts.rank`) binds its own address from the peer list; loopback
    /// (no peer list) binds an ephemeral listener for every PE and hands
    /// each PE's transport the list of them, as a peer list would. Errors
    /// are configuration/bind problems; runtime I/O failures are handled
    /// per connection.
    pub fn start_hosted(
        opts: &TcpOptions,
        pes: u32,
        sink: &DeliverySink,
        stats: &Arc<TransportStats>,
    ) -> std::io::Result<Vec<Arc<Self>>> {
        let (listeners, peers) = if opts.peers.is_empty() {
            assert!(opts.rank.is_none(), "a TCP rank needs a peer list (set CHANT_PEERS)");
            let listeners = (0..pes).map(|_| TcpListener::bind(("127.0.0.1", 0)));
            let listeners = listeners.collect::<std::io::Result<Vec<_>>>()?;
            let peers = listeners.iter().map(TcpListener::local_addr);
            let peers = peers.collect::<std::io::Result<Vec<_>>>()?;
            (listeners, peers)
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
            (vec![TcpListener::bind(peers[rank as usize])?], peers)
        };
        let start = |listener: TcpListener| {
            listener.set_nonblocking(true)?;
            let epoll = Epoll::new()?;
            epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
            let state = State {
                inbound: HashMap::new(),
                listener: Some(listener),
                out: peers.iter().map(|_| PeerOut::default()).collect(),
                next_token: TOKEN_LISTENER + 1,
                events: vec![EpollEvent::default(); 128],
            };
            Ok(Arc::new(TcpEventTransport {
                opts: opts.clone(),
                peers: peers.clone(),
                sink: sink.clone(),
                stats: Arc::clone(stats),
                epoll,
                state: Mutex::new(state),
                stop: AtomicBool::new(false),
                deferred: AtomicBool::new(false),
            }))
        };
        listeners.into_iter().map(start).collect()
    }

    // -- sender side ---------------------------------------------------

    /// Dial a peer, with the bootstrap budget on the first cycle and
    /// the fail-fast budget afterwards. Called with the lock released
    /// (the `dialing` flag keeps it single-flight).
    fn dial(&self, pe: usize, attempts: u32) -> Option<TcpStream> {
        let addr = self.peers[pe];
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
    /// it as peer `pe`'s connection. Returns false (queue dropped and
    /// counted) if registration fails.
    fn install_conn(&self, st: &mut State, pe: usize, stream: TcpStream) -> bool {
        let seq = st.next_token & 0x7fff_ffff;
        st.next_token += 1;
        let token = OUTBOUND | seq << 32 | pe as u64;
        let s = &mut st.out[pe];
        // Read interest only: the remote never sends on our outbound
        // link, so EPOLLIN here means EOF.
        if stream.set_nonblocking(true).is_err()
            || self.epoll.add(stream.as_raw_fd(), READABLE, token).is_err()
        {
            self.fail_queue(s);
            return false;
        }
        // `woff` and `want_write` are already clear: no link, no backlog.
        s.conn = Some(stream);
        s.token = token;
        true
    }

    /// Drop everything queued for an unreachable peer, counting each
    /// frame appended since the buffer was last empty as a send failure
    /// (upstream retry/liveness takes over). That is exact unless a
    /// partial write came first: its fully written frames count too.
    fn fail_queue(&self, s: &mut PeerOut) {
        self.stats.send_failures.add(s.frames);
        s.clear();
    }

    /// Tear down a peer's connection after an I/O error or remote EOF:
    /// close the socket, deregister, drop the backlog (counted), and
    /// leave the slot ready for a fail-fast redial on the next send.
    fn teardown(&self, s: &mut PeerOut) {
        if let Some(conn) = s.conn.take() {
            self.epoll.delete(conn.as_raw_fd());
            let _ = conn.shutdown(Shutdown::Both);
        }
        s.want_write = false;
        self.fail_queue(s);
    }

    /// Hand as much of the peer's buffer to the kernel as the socket
    /// will take, in plain nonblocking writes.
    fn flush_peer(&self, s: &mut PeerOut) {
        let Some(mut w) = s.conn.as_ref() else { return };
        while s.woff < s.buf.len() {
            match w.write(&s.buf[s.woff..]) {
                Ok(n) if n > 0 => {
                    s.woff += n;
                    self.stats.frame_bytes_sent.add(n as u64);
                    // Count the frames whose first byte this write carried.
                    let mut started = 0;
                    while s.next_frame < s.woff {
                        let len = s.buf[s.next_frame..][..4].try_into().expect("4 bytes");
                        s.next_frame += 4 + u32::from_le_bytes(len) as usize;
                        started += 1;
                    }
                    if started > 1 {
                        self.stats.coalesced_writes.incr();
                        self.stats.coalesced_frames.add(started);
                    }
                    // The write stopped inside a frame.
                    self.stats.partial_writes.add(u64::from(s.next_frame > s.woff));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Kernel buffer full: leave the backlog to a turn.
                    if !std::mem::replace(&mut s.want_write, true) {
                        let _ = self.epoll.modify(w.as_raw_fd(), READABLE | EPOLLOUT, s.token);
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // A zero-length write or a hard error: the link is gone.
                _ => {
                    self.stats.reconnects.incr();
                    self.teardown(s);
                    return;
                }
            }
        }
        // Drained: quiesce write interest so the set goes quiet.
        if std::mem::take(&mut s.want_write) {
            let _ = self.epoll.modify(w.as_raw_fd(), READABLE, s.token);
        }
        s.clear();
    }

    // -- reactor side --------------------------------------------------

    /// Dispatch everything ready now, delivering into `world` (`None`:
    /// it is gone, and what arrives is read and dropped).
    fn dispatch(&self, st: &mut State, world: Option<&WorldInner>) {
        let n = self.epoll.wait(&mut st.events, Some(Duration::ZERO)).len();
        self.stats.wakeups.add(u64::from(n > 0));
        for i in 0..n {
            let EpollEvent { data: token, events: bits } = st.events[i];
            if token == TOKEN_LISTENER {
                self.accept_ready(st);
            } else if token & OUTBOUND != 0 {
                self.outbound_event(st, token, bits);
            } else if let Some(conn) = st.inbound.get_mut(&token) {
                if !self.inbound_ready(conn, world) {
                    // Dropping the stream closes it, which leaves the set.
                    st.inbound.remove(&token);
                }
            }
        }
    }

    fn accept_ready(&self, st: &mut State) {
        let Some(listener) = st.listener.as_ref() else { return };
        // WouldBlock (backlog drained) or a failed accept alike.
        while let Ok((stream, _)) = listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.stats.accepts.incr();
            let token = st.next_token;
            st.next_token += 1;
            if self.epoll.add(stream.as_raw_fd(), READABLE, token).is_err() {
                continue;
            }
            let conn = InboundConn { stream, buf: vec![0; READ_BUF_INIT], start: 0, end: 0 };
            st.inbound.insert(token, conn);
        }
    }

    /// Writability / EOF on an outbound connection.
    fn outbound_event(&self, st: &mut State, token: u64, bits: u32) {
        let s = &mut st.out[token as u32 as usize];
        if s.conn.is_none() || s.token != token {
            return; // stale event for a connection already torn down
        }
        if bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP | EPOLLIN) != 0 {
            // The remote never sends on our outbound link: readability
            // or a hangup flag means the connection is gone.
            self.stats.reconnects.incr();
            self.teardown(s);
        } else if bits & EPOLLOUT != 0 {
            self.flush_peer(s);
        }
    }

    /// Drain one inbound connection: read everything available, parse
    /// and deliver complete frames. Returns false when the connection
    /// is finished (EOF, error, or lost framing).
    fn inbound_ready(&self, conn: &mut InboundConn, world: Option<&WorldInner>) -> bool {
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
            let offered = conn.buf.len() - conn.end;
            match conn.stream.read(&mut conn.buf[conn.end..]) {
                Ok(0) => return false, // EOF
                Ok(n) => {
                    conn.end += n;
                    if !self.parse_frames(conn, world) {
                        return false;
                    }
                    // A read shorter than the space it was offered means
                    // the socket is drained (parsing may have reset `end`).
                    if n < offered {
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
    fn parse_frames(&self, conn: &mut InboundConn, world: Option<&WorldInner>) -> bool {
        loop {
            let avail = conn.end - conn.start;
            if avail < 4 {
                break;
            }
            let n = u32::from_le_bytes(conn.buf[conn.start..][..4].try_into().expect("4 bytes"));
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
            DELIVERING.set(true);
            // `WorldGone`: teardown is in progress, and the stop flag
            // arrives with the transport's shutdown call.
            let delivered = world.map_or(Err(DeliverError::WorldGone), |w| w.deliver(header, body));
            DELIVERING.set(false);
            if delivered == Err(DeliverError::NotHosted) {
                self.stats.misrouted.incr();
            }
            conn.start += total;
        }
        if conn.start == conn.end {
            (conn.start, conn.end) = (0, 0);
        }
        true
    }
}

impl Transport for TcpEventTransport {
    fn name(&self) -> &'static str {
        "tcp-event"
    }

    fn send(&self, header: Header, body: Bytes) {
        assert!(!DELIVERING.get(), "a delivery sent: it would wait for its own turn's lock");
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        let pe = header.dst.pe as usize;
        let mut st = self.state.lock();
        // At the buffer's byte bound, run turns until a flush (or a
        // teardown) makes room. A turn waits without the lock, so the
        // PE's other senders, its lanes' turns and a dialer landing the
        // peer's connection go on meanwhile.
        if st.out[pe].unwritten() >= SEND_QUEUE_MAX_BYTES {
            self.stats.backpressure_waits.incr();
            while st.out[pe].unwritten() >= SEND_QUEUE_MAX_BYTES {
                if self.stop.load(Ordering::Acquire) {
                    return;
                }
                drop(st);
                self.poll(HELD_TURN);
                st = self.state.lock();
            }
        }
        // Counted before the peer can read it, so a reader sees it counted.
        self.stats.frames_sent.incr();
        let s = &mut st.out[pe];
        // Reclaim the written prefix rather than grow past it.
        if s.woff > 0 && s.buf.len() + 4 + FRAME_HEADER_LEN + body.len() > s.buf.capacity() {
            s.buf.drain(..s.woff);
            s.next_frame -= s.woff;
            s.woff = 0;
        }
        let capacity = s.buf.capacity();
        encode_frame_into(&header, &body, &mut s.buf);
        s.frames += 1;
        if s.buf.capacity() == capacity {
            self.stats.pool_hits.incr();
        } else {
            self.stats.pool_misses.incr();
        }
        if s.conn.is_none() {
            if s.dialing {
                // Mid-dial elsewhere: the frame leaves when that dial lands.
                return;
            }
            let budget = if s.tried { RECONNECT_ATTEMPTS } else { self.opts.connect_attempts };
            s.tried = true;
            s.dialing = true;
            // The dial blocks (bootstrap patience is correctness);
            // release the lock so other senders and turns go on.
            drop(st);
            let dialed = self.dial(pe, budget);
            st = self.state.lock();
            let st = &mut *st;
            st.out[pe].dialing = false;
            // A teardown while we dialed closed everything else.
            let Some(stream) = dialed.filter(|_| !self.stop.load(Ordering::Acquire)) else {
                self.fail_queue(&mut st.out[pe]);
                return;
            };
            if !self.install_conn(st, pe, stream) {
                return;
            }
        }
        // A ULT on a lane driving this set leaves the write to the lane
        // (up to FLUSH_FRAMES or FLUSH_BYTES); anyone else writes now,
        // unless an armed backlog must drain first (order).
        let (s, me) = (&mut st.out[pe], Some(self.epoll.fd()));
        if s.frames < FLUSH_FRAMES && s.unwritten() < FLUSH_BYTES && current_progress_fd() == me {
            self.deferred.store(true, Ordering::Relaxed);
        } else if !s.want_write {
            self.flush_peer(s);
        }
    }

    fn poll_fd(&self) -> Option<c_int> {
        Some(self.epoll.fd())
    }

    fn flush(&self) {
        if self.deferred.swap(false, Ordering::Relaxed) {
            let st = &mut *self.state.lock();
            for s in st.out.iter_mut().filter(|s| !s.want_write) {
                self.flush_peer(s);
            }
        }
    }

    fn poll(&self, timeout: Duration) {
        // Wait for readiness without the lock: the set is level-triggered,
        // so the wait consumes nothing the dispatch below must see.
        if !timeout.is_zero() {
            self.epoll.wait(&mut [EpollEvent::default()], Some(timeout));
        }
        // Sends left by lanes go out first. The world is pinned for the
        // whole turn and let go only after the lock: if a delivery dropped
        // every other reference, the teardown that follows runs here, after.
        self.flush();
        let world = self.sink.pin();
        self.dispatch(&mut self.state.lock(), world.as_deref());
        drop(world);
    }

    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Close the listener and every connection: remote ends see EOF.
        // Anything still queued counts as a failure (clean teardown
        // drains first). A sender held at the bound sees `stop` after
        // its turn.
        let st = &mut *self.state.lock();
        st.inbound.clear();
        st.listener = None;
        for s in &mut st.out {
            self.teardown(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Address;
    use crate::transport::encode_frame;
    use std::sync::Weak;
    use std::time::Instant;

    /// The transports of the PEs `opts` hosts, sharing fresh counters,
    /// delivering into no world.
    fn start(opts: TcpOptions, pes: u32) -> Vec<Arc<TcpEventTransport>> {
        let (sink, stats) = (DeliverySink::new(Weak::new()), Arc::default());
        TcpEventTransport::start_hosted(&opts, pes, &sink, &stats).expect("start event transport")
    }

    impl TcpEventTransport {
        fn stats(&self) -> crate::transport::TransportStatsSnapshot {
            self.stats.snapshot()
        }
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
            let ts = start(TcpOptions::default(), 2);
            let (t, peer) = (&ts[0], &ts[1]);
            // Real traffic between two loopback PEs: PE 0's frames go
            // out, turns of PE 1's transport on this thread accept and
            // read them, delivery hits no world and is dropped.
            for i in 0..20u32 {
                t.send(header(1, 4), Bytes::copy_from_slice(&i.to_le_bytes()));
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while t.stats().frames_received < 20 && Instant::now() < deadline {
                peer.poll(Duration::from_millis(5));
            }
            assert_eq!(t.stats().frames_sent, 20, "{:?}", t.stats());
            assert_eq!(t.stats().frames_received, 20, "{:?}", t.stats());
            for t in &ts {
                t.shutdown();
                t.shutdown(); // idempotent: second call is a no-op
            }
        }
        // Sockets and the epoll set all closed.
        let deadline = Instant::now() + Duration::from_secs(2);
        while open_fds() != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(open_fds(), before, "event transport leaked fds");
    }

    /// Loopback gives every PE a listener and an epoll set of its own,
    /// and every PE's transport the same list of where they listen.
    #[test]
    fn loopback_gives_every_pe_its_own_listener_and_set() {
        let _serial = serial();
        let ts = start(TcpOptions::default(), 3);
        assert_eq!(ts.len(), 3);
        for (pe, t) in ts.iter().enumerate() {
            let local = t.state.lock().listener.as_ref().unwrap().local_addr().unwrap();
            assert_eq!(t.peers[pe], local, "PE {pe} listens where the others dial it");
            assert_eq!(t.peers, ts[0].peers);
        }
        let sets: std::collections::HashSet<_> = ts.iter().map(|t| t.epoll.fd()).collect();
        let ports: std::collections::HashSet<_> = ts[0].peers.iter().map(|a| a.port()).collect();
        assert_eq!((sets.len(), ports.len()), (3, 3));
        ts.iter().for_each(|t| t.shutdown());
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
        let t = start(opts, 2).remove(0);
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
                    t.poll(Duration::from_millis(1));
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
        let snap = t.stats();
        assert_eq!(snap.frames_sent, u64::from(FRAMES), "{snap:?}");
        assert_eq!(snap.send_failures, 0, "nothing may be dropped: {snap:?}");
        assert!(snap.backpressure_waits >= 1);
        t.shutdown();
        lane.join().unwrap();
    }

    /// A sender that reaches the bound while another still dials the
    /// peer (nobody listens yet) waits without the lock, which the dialer
    /// needs to land its connection. Then every frame arrives, in order.
    #[test]
    fn a_sender_held_behind_a_dial_lets_the_dial_land() {
        let _serial = serial();
        const FRAMES: u32 = 40;
        const BODY: usize = 64 * 1024; // 2.5 MiB in all: past the bound
        let port = TcpListener::bind(("127.0.0.1", 0)).unwrap().local_addr().unwrap();
        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), port.to_string()],
            connect_attempts: 200,
            connect_backoff_ms: 5,
        };
        let t = start(opts, 2).remove(0);
        let send = |seqs: std::ops::Range<u32>| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let mut body = vec![0u8; BODY];
                for seq in seqs {
                    body[..4].copy_from_slice(&seq.to_le_bytes());
                    t.send(header(1, BODY as u32), Bytes::copy_from_slice(&body));
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let dialer = send(0..1);
        while !t.state.lock().out[1].dialing {
            assert!(Instant::now() < deadline, "the first send never dialed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let filler = send(1..FRAMES);
        while t.stats().backpressure_waits == 0 {
            assert!(Instant::now() < deadline, "the filler never hit the bound: {:?}", t.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
        // The peer comes up; a stand-in lane flushes what the senders leave.
        let peer = TcpListener::bind(port).unwrap();
        let lane = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                while !t.stop.load(Ordering::Acquire) {
                    t.poll(Duration::from_millis(1));
                }
            })
        };
        let (mut conn, _) = peer.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut len = [0u8; 4];
        for want in 0..FRAMES {
            conn.read_exact(&mut len).expect("frame length");
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            conn.read_exact(&mut payload).expect("frame payload");
            let (_, body) = decode_frame(&payload).expect("well-formed frame");
            assert_eq!(u32::from_le_bytes(body[..4].try_into().unwrap()), want);
        }
        dialer.join().unwrap();
        filler.join().unwrap();
        assert_eq!(t.stats().send_failures, 0, "{:?}", t.stats());
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
        let t = start(opts, 2).remove(0);
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

    /// Small frames, one 2 MiB frame, then more small frames, to a peer
    /// that reads only once the sender is held at the bound: every frame
    /// arrives byte-exact and in order through partial writes and the
    /// wait, none is lost, and the drained buffer, which the big frame
    /// grew past 1 MiB, is not kept at that size.
    #[test]
    fn a_bulk_frame_among_small_ones_arrives_whole_and_in_order() {
        let _serial = serial();
        const FRAMES: u32 = 9001;
        const BULK: u32 = 1000; // 1 MiB of small frames before it, 8 MiB after
        let body = |i: u32| -> Vec<u8> {
            let len = if i == BULK { 2 << 20 } else { 1 + (i as usize * 97) % 2048 };
            (0..len).map(|k| (i as usize * 31 + k * 7) as u8).collect()
        };
        let peer = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), peer.local_addr().unwrap().to_string()],
            connect_attempts: 2,
            ..TcpOptions::default()
        };
        let t = start(opts, 2).remove(0);
        let sender = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..FRAMES {
                    let b = body(i);
                    t.send(header(1, b.len() as u32), Bytes::from(b));
                }
            })
        };
        let (mut conn, _) = peer.accept().unwrap();
        // The reader pauses until the sender is held at the bound...
        let deadline = Instant::now() + Duration::from_secs(20);
        while t.stats().backpressure_waits == 0 {
            assert!(Instant::now() < deadline, "sender never hit the bound: {:?}", t.stats());
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(50));
        // ...and resumes, while a stand-in lane flushes what the sender leaves.
        let lane = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                while !t.stop.load(Ordering::Acquire) {
                    t.poll(Duration::from_millis(1));
                }
            })
        };
        conn.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut len = [0u8; 4];
        for i in 0..FRAMES {
            conn.read_exact(&mut len).expect("frame length");
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            conn.read_exact(&mut payload).expect("frame payload");
            let (h, got) = decode_frame(&payload).expect("well-formed frame");
            assert_eq!(h.len as usize, got.len());
            assert!(got[..] == body(i)[..], "frame {i} arrived altered or out of order");
        }
        sender.join().unwrap();
        let snap = t.stats();
        assert_eq!(snap.frames_sent, u64::from(FRAMES), "{snap:?}");
        assert_eq!(snap.send_failures, 0, "nothing may be dropped: {snap:?}");
        // The last byte left under the lock, in the flush that emptied
        // the buffer: taking the lock now sees that flush finished.
        let kept = t.state.lock().out[1].buf.capacity();
        assert!(kept <= MAX_KEPT_CAPACITY, "a drained buffer kept {kept} bytes");
        t.shutdown();
        lane.join().unwrap();
    }

    /// A read that fills the staging buffer with whole frames is not the
    /// end of the socket: one turn delivers a burst larger than the
    /// buffer, not just the frames that fit in it.
    #[test]
    fn one_turn_delivers_a_burst_larger_than_the_read_buffer() {
        let _serial = serial();
        let ts = start(TcpOptions::default(), 2);
        let mut raw = TcpStream::connect(ts[1].peers[1]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while ts[1].state.lock().inbound.is_empty() {
            assert!(Instant::now() < deadline, "the connection was never accepted");
            ts[1].poll(Duration::from_millis(1));
        }
        // 64-byte frames: the buffer ends on a frame boundary when full.
        let frame = encode_frame(&header(1, 15), &[7; 15]);
        let buffered = ts[1].state.lock().inbound.values().next().unwrap().buf.len();
        assert_eq!((frame.len(), buffered % frame.len()), (64, 0));
        let frames = buffered / frame.len() + 16;
        raw.write_all(&frame.repeat(frames)).unwrap();
        // Every byte is in the accepted socket before the turn.
        let mut peek = vec![0; frames * frame.len()];
        while ts[1].state.lock().inbound.values().next().unwrap().stream.peek(&mut peek).unwrap()
            < peek.len()
        {
            assert!(Instant::now() < deadline, "the burst never reached the socket");
            std::thread::sleep(Duration::from_millis(1));
        }
        ts[1].poll(Duration::ZERO);
        assert_eq!(ts[1].stats().frames_received, frames as u64, "{:?}", ts[1].stats());
        ts.iter().for_each(|t| t.shutdown());
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
        let t = start(opts, 2).remove(0);
        let t0 = Instant::now();
        t.send(header(1, 1), Bytes::copy_from_slice(b"x"));
        assert!(t0.elapsed() < Duration::from_secs(10), "dial never failed fast");
        assert!(t.stats().send_failures >= 1, "{:?}", t.stats());
        t.shutdown();
    }
}
