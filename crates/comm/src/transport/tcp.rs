//! The TCP/socket backend: length-prefixed frames between OS processes.
//!
//! Topology: one listener per OS process. In **loopback** mode (no
//! rank, no peer list) the world binds an ephemeral `127.0.0.1` port
//! and every PE's traffic loops through it — all endpoints stay local,
//! but each message makes a real kernel round trip through the frame
//! codec, the connection manager, and a drain thread. In
//! **multi-process** mode (`rank` + `peers`) each process hosts one
//! PE's endpoints, binds its own entry from the peer list, and reaches
//! every other PE lazily through `peers[pe]`.
//!
//! Properties the conformance suite holds this backend to:
//!
//! * **Per-link FIFO.** All frames to one destination PE travel one
//!   TCP connection, written whole under a per-peer lock — so two
//!   messages on the same `(src, dst)` link can never reorder, exactly
//!   the in-process guarantee.
//! * **Backpressure, not buffering.** Writes are blocking: a full peer
//!   stalls its senders against the kernel socket buffer instead of
//!   growing an unbounded user-space queue.
//! * **Lazy connect and reconnect.** The first send to a peer dials it
//!   (patiently — multi-process bootstrap brings peers up in parallel);
//!   a write failure redials once with a short budget. A peer that
//!   stays down costs each message a bounded delay and a counted
//!   `send_failures` drop — which the RSR retry/liveness machinery
//!   upstream turns into `Timeout`/`NodeUnreachable`, unchanged.
//! * **Malformed frames are counted, never panics.** A frame the codec
//!   rejects increments `malformed_frames` and closes that connection
//!   (a byte stream that lost framing cannot be resynchronized); the
//!   next message dials a fresh connection.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use super::frame::{decode_frame, encode_frame_into, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use super::pool::BufferPool;
use super::{
    DeliverError, DeliverySink, Transport, TransportStats, TransportStatsSnapshot,
};
use crate::header::Header;

/// Configuration of the TCP backend.
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
    /// Per-frame length ceiling (capped by [`MAX_FRAME_LEN`]).
    pub max_frame_len: u32,
}

impl Default for TcpOptions {
    fn default() -> TcpOptions {
        TcpOptions {
            rank: None,
            peers: Vec::new(),
            connect_attempts: 80,
            connect_backoff_ms: 25,
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

/// Dial attempts for a peer we had reached before (it answered once, so
/// a long outage means it is gone — fail fast and let retries upstairs
/// pace themselves).
const RECONNECT_ATTEMPTS: u32 = 2;

struct PeerConn {
    /// Shared so a writer can hold the stream *outside* the state
    /// mutex: `shutdown` must always be able to reach this handle to
    /// close it out from under a writer stalled on a full peer.
    stream: Option<Arc<TcpStream>>,
    /// Has a full dial cycle (success or exhaustion) happened yet? The
    /// patient bootstrap budget applies only to the first.
    tried: bool,
}

/// Outbound state for one destination PE, split into two locks: `conn`
/// guards the connection state and is only ever held briefly (dials are
/// stop-bounded), while `write_order` is the per-link FIFO gate held
/// across the actual blocking write. A stalled peer therefore blocks
/// only the threads *writing to that peer* — never `shutdown` or anyone
/// who needs the connection state.
struct PeerSlot {
    conn: Mutex<PeerConn>,
    write_order: Mutex<()>,
}

#[derive(Default)]
struct TcpState {
    outbound: HashMap<u32, Arc<PeerSlot>>,
    /// Clones of accepted streams, kept so shutdown can unblock the
    /// drain threads parked in `read_exact`.
    accepted: Vec<TcpStream>,
    threads: Vec<JoinHandle<()>>,
}

pub(crate) struct TcpTransport {
    opts: TcpOptions,
    /// Resolved listen address of every PE's process, by PE index.
    peers: Vec<SocketAddr>,
    local_addr: SocketAddr,
    sink: DeliverySink,
    stats: Arc<TransportStats>,
    pool: BufferPool,
    state: Mutex<TcpState>,
    stop: AtomicBool,
}

impl TcpTransport {
    /// Bind the listener, start the accept thread, and return the
    /// transport. Errors are configuration/bind problems; runtime I/O
    /// failures are handled per message.
    pub fn start(
        opts: TcpOptions,
        pes: u32,
        sink: DeliverySink,
    ) -> std::io::Result<Arc<TcpTransport>> {
        let (listener, peers) = if opts.peers.is_empty() {
            assert!(
                opts.rank.is_none(),
                "a TCP rank needs a peer list (set CHANT_PEERS)"
            );
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let local = listener.local_addr()?;
            (listener, vec![local; pes as usize])
        } else {
            assert_eq!(
                opts.peers.len(),
                pes as usize,
                "CHANT_PEERS must list one address per PE ({} PEs, {} peers)",
                pes,
                opts.peers.len()
            );
            let rank = opts
                .rank
                .expect("a TCP peer list needs a rank (set CHANT_RANK)");
            let mut peers = Vec::with_capacity(opts.peers.len());
            for p in &opts.peers {
                let addr = p.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("peer address '{p}' did not resolve"),
                    )
                })?;
                peers.push(addr);
            }
            let listener = TcpListener::bind(peers[rank as usize])?;
            (listener, peers)
        };
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(TransportStats::default());
        let transport = Arc::new(TcpTransport {
            opts,
            peers,
            local_addr,
            sink,
            pool: BufferPool::new(64, Arc::clone(&stats)),
            stats,
            state: Mutex::new(TcpState::default()),
            stop: AtomicBool::new(false),
        });
        let me = Arc::clone(&transport);
        let accept = std::thread::Builder::new()
            .name("chant-tcp-accept".into())
            .spawn(move || me.accept_loop(listener))
            .expect("spawn TCP accept thread");
        transport.state.lock().threads.push(accept);
        Ok(transport)
    }

    /// The address this process listens on (for tests and reports).
    #[allow(dead_code)]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
            };
            if self.stop.load(Ordering::Acquire) {
                // The shutdown wake-up connection (or a straggler
                // arriving during teardown): drop it and exit, which
                // also drops the listener.
                return;
            }
            self.stats.accepts.incr();
            let _ = stream.set_nodelay(true);
            let clone = stream.try_clone().ok();
            let me = Arc::clone(&self);
            let handle = std::thread::Builder::new()
                .name("chant-tcp-drain".into())
                .spawn(move || me.drain(stream))
                .expect("spawn TCP drain thread");
            let mut st = self.state.lock();
            if self.stop.load(Ordering::Acquire) {
                // Shutdown raced us: close the connection so the drain
                // thread exits immediately; nobody will join it.
                if let Some(c) = clone {
                    let _ = c.shutdown(Shutdown::Both);
                }
                drop(handle);
                return;
            }
            if let Some(c) = clone {
                st.accepted.push(c);
            }
            st.threads.push(handle);
        }
    }

    /// Read frames off one accepted connection and deliver them into
    /// the local endpoints until EOF, error, or shutdown.
    fn drain(&self, mut stream: TcpStream) {
        let max = self.opts.max_frame_len.min(MAX_FRAME_LEN);
        let mut lenbuf = [0u8; 4];
        loop {
            if stream.read_exact(&mut lenbuf).is_err() {
                return; // EOF or shutdown
            }
            let n = u32::from_le_bytes(lenbuf);
            if (n as usize) < FRAME_HEADER_LEN || n > max {
                self.stats.malformed_frames.incr();
                return; // framing lost; drop the connection
            }
            let mut payload = vec![0u8; n as usize];
            if stream.read_exact(&mut payload).is_err() {
                return;
            }
            match decode_frame(&payload) {
                Ok((header, body)) => {
                    self.stats.frames_received.incr();
                    self.stats.frame_bytes_received.add(4 + n as u64);
                    match self.sink.deliver(header, body) {
                        Ok(()) => {}
                        Err(DeliverError::NotHosted) => {
                            self.stats.misrouted.incr();
                        }
                        Err(DeliverError::WorldGone) => return,
                    }
                }
                Err(_) => {
                    self.stats.malformed_frames.incr();
                    return;
                }
            }
        }
    }

    /// Dial a peer, with the bootstrap budget on the first cycle and
    /// the fail-fast budget afterwards.
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

    fn peer_slot(&self, pe: u32) -> Arc<PeerSlot> {
        let mut st = self.state.lock();
        Arc::clone(st.outbound.entry(pe).or_insert_with(|| {
            Arc::new(PeerSlot {
                conn: Mutex::new(PeerConn {
                    stream: None,
                    tried: false,
                }),
                write_order: Mutex::new(()),
            })
        }))
    }

    /// The peer's stream, dialing first if necessary. Holds the state
    /// lock only for the lookup/install — never across a write.
    fn connected_stream(&self, pe: u32, slot: &PeerSlot) -> Option<Arc<TcpStream>> {
        let mut conn = slot.conn.lock();
        if conn.stream.is_none() {
            let budget = if conn.tried {
                RECONNECT_ATTEMPTS
            } else {
                self.opts.connect_attempts
            };
            conn.tried = true;
            conn.stream = self.dial(pe, budget).map(Arc::new);
        }
        conn.stream.as_ref().map(Arc::clone)
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn send(&self, header: Header, body: Bytes) {
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        let mut frame = self.pool.get();
        encode_frame_into(&header, &body, &mut frame);
        let slot = self.peer_slot(header.dst.pe);
        // One connection per destination PE, frames written whole in the
        // order senders acquire this gate: per-link FIFO by
        // construction. The blocking write happens while holding
        // `write_order` alone — the `conn` state lock is taken only for
        // the brief dial/lookup, so shutdown can always reach the
        // stream handle and close it out from under a stalled write.
        let _order = slot.write_order.lock();
        // Re-check under the gate: a send that raced past the first
        // check must not dial a fresh connection after `shutdown` has
        // already swept the peer map (the new socket would never be
        // closed until process exit).
        if self.stop.load(Ordering::Acquire) {
            self.pool.put(frame);
            return;
        }
        let Some(stream) = self.connected_stream(header.dst.pe, &slot) else {
            self.stats.send_failures.incr();
            self.pool.put(frame);
            return;
        };
        let mut sent = (&*stream).write_all(&frame).is_ok();
        if !sent && self.stop.load(Ordering::Acquire) {
            // The write failed because shutdown closed the stream out
            // from under us — surface the failure but don't redial a
            // connection nobody would ever close.
            self.stats.send_failures.incr();
            self.pool.put(frame);
            return;
        }
        if !sent {
            // The peer dropped the connection (restart, shutdown, or a
            // malformed-frame disconnect): redial once, fail-fast.
            self.stats.reconnects.incr();
            let redialed = {
                let mut conn = slot.conn.lock();
                conn.stream = self.dial(header.dst.pe, RECONNECT_ATTEMPTS).map(Arc::new);
                conn.stream.as_ref().map(Arc::clone)
            };
            sent = match redialed {
                Some(s) => (&*s).write_all(&frame).is_ok(),
                None => false,
            };
            if !sent {
                slot.conn.lock().stream = None;
                self.stats.send_failures.incr();
                self.pool.put(frame);
                return;
            }
        }
        self.stats.frames_sent.incr();
        self.stats.frame_bytes_sent.add(frame.len() as u64);
        self.pool.put(frame);
    }

    fn stats(&self) -> TransportStatsSnapshot {
        self.stats.snapshot()
    }

    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        let (outbound, accepted, threads) = {
            let mut st = self.state.lock();
            (
                std::mem::take(&mut st.outbound),
                std::mem::take(&mut st.accepted),
                std::mem::take(&mut st.threads),
            )
        };
        // Close outbound connections: remote drain threads see EOF, and
        // any writer stalled in `write_all` against a full peer errors
        // out (it holds `write_order`, not `conn`, so this never
        // blocks).
        for slot in outbound.into_values() {
            if let Some(s) = slot.conn.lock().stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        // Unblock local drain threads parked in read_exact.
        for s in accepted {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Unblock the accept thread (the handshake completes via the
        // backlog even if accept() never picks the connection up).
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(500));
        // Join everything — except ourselves, when the last world
        // reference happened to be dropped on a transport thread.
        let me = std::thread::current().id();
        for t in threads {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Address;
    use std::sync::Weak;
    use std::time::Instant;

    /// Regression: a writer stalled in `write_all` against a peer that
    /// stopped reading (kernel buffers full) must not wedge `shutdown`.
    /// The pre-split code held the per-peer mutex across the blocking
    /// write, so shutdown deadlocked behind the stalled sender.
    #[test]
    fn shutdown_unblocks_a_writer_stalled_on_a_full_peer() {
        // A peer that accepts connections and never reads them: writes
        // toward it back up against the kernel socket buffers.
        let stall = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stall_addr = stall.local_addr().unwrap();
        std::thread::Builder::new()
            .name("stall-peer".into())
            .spawn(move || {
                let mut held = Vec::new();
                while let Ok((s, _)) = stall.accept() {
                    held.push(s);
                }
            })
            .unwrap();

        let opts = TcpOptions {
            rank: Some(0),
            peers: vec!["127.0.0.1:0".into(), stall_addr.to_string()],
            connect_attempts: 2,
            ..TcpOptions::default()
        };
        let transport = TcpTransport::start(opts, 2, DeliverySink::new(Weak::new())).unwrap();

        // Pump megabyte frames at the stalled peer until one blocks.
        let t = Arc::clone(&transport);
        let writer = std::thread::spawn(move || {
            let body = Bytes::from(vec![0u8; 1 << 20]);
            loop {
                let header = Header {
                    src: Address::new(0, 0),
                    dst: Address::new(1, 0),
                    tag: 1,
                    ctx: 0,
                    kind: crate::header::kind::DATA,
                    len: body.len() as u32,
                    #[cfg(feature = "trace")]
                    trace: 0,
                };
                t.send(header, body.clone());
                if t.stats().send_failures > 0 {
                    return; // shutdown errored the stalled write out
                }
            }
        });

        // Wait until the writer is actually stalled: frames_sent stops
        // advancing across an observation window.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let before = transport.stats().frames_sent;
            std::thread::sleep(Duration::from_millis(150));
            if transport.stats().frames_sent == before && before > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "writer never stalled");
        }

        // Shutdown must complete promptly even with the write in
        // flight.
        let t = Arc::clone(&transport);
        let shut = std::thread::spawn(move || t.shutdown());
        let start = Instant::now();
        while !shut.is_finished() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "shutdown wedged behind a stalled writer"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        shut.join().unwrap();
        writer.join().unwrap();
        let snap = transport.stats();
        assert!(snap.send_failures >= 1, "stalled write must surface as a counted failure");
    }
}
