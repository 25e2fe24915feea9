//! A Chant node: one `(pe, process)` context hosting talking threads.
//!
//! The node wires together one virtual processor from the thread package
//! and one endpoint from the communication package, and implements the
//! paper's point-to-point layer on top: sends carry the destination
//! thread's name in the header ([`crate::NamingMode`]), receives go
//! through the configured [`crate::PollingPolicy`], and nothing ever
//! blocks the processor.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::AtomicU32;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use chant_comm::{kind, Address, CommWorld, Endpoint, Header, RecvHandle, RecvSpec};
use chant_obs::CounterFamily;
use chant_ult::{current_tid, SpawnAttr, Tid, TlsKey, Vp};
use parking_lot::Mutex;

use crate::error::ChantError;
use crate::id::ChanterId;
use crate::naming::NamingMode;
use crate::poll::{PollEngine, PollingPolicy};
use crate::rsr::{HandlerTable, RetryPolicy, RsrState, RsrStatsSnapshot};

/// A thread entry function registered in the cluster's entry table,
/// nameable from remote nodes (paper §3.3: remote thread creation).
pub(crate) type EntryFn = Arc<dyn Fn(&Arc<ChantNode>, Bytes) -> Bytes + Send + Sync>;

/// How a Chant thread finished (recorded for remote joiners).
#[derive(Clone, Debug)]
pub(crate) enum ExitOutcome {
    Value(Bytes),
    Panicked(String),
    Cancelled,
}

pub(crate) struct ExitRecord {
    pub outcome: ExitOutcome,
    pub claimed: bool,
}

/// One party to a deferred JOIN reply: `(joiner, reply_token, seq)`.
pub(crate) type JoinWaiter = (ChanterId, u32, u64);

/// Panic payload implementing `pthread_chanter_exit`: terminate the
/// calling thread, making `0.0` its exit value.
pub(crate) struct ExitPayload(pub Bytes);

/// "The node I belong to", per *user-level* thread: the slot lives in
/// the thread's TCB. (An OS-level `thread_local!` would be shared by
/// every thread of the lane, and the first chanter to exit would clear
/// it for all the others.)
fn current_node_key() -> TlsKey<Arc<ChantNode>> {
    static KEY: OnceLock<TlsKey<Arc<ChantNode>>> = OnceLock::new();
    *KEY.get_or_init(TlsKey::new)
}

/// One `(pe, process)` worth of the Chant runtime.
pub struct ChantNode {
    pe: u32,
    process: u32,
    vp: Arc<Vp>,
    endpoint: Arc<Endpoint>,
    world: CommWorld,
    naming: NamingMode,
    engine: PollEngine,
    pub(crate) entries: Arc<HashMap<String, EntryFn>>,
    pub(crate) handlers: Arc<HandlerTable>,
    pub(crate) rsr: RsrState,
    pub(crate) exits: Mutex<HashMap<Tid, ExitRecord>>,
    /// Deferred JOIN repliers: `(joiner, reply_token, request_seq)` per
    /// still-running thread. The seq rides along so the reply can be
    /// cached in the dedup table when it is finally sent.
    pub(crate) exit_waiters: Mutex<HashMap<Tid, Vec<JoinWaiter>>>,
    /// Threads detached before exiting: their exit record is discarded.
    pub(crate) detach_requested: Mutex<std::collections::HashSet<Tid>>,
    /// Node-local key/value store backing the remote-fetch/store service
    /// (the paper's "coherence management" class of RSRs).
    pub(crate) kv: Mutex<HashMap<String, Bytes>>,
    pub(crate) server_tid: AtomicU32,
    /// Typed per-node extension state, keyed by type. Runtime extensions
    /// (e.g. `chant-rma`'s segment table) hang their node-scoped state
    /// here instead of the core growing a field per subsystem.
    ext: Mutex<HashMap<std::any::TypeId, Arc<dyn Any + Send + Sync>>>,
    /// Counter families of the extensions installed on this node (KV,
    /// pub-sub), in the order they registered.
    ext_counters: Mutex<Vec<Arc<dyn CounterFamily>>>,
}

impl ChantNode {
    #[allow(clippy::too_many_arguments)] // crate-internal, called once by the builder
    pub(crate) fn new(
        pe: u32,
        process: u32,
        world: CommWorld,
        naming: NamingMode,
        policy: PollingPolicy,
        retry: Option<RetryPolicy>,
        entries: Arc<HashMap<String, EntryFn>>,
        handlers: Arc<HandlerTable>,
    ) -> Arc<ChantNode> {
        let vp = Vp::new(chant_ult::VpConfig::named(format!("pe{pe}.{process}")));
        let endpoint = world.endpoint(Address::new(pe, process));
        let engine = PollEngine::install(Arc::clone(&vp), policy);
        // An idle lane sleeps; every arrival at this node's endpoint —
        // whichever thread of whichever transport delivers it — ends the
        // sleep, so the lane re-tests what its threads are waiting for.
        // Weak: the world owns the endpoint and outlives the node.
        let sleeper = Arc::downgrade(&vp);
        endpoint.set_waker(move || {
            if let Some(vp) = sleeper.upgrade() {
                vp.wake();
            }
        });
        // A socket transport has no thread of its own: each PE's lanes
        // read its sockets. This one also sleeps on its PE's epoll set
        // and runs a turn when it wakes on it (or, busy, every 50 µs);
        // what its threads send waits for that turn or for the flush
        // before it parks, so a round's sends to a peer share one write.
        #[cfg(target_os = "linux")]
        if let Some(progress) = world.progress(pe) {
            let flusher = progress.clone();
            vp.set_progress(progress.fd(), move || progress.turn(), move || flusher.flush());
        }
        Arc::new(ChantNode {
            pe,
            process,
            vp,
            endpoint,
            world,
            naming,
            engine,
            entries,
            handlers,
            rsr: RsrState::new(retry),
            exits: Mutex::new(HashMap::new()),
            exit_waiters: Mutex::new(HashMap::new()),
            detach_requested: Mutex::new(std::collections::HashSet::new()),
            kv: Mutex::new(HashMap::new()),
            server_tid: AtomicU32::new(0),
            ext: Mutex::new(HashMap::new()),
            ext_counters: Mutex::new(Vec::new()),
        })
    }

    // ------------------------------------------------------------------
    // Identity & introspection
    // ------------------------------------------------------------------

    /// This node's processing element id.
    pub fn pe(&self) -> u32 {
        self.pe
    }

    /// This node's process id within its PE.
    pub fn process(&self) -> u32 {
        self.process
    }

    /// This node's `(pe, process)` address.
    pub fn address(&self) -> Address {
        Address::new(self.pe, self.process)
    }

    /// The naming mode in force (where thread ids travel in headers).
    pub fn naming(&self) -> NamingMode {
        self.naming
    }

    /// The polling policy in force.
    pub fn policy(&self) -> PollingPolicy {
        self.engine.policy()
    }

    /// The underlying virtual processor (scheduling stats live here).
    pub fn vp(&self) -> &Arc<Vp> {
        &self.vp
    }

    /// The underlying communication endpoint (comm stats live here).
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.endpoint
    }

    /// The communication world this node belongs to.
    pub fn world(&self) -> &CommWorld {
        &self.world
    }

    pub(crate) fn engine(&self) -> &PollEngine {
        &self.engine
    }

    /// This node's RSR robustness counters (retries, timeouts, dedup
    /// hits, malformed requests).
    pub fn rsr_stats(&self) -> RsrStatsSnapshot {
        self.rsr.stats.snapshot()
    }

    /// Add an extension's counter family to the ones this node reports:
    /// called once, where the extension creates its per-node state.
    pub fn add_counters(&self, family: Arc<dyn CounterFamily>) {
        self.ext_counters.lock().push(family);
    }

    /// Every counter of every family that lives on this node — `ult`,
    /// `comm`, `rsr`, then each installed extension's — as
    /// `("<family>.<field>", value)`. Transport and fault-shim counters
    /// belong to the world, not to a node (see
    /// [`crate::ClusterReport::counters`] for the cluster-wide view).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let builtin: [&dyn CounterFamily; 3] =
            [self.vp.stats(), &**self.endpoint.stats(), &self.rsr.stats];
        let ext = self.ext_counters.lock();
        builtin
            .into_iter()
            .chain(ext.iter().map(|f| &**f))
            .flat_map(|f| f.fields())
            .collect()
    }

    /// Take the most recent malformed-RSR note, if any (the server
    /// records one per dropped request instead of writing to stderr).
    pub fn take_rsr_malformed_note(&self) -> Option<String> {
        self.rsr.take_malformed_note()
    }

    /// The node the calling user-level thread belongs to
    /// (cf. `pthread_chanter_self`'s ambient context).
    pub fn current() -> Option<Arc<ChantNode>> {
        chant_ult::is_ult_context()
            .then(|| current_node_key().get())
            .flatten()
    }

    /// Fetch this node's instance of a typed extension state, creating
    /// it with `init` on first use. Runtime extensions (the one-sided
    /// memory layer, for example) keep their per-node state here; one
    /// instance exists per `(node, type)` pair, shared by every caller.
    pub fn extension<T, F>(&self, init: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let mut ext = self.ext.lock();
        let entry = ext
            .entry(std::any::TypeId::of::<T>())
            .or_insert_with(|| Arc::new(init()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("extension slot holds a value of its keyed type")
    }

    /// The global id of the calling thread (`pthread_chanter_self`).
    ///
    /// # Panics
    /// Panics when called from outside a Chant thread.
    pub fn self_id(&self) -> ChanterId {
        let tid = current_tid().expect("self_id outside a user-level thread");
        ChanterId::new(self.pe, self.process, tid)
    }

    /// Validate that a global id points inside this cluster.
    pub fn check_dst(&self, dst: ChanterId) -> Result<(), ChantError> {
        if dst.pe >= self.world.pes() || dst.process >= self.world.procs_per_pe() {
            Err(ChantError::NoSuchNode { dst })
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Thread management
    // ------------------------------------------------------------------

    /// Spawn a Chant thread on this node. The closure's `Bytes` return
    /// value is the thread's exit value, available to local or remote
    /// joiners (cf. `pthread_chanter_create` with `pe == LOCAL`).
    pub fn spawn_chanter<F>(self: &Arc<Self>, attr: SpawnAttr, f: F) -> ChanterId
    where
        F: FnOnce(&Arc<ChantNode>) -> Bytes + Send + 'static,
    {
        let node = Arc::clone(self);
        let handle = self.vp.spawn(attr, move |_vp| {
            current_node_key().set(Arc::clone(&node));
            let tid = current_tid().expect("chant thread without a tid");
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&node)));
            match result {
                Ok(value) => node.record_exit(tid, ExitOutcome::Value(value)),
                Err(payload) => {
                    if let Some(exit) = payload.downcast_ref::<ExitPayload>() {
                        // pthread_chanter_exit: an orderly early exit.
                        node.record_exit(tid, ExitOutcome::Value(exit.0.clone()));
                    } else if chant_ult::is_cancel_payload(payload.as_ref()) {
                        node.record_exit(tid, ExitOutcome::Cancelled);
                        panic::resume_unwind(payload);
                    } else {
                        node.record_exit(tid, ExitOutcome::Panicked(panic_msg(&payload)));
                        panic::resume_unwind(payload);
                    }
                }
            }
            current_node_key().take();
        });
        let tid = handle.tid();
        // The ult-level handle is redundant with the Chant exit table.
        drop(handle);
        let _ = self.vp.detach(tid);
        ChanterId::new(self.pe, self.process, tid)
    }

    /// Spawn a Chant thread whose closure returns nothing.
    pub fn spawn<F>(self: &Arc<Self>, attr: SpawnAttr, f: F) -> ChanterId
    where
        F: FnOnce(&Arc<ChantNode>) + Send + 'static,
    {
        self.spawn_chanter(attr, move |node| {
            f(node);
            Bytes::new()
        })
    }

    /// Yield the processor to the next ready thread
    /// (`pthread_chanter_yield`).
    pub fn yield_now(&self) {
        self.vp.yield_now();
    }

    pub(crate) fn record_exit(self: &Arc<Self>, tid: Tid, outcome: ExitOutcome) {
        let detached = self.detach_requested.lock().remove(&tid);
        if !detached {
            self.exits.lock().insert(
                tid,
                ExitRecord {
                    outcome: outcome.clone(),
                    claimed: false,
                },
            );
        }
        let waiters = self.exit_waiters.lock().remove(&tid).unwrap_or_default();
        if !waiters.is_empty() {
            // First waiter claims the value; the rest see AlreadyJoined —
            // the same single-join rule as pthreads.
            let mut first = true;
            for (joiner, token, seq) in waiters {
                let reply = if detached {
                    Err(ChantError::NoSuchThread(ChanterId::new(
                        self.pe,
                        self.process,
                        tid,
                    )))
                } else if first {
                    first = false;
                    self.claim_exit(tid)
                } else {
                    Err(ChantError::AlreadyJoined(ChanterId::new(
                        self.pe,
                        self.process,
                        tid,
                    )))
                };
                let sent = self.send_rsr_reply(joiner, token, seq, &reply);
                // The deferred reply resolves the table's Pending entry;
                // cache it so a lost reply can be re-requested.
                self.rsr.dedup_complete(joiner.address(), seq, sent);
            }
        }
    }

    /// Take a thread's exit value (single-claim join semantics).
    pub(crate) fn claim_exit(self: &Arc<Self>, tid: Tid) -> Result<Bytes, ChantError> {
        let id = ChanterId::new(self.pe, self.process, tid);
        let mut exits = self.exits.lock();
        match exits.get_mut(&tid) {
            None => Err(ChantError::NoSuchThread(id)),
            Some(rec) if rec.claimed => Err(ChantError::AlreadyJoined(id)),
            Some(rec) => {
                rec.claimed = true;
                match &rec.outcome {
                    ExitOutcome::Value(v) => Ok(v.clone()),
                    ExitOutcome::Panicked(msg) => Err(ChantError::ThreadPanicked(msg.clone())),
                    ExitOutcome::Cancelled => Err(ChantError::ThreadCancelled),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point among threads (paper §3.1)
    // ------------------------------------------------------------------

    /// Send `data` to the global thread `dst` (`pthread_chanter_send`).
    /// Locally blocking: the data is safe to reuse on return.
    pub fn send(&self, dst: ChanterId, tag: i32, data: &[u8]) -> Result<(), ChantError> {
        self.send_bytes(dst, tag, Bytes::copy_from_slice(data))
    }

    /// Zero-copy send of an owned buffer.
    pub fn send_bytes(&self, dst: ChanterId, tag: i32, data: Bytes) -> Result<(), ChantError> {
        self.check_dst(dst)?;
        let me = current_tid().expect("send outside a user-level thread");
        let wire = self.naming.encode(me, dst.thread, tag)?;
        self.endpoint
            .isend(dst.address(), wire.tag, wire.ctx, kind::DATA, data);
        Ok(())
    }

    /// Post a nonblocking receive (`pthread_chanter_irecv`), returning a
    /// handle testable with [`ChantNode::msgtest`] / waitable with
    /// [`ChantNode::msgwait`].
    pub fn irecv(&self, src: RecvSrc, tag: Option<i32>) -> Result<ChantRecvHandle, ChantError> {
        let me = current_tid().expect("irecv outside a user-level thread");
        let (base, src_thread) = src.into_spec()?;
        let spec = self.naming.recv_spec(base, me, src_thread, tag)?;
        Ok(ChantRecvHandle {
            inner: self.endpoint.irecv(spec),
            naming: self.naming,
        })
    }

    /// Blocking receive (`pthread_chanter_recv`): returns only when the
    /// message is in hand. Blocks the calling *thread*, never the VP —
    /// other ready threads run while this one waits under the node's
    /// polling policy.
    pub fn recv(&self, src: RecvSrc, tag: Option<i32>) -> Result<(MsgInfo, Bytes), ChantError> {
        let handle = self.irecv(src, tag)?;
        self.engine.wait(&handle.inner);
        handle
            .take()
            .ok_or_else(|| ChantError::Wire("completed receive had no message".into()))
    }

    /// Blocking receive with a deadline: like [`ChantNode::recv`] but
    /// returns [`ChantError::Timeout`] once `timeout` elapses with no
    /// matching message. The posted receive is retired on return, so a
    /// message arriving later is buffered as unexpected rather than
    /// matched to a dead receive.
    pub fn recv_timeout(
        &self,
        src: RecvSrc,
        tag: Option<i32>,
        timeout: std::time::Duration,
    ) -> Result<(MsgInfo, Bytes), ChantError> {
        let handle = self.irecv(src, tag)?;
        let waited = self
            .engine
            .wait_deadline(&handle.inner, std::time::Instant::now() + timeout);
        gave_up_or_arrived(&handle.inner, waited)?;
        handle
            .take()
            .ok_or_else(|| ChantError::Wire("completed receive had no message".into()))
    }

    /// Post a receive described by a *raw* [`RecvSpec`] — bypassing the
    /// naming layer — and wait for it under the node's polling policy,
    /// bounded by `timeout`.
    ///
    /// This is the daemon-side receive primitive: companion subsystems
    /// that own a message kind of their own (e.g. `chant-pubsub`'s
    /// relay, which serves [`chant_comm::kind::PUBSUB`] frames the way
    /// the server thread serves RSR) need to match on kind rather than
    /// on a thread-addressed `(tag, ctx)` pair, and they need the bound
    /// so a quiet link still lets their sweep run. Returns the raw
    /// transport [`Header`] alongside the body; on
    /// [`ChantError::Timeout`] the posted receive is retired, so a frame
    /// arriving later is buffered as unexpected rather than matched to a
    /// dead receive.
    pub fn recv_match_timeout(
        &self,
        spec: RecvSpec,
        timeout: std::time::Duration,
    ) -> Result<(Header, Bytes), ChantError> {
        let handle = self.endpoint.irecv(spec);
        let waited = self
            .engine
            .wait_deadline(&handle, std::time::Instant::now() + timeout);
        gave_up_or_arrived(&handle, waited)?;
        handle
            .take()
            .ok_or_else(|| ChantError::Wire("completed receive had no message".into()))
    }

    /// Wait for an outstanding receive with a deadline
    /// (`pthread_chanter_msgwait` bounded in time). The handle stays
    /// usable after a timeout — the message may still arrive.
    pub fn msgwait_timeout(
        &self,
        handle: &ChantRecvHandle,
        timeout: std::time::Duration,
    ) -> Result<(), ChantError> {
        self.engine
            .wait_deadline(&handle.inner, std::time::Instant::now() + timeout)
    }

    /// Blocking receive from one specific global thread.
    pub fn recv_from_thread(
        &self,
        src: ChanterId,
        tag: i32,
    ) -> Result<(MsgInfo, Bytes), ChantError> {
        self.recv(RecvSrc::Thread(src), Some(tag))
    }

    /// Blocking receive of a given tag from anyone.
    pub fn recv_tag(&self, tag: i32) -> Result<(MsgInfo, Bytes), ChantError> {
        self.recv(RecvSrc::Any, Some(tag))
    }

    /// Test an outstanding receive (`pthread_chanter_msgtest`).
    pub fn msgtest(&self, handle: &ChantRecvHandle) -> bool {
        handle.inner.msgtest()
    }

    /// Wait for an outstanding receive (`pthread_chanter_msgwait`),
    /// yielding to other threads under the node's polling policy.
    pub fn msgwait(&self, handle: &ChantRecvHandle) {
        self.engine.wait(&handle.inner);
    }

    /// Wait for *any* of several outstanding receives and return the
    /// index of one that completed (MPI-style wait-any, lifted to the
    /// Chant layer; the underlying polling follows the node's policy).
    pub fn msgwait_any(&self, handles: &[&ChantRecvHandle]) -> usize {
        let inner: Vec<&RecvHandle> = handles.iter().map(|h| &h.inner).collect();
        self.engine.wait_any(&inner)
    }
}

/// Settle a timed receive that is about to be abandoned. A deadline and
/// an arrival can always race; if the wait reported a timeout but the
/// message matched the posted receive before it could be retired, the
/// receive *succeeded* — dropping the handle now would drop the message
/// with it. Only a receive retired unmatched is a timeout.
fn gave_up_or_arrived(handle: &RecvHandle, waited: Result<(), ChantError>) -> Result<(), ChantError> {
    match waited {
        Err(e) if handle.retire() => Err(e),
        _ => Ok(()),
    }
}

fn panic_msg(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Source selector for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvSrc {
    /// Accept from any thread anywhere.
    Any,
    /// Accept only from one specific global thread. Requires
    /// [`NamingMode::Communicator`]; with tag overloading the source
    /// thread id is not in the header (paper §3.1).
    Thread(ChanterId),
    /// Accept from any thread of one `(pe, process)`.
    Process(Address),
}

impl RecvSrc {
    fn into_spec(self) -> Result<(RecvSpec, Option<Tid>), ChantError> {
        let base = RecvSpec::any();
        match self {
            RecvSrc::Any => Ok((base, None)),
            RecvSrc::Thread(id) => Ok((base.from(id.address()), Some(id.thread))),
            RecvSrc::Process(addr) => Ok((base.from(addr), None)),
        }
    }
}

impl From<ChanterId> for RecvSrc {
    fn from(id: ChanterId) -> RecvSrc {
        RecvSrc::Thread(id)
    }
}

/// Decoded message metadata returned with each received body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgInfo {
    /// Sending `(pe, process)`.
    pub src: Address,
    /// Sending thread id, when the naming mode carries it
    /// (`Communicator` only).
    pub src_thread: Option<Tid>,
    /// Receiving thread id as named in the header.
    pub dst_thread: Tid,
    /// User tag (decoded from the wire tag).
    pub tag: i32,
    /// Body length in bytes.
    pub len: u32,
}

impl MsgInfo {
    /// The sender's global id, when known (Communicator mode).
    pub fn src_id(&self) -> Option<ChanterId> {
        self.src_thread
            .map(|t| ChanterId::new(self.src.pe, self.src.process, t))
    }
}

/// Handle to an outstanding Chant receive.
#[derive(Clone, Debug)]
pub struct ChantRecvHandle {
    pub(crate) inner: RecvHandle,
    naming: NamingMode,
}

impl ChantRecvHandle {
    /// Non-counting completion check (bookkeeping, not polling).
    pub fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    /// Claim the delivered message once complete.
    pub fn take(&self) -> Option<(MsgInfo, Bytes)> {
        let (header, body) = self.inner.take()?;
        let (src_thread, dst_thread, tag) = self.naming.decode(header.tag, header.ctx);
        Some((
            MsgInfo {
                src: header.src,
                src_thread,
                dst_thread,
                tag,
                len: header.len,
            },
            body,
        ))
    }
}
