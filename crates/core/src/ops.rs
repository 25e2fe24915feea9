//! Global thread operations (paper §3.3), built on remote service
//! requests: "Chant utilizes the server thread and the remote service
//! request mechanism to implement primitives which may require the
//! cooperation of a remote processing element."

use std::sync::Arc;

use bytes::Bytes;
use chant_comm::Address;
use chant_ult::{Priority, SpawnAttr};

use crate::error::ChantError;
use crate::id::ChanterId;
use crate::node::{ChantNode, EntryFn};
use crate::rsr::{fns, RsrRequest};
use crate::wire::{Reader, RsrEnvelope, Writer};

/// Thread attributes carried by a remote create (the wire form of the
/// paper's `pthread_attr_t` argument to `pthread_chanter_create`).
#[derive(Clone, Debug)]
pub struct RemoteSpawnOptions {
    /// Scheduling priority class for the new thread.
    pub priority: Priority,
    /// Spawn detached: resources reclaimed at exit, joins fail.
    pub detached: bool,
    /// Thread name (defaults to the entry-function name).
    pub name: Option<String>,
}

impl Default for RemoteSpawnOptions {
    fn default() -> Self {
        RemoteSpawnOptions {
            priority: Priority::NORMAL,
            detached: false,
            name: None,
        }
    }
}

impl ChantNode {
    // ------------------------------------------------------------------
    // Remote thread management (client side)
    // ------------------------------------------------------------------

    /// Create a thread on any node of the cluster
    /// (`pthread_chanter_create` with a non-LOCAL `pe`/`process`).
    ///
    /// `entry` names a function in the cluster's entry table (registered
    /// with [`crate::ClusterBuilder::entry`] on every node — the moral
    /// equivalent of all processes loading the same program image);
    /// `arg` is passed to it. "Since thread resources (such as a stack)
    /// must be allocated by the processing element on which the thread is
    /// to be executed, creating a remote thread may require the help of
    /// another processing element" (§3.3) — that help is a CREATE service
    /// request handled by the target's server thread.
    pub fn remote_spawn(
        self: &Arc<Self>,
        dst: Address,
        entry: &str,
        arg: &[u8],
    ) -> Result<ChanterId, ChantError> {
        self.remote_spawn_opts(dst, entry, arg, RemoteSpawnOptions::default())
    }

    /// [`ChantNode::remote_spawn`] with explicit thread attributes — the
    /// paper's `pthread_chanter_create(thread, attr, ...)` carries a
    /// `pthread_attr_t`; these options are its wire form.
    pub fn remote_spawn_opts(
        self: &Arc<Self>,
        dst: Address,
        entry: &str,
        arg: &[u8],
        opts: RemoteSpawnOptions,
    ) -> Result<ChanterId, ChantError> {
        self.check_dst(ChanterId::new(dst.pe, dst.process, 0))?;
        if dst == self.address() {
            // Local case: no remote help needed; allocate directly.
            return self.spawn_entry_local_opts(entry, Bytes::copy_from_slice(arg), &opts);
        }
        let args = Writer::new()
            .str(entry)
            .bytes(arg)
            .u8(opts.priority.index() as u8)
            .u8(u8::from(opts.detached))
            .str(opts.name.as_deref().unwrap_or(""))
            .finish();
        let reply = self.rsr_call(dst, fns::CREATE, &args)?;
        let mut r = Reader::new(&reply);
        let tid = r.u32()?;
        Ok(ChanterId::new(dst.pe, dst.process, tid))
    }

    /// Wait for any Chant thread in the cluster to finish and claim its
    /// exit value (`pthread_chanter_join`). Exactly one joiner receives
    /// the value; later joins report `AlreadyJoined`.
    pub fn remote_join(self: &Arc<Self>, id: ChanterId) -> Result<Bytes, ChantError> {
        self.check_dst(id)?;
        if id.address() == self.address() {
            // Local join: block until the thread's exit (its exit record
            // is written before it finishes). Works even on a node
            // without a server thread.
            loop {
                if self.exits.lock().contains_key(&id.thread) {
                    return self.claim_exit(id.thread);
                }
                if self.vp().thread_info(id.thread).is_none() {
                    return Err(ChantError::NoSuchThread(id));
                }
                self.vp().wait_exit(id.thread);
            }
        }
        let args = Writer::new().u32(id.thread).finish();
        self.rsr_call(id.address(), fns::JOIN, &args)
    }

    /// Cancel a Chant thread anywhere in the cluster
    /// (`pthread_chanter_cancel`). Delivery is cooperative: the target
    /// exits at its next cancellation point.
    pub fn remote_cancel(self: &Arc<Self>, id: ChanterId) -> Result<(), ChantError> {
        self.check_dst(id)?;
        if id.address() == self.address() {
            return self
                .vp()
                .cancel(id.thread)
                .map_err(|_| ChantError::NoSuchThread(id));
        }
        let args = Writer::new().u32(id.thread).finish();
        self.rsr_call(id.address(), fns::CANCEL, &args)?;
        Ok(())
    }

    /// Detach a Chant thread anywhere in the cluster
    /// (`pthread_chanter_detach`): its exit value is reclaimed on exit
    /// instead of being held for a joiner.
    pub fn remote_detach(self: &Arc<Self>, id: ChanterId) -> Result<(), ChantError> {
        self.check_dst(id)?;
        if id.address() == self.address() {
            self.detach_local(id.thread);
            return Ok(());
        }
        let args = Writer::new().u32(id.thread).finish();
        self.rsr_call(id.address(), fns::DETACH, &args)?;
        Ok(())
    }

    /// Round-trip latency probe to another node's server thread.
    pub fn ping(&self, dst: Address, payload: &[u8]) -> Result<Bytes, ChantError> {
        self.rsr_call(dst, fns::PING, payload)
    }

    /// Estimate the clock offset between this process's trace timeline
    /// and `dst`'s, by piggybacking tracer timestamps on `rounds`
    /// liveness PINGs (Cristian's algorithm: the best sample is the one
    /// with the smallest round trip, its error bounded by half that
    /// RTT). Returns `None` when no tracer is installed on either side
    /// or every probe failed. The estimate's sign convention matches
    /// [`chant_obs::ClockEstimate`]: *this* clock minus the server's.
    #[cfg(feature = "trace")]
    pub fn clock_sync(
        &self,
        dst: Address,
        rounds: usize,
    ) -> Option<chant_obs::ClockEstimate> {
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t_send = chant_obs::tracer::global_now_ns()?;
            let mut probe = Vec::with_capacity(16);
            probe.extend_from_slice(CLOCK_PROBE_MAGIC);
            probe.extend_from_slice(&t_send.to_le_bytes());
            let Ok(reply) = self.ping(dst, &probe) else {
                continue;
            };
            let t_recv = chant_obs::tracer::global_now_ns()?;
            // A server without a tracer echoes the 16-byte probe (or
            // answers 0); neither is a usable sample.
            if reply.len() != 24 || reply[..8] != *CLOCK_PROBE_MAGIC {
                continue;
            }
            let t_server = u64::from_le_bytes(reply[16..24].try_into().expect("8 bytes"));
            if t_server == 0 {
                continue;
            }
            samples.push(chant_obs::ClockSample {
                t_send,
                t_server,
                t_recv,
            });
        }
        chant_obs::estimate_offset(&samples)
    }

    // ------------------------------------------------------------------
    // Remote fetch / store (the paper's "remote fetch" and "coherence
    // management" RSR examples, §3.2)
    // ------------------------------------------------------------------

    /// Fetch a value from a node's local store ("returning a value from a
    /// local addressing space that is wanted by a thread in a different
    /// addressing space").
    pub fn remote_fetch(&self, dst: Address, key: &str) -> Result<Bytes, ChantError> {
        if dst == self.address() {
            return self
                .kv
                .lock()
                .get(key)
                .cloned()
                .ok_or_else(|| ChantError::Remote(format!("no such key '{key}'")));
        }
        let args = Writer::new().str(key).finish();
        self.rsr_call(dst, fns::FETCH, &args)
    }

    /// Store a value into a node's local store.
    pub fn remote_store(&self, dst: Address, key: &str, value: &[u8]) -> Result<(), ChantError> {
        if dst == self.address() {
            self.kv
                .lock()
                .insert(key.to_string(), Bytes::copy_from_slice(value));
            return Ok(());
        }
        let args = Writer::new().str(key).bytes(value).finish();
        self.rsr_call(dst, fns::STORE, &args)?;
        Ok(())
    }

    /// Read this node's own store (local side of the coherence service).
    pub fn local_fetch(&self, key: &str) -> Option<Bytes> {
        self.kv.lock().get(key).cloned()
    }

    /// Write this node's own store.
    pub fn local_store(&self, key: &str, value: &[u8]) {
        self.kv
            .lock()
            .insert(key.to_string(), Bytes::copy_from_slice(value));
    }

    // ------------------------------------------------------------------
    // Local helpers shared by fast paths and server handlers
    // ------------------------------------------------------------------

    pub(crate) fn spawn_entry_local_opts(
        self: &Arc<Self>,
        entry: &str,
        arg: Bytes,
        opts: &RemoteSpawnOptions,
    ) -> Result<ChanterId, ChantError> {
        let f: EntryFn = self
            .entries
            .get(entry)
            .cloned()
            .ok_or_else(|| ChantError::UnknownEntry(entry.to_string()))?;
        let mut attr = SpawnAttr::new()
            .name(opts.name.clone().unwrap_or_else(|| entry.to_string()))
            .priority(opts.priority);
        if opts.detached {
            attr = attr.detached();
        }
        let id = self.spawn_chanter(attr, move |node| f(node, arg));
        if opts.detached {
            // A detached chanter's exit record is reclaimed immediately.
            self.detach_local(id.thread);
        }
        Ok(id)
    }

    pub(crate) fn detach_local(self: &Arc<Self>, tid: chant_ult::Tid) {
        let mut exits = self.exits.lock();
        if exits.remove(&tid).is_none() {
            drop(exits);
            self.detach_requested.lock().insert(tid);
        }
    }
}

/// Server-side dispatch: built-ins first, then user handlers.
/// `None` means the reply was deferred (JOIN on a still-running thread).
pub(crate) fn dispatch(
    node: &Arc<ChantNode>,
    env: &RsrEnvelope,
) -> Option<Result<Bytes, ChantError>> {
    match env.fn_id {
        fns::CREATE => Some(handle_create(node, env)),
        fns::JOIN => handle_join(node, env),
        fns::CANCEL => Some(handle_cancel(node, env)),
        fns::DETACH => Some(handle_detach(node, env)),
        fns::FETCH => Some(handle_fetch(node, env)),
        fns::STORE => Some(handle_store(node, env)),
        fns::PING => Some(Ok(handle_ping(env))),
        id => Some(match node.handlers.get(&id) {
            Some(h) => h(
                node,
                RsrRequest {
                    from: env.from,
                    fn_id: env.fn_id,
                    args: env.args.clone(),
                },
            ),
            None => Err(ChantError::UnknownRsrFunction(id)),
        }),
    }
}

/// Magic prefix marking a PING payload as a clock probe (trace builds):
/// `magic ‖ t_send:u64`. The reply appends the server's tracer clock,
/// `magic ‖ t_send ‖ t_server:u64`, turning the existing liveness probe
/// into the timestamp exchange [`ChantNode::clock_sync`] feeds into
/// [`chant_obs::clock::estimate_offset`]. Ordinary PINGs (any other
/// payload) echo unchanged, as ever.
#[cfg(feature = "trace")]
pub(crate) const CLOCK_PROBE_MAGIC: &[u8; 8] = b"CHANTCLK";

#[cfg(feature = "trace")]
fn handle_ping(env: &RsrEnvelope) -> Bytes {
    if env.args.len() == 16 && env.args[..8] == *CLOCK_PROBE_MAGIC {
        let t_server = chant_obs::tracer::global_now_ns().unwrap_or(0);
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&env.args);
        out.extend_from_slice(&t_server.to_le_bytes());
        return Bytes::from(out);
    }
    env.args.clone()
}

#[cfg(not(feature = "trace"))]
fn handle_ping(env: &RsrEnvelope) -> Bytes {
    env.args.clone()
}

fn handle_create(node: &Arc<ChantNode>, env: &RsrEnvelope) -> Result<Bytes, ChantError> {
    let mut r = Reader::new(&env.args);
    let entry = r.str()?.to_string();
    let arg = Bytes::copy_from_slice(r.bytes()?);
    let priority = Priority::from_level(r.u8()?);
    let detached = r.u8()? != 0;
    let name = r.str()?;
    let opts = RemoteSpawnOptions {
        priority,
        detached,
        name: if name.is_empty() {
            None
        } else {
            Some(name.to_string())
        },
    };
    let id = node.spawn_entry_local_opts(&entry, arg, &opts)?;
    Ok(Writer::new().u32(id.thread).finish())
}

/// JOIN defers its reply when the target is still running: the target's
/// exit path (`ChantNode::record_exit`) sends it. This keeps the server
/// free — it must never block on another thread's lifetime.
fn handle_join(node: &Arc<ChantNode>, env: &RsrEnvelope) -> Option<Result<Bytes, ChantError>> {
    let tid = match Reader::new(&env.args).u32() {
        Ok(t) => t,
        Err(e) => return Some(Err(e)),
    };
    let id = ChanterId::new(node.pe(), node.process(), tid);
    // Hold the exits lock across the liveness check and waiter
    // registration so an exit cannot slip between them unobserved.
    let exits = node.exits.lock();
    if exits.contains_key(&tid) {
        drop(exits);
        return Some(node.claim_exit(tid));
    }
    if node.vp().thread_info(tid).is_none() {
        return Some(Err(ChantError::NoSuchThread(id)));
    }
    node.exit_waiters
        .lock()
        .entry(tid)
        .or_default()
        .push((env.from, env.reply_token, env.seq));
    drop(exits);
    None
}

fn handle_cancel(node: &Arc<ChantNode>, env: &RsrEnvelope) -> Result<Bytes, ChantError> {
    let tid = Reader::new(&env.args).u32()?;
    node.vp()
        .cancel(tid)
        .map_err(|_| ChantError::NoSuchThread(ChanterId::new(node.pe(), node.process(), tid)))?;
    Ok(Bytes::new())
}

fn handle_detach(node: &Arc<ChantNode>, env: &RsrEnvelope) -> Result<Bytes, ChantError> {
    let tid = Reader::new(&env.args).u32()?;
    node.detach_local(tid);
    Ok(Bytes::new())
}

fn handle_fetch(node: &Arc<ChantNode>, env: &RsrEnvelope) -> Result<Bytes, ChantError> {
    let key = Reader::new(&env.args).str()?;
    node.kv
        .lock()
        .get(key)
        .cloned()
        .ok_or_else(|| ChantError::Remote(format!("no such key '{key}'")))
}

fn handle_store(node: &Arc<ChantNode>, env: &RsrEnvelope) -> Result<Bytes, ChantError> {
    let mut r = Reader::new(&env.args);
    let key = r.str()?.to_string();
    let value = Bytes::copy_from_slice(r.bytes()?);
    node.kv.lock().insert(key, value);
    Ok(Bytes::new())
}
