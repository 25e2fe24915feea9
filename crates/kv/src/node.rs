//! The KV service: RSR handlers, the replication daemon, and the
//! client SDK.
//!
//! Per node the service is three cooperating pieces sharing one
//! `KvState`:
//!
//! * **RSR extension handlers** ([`fns::KV_MUTATE`] and friends) run on
//!   the server thread and serve other nodes' requests. They only touch
//!   local state — the iron rule inherited from the RMA crate: a
//!   handler must never issue a blocking remote call, or two nodes'
//!   serial server threads can cross-wait into a distributed deadlock.
//!   Everything remote (replication, leases, snapshot fetch) happens in
//!   the daemon. A get or mutation is decoded, served by `serve_get` /
//!   `serve_mutate`, and encoded.
//! * the **replication daemon** (a [`ClusterBuilder::daemon`] ULT)
//!   ships applied mutations to each shard's backup, keeps read leases
//!   fresh, and re-seeds not-ready shards from the surviving replica.
//! * the **SDK** ([`KvClient`] plus the `kv_*` node-level functions)
//!   called from application threads. An op whose primary is the
//!   caller's own node is not a message to itself: the client calls
//!   `serve_get` / `serve_mutate` on the calling thread, with no codec
//!   and no server-thread round trip — as the RMA crate serves an op on
//!   its own segment — and yields if its lane is due a schedule point
//!   ([`chant_ult::yield_if_due`]), since a served op never blocks.
//!
//! Exactly-once across faults *and* a primary restart: the client
//! resubmits a timed-out op with the same `(client, seq)`; the
//! primary's per-client watermark — replicated and snapshotted together
//! with the data — recognises the duplicate and replays the cached
//! reply instead of re-applying.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_comm::Address;
use chant_core::ranges::fns;
use chant_core::{ChantError, ChantNode, ClusterBuilder, RsrRequest};
use chant_rma::{with_rma, RmaNode};
use chant_ult::UltError;

use crate::ring::{shard_of, Ring};
use crate::state::{
    entry_digest, ClientMark, Entry, Inner, KvConfig, KvState, KvStatsSnapshot, ReplRec,
    ShardState, SnapStash,
};
use crate::wire::{self, op, status, DigestReply, KvReply};
use crate::KV_SEG;

/// Register the KV service with default [`KvConfig`].
pub fn with_kv(builder: ClusterBuilder) -> ClusterBuilder {
    with_kv_config(builder, KvConfig::default())
}

/// Register the KV service on a cluster under construction: the RMA
/// service it stages bulk data through, the seven KV RSR handlers, and
/// the per-node replication daemon. Every process of a multi-process
/// cluster must use the same `cfg`.
pub fn with_kv_config(builder: ClusterBuilder, cfg: KvConfig) -> ClusterBuilder {
    // `with_rma` is idempotent (re-registering replaces equivalent
    // handlers), so composing here keeps callers to one line.
    let b = with_rma(builder);
    let mk = {
        let cfg = cfg.clone();
        move |node: &Arc<ChantNode>| {
            let st = kv_state(node);
            let _ = st.cfg.set(cfg.clone());
            st
        }
    };
    type Handler = fn(&Arc<ChantNode>, &Arc<KvState>, RsrRequest) -> Result<Bytes, ChantError>;
    let h = |f: Handler| {
        let mk = mk.clone();
        move |node: &Arc<ChantNode>, req: RsrRequest| f(node, &mk(node), req)
    };
    b.rsr_ext_handler(fns::KV_GET, h(handle_get))
        .rsr_ext_handler(fns::KV_MUTATE, h(handle_mutate))
        .rsr_ext_handler(fns::KV_REPLICATE, h(handle_replicate))
        .rsr_ext_handler(fns::KV_LEASE, h(handle_lease))
        .rsr_ext_handler(fns::KV_FLUSH, h(handle_flush))
        .rsr_ext_handler(fns::KV_SNAPSHOT, h(handle_snapshot))
        .rsr_ext_handler(fns::KV_DIGEST, h(handle_digest))
        .daemon("kv-repl", move |node| kv_loop(node, cfg.clone()))
}

fn kv_state(node: &ChantNode) -> Arc<KvState> {
    node.extension(|| {
        let st = KvState::default();
        node.add_counters(Arc::clone(&st.stats) as _);
        st
    })
}

fn ult_err(_: UltError) -> ChantError {
    ChantError::NotChantContext
}

// ----------------------------------------------------------------------
// Membership math
// ----------------------------------------------------------------------

/// Total members: every `(pe, process)` of the world, densely numbered.
fn members_of(node: &ChantNode) -> u32 {
    (node.world().pes() * node.world().procs_per_pe()).max(1)
}

/// This node's dense member index.
fn member_index(node: &ChantNode) -> u32 {
    node.pe() * node.world().procs_per_pe() + node.process()
}

/// Member index → address, inverse of [`member_index`].
fn member_addr(member: u32, procs_per_pe: u32) -> Address {
    let p = procs_per_pe.max(1);
    Address::new(member / p, member % p)
}

fn addr_of(node: &ChantNode, member: u32) -> Address {
    member_addr(member, node.world().procs_per_pe())
}

fn ring_of<'a>(node: &ChantNode, st: &'a KvState) -> &'a Ring {
    st.ring
        .get_or_init(|| Ring::new(members_of(node), st.config().vnodes))
}

/// Segment layout: per-source replication staging slots first, then
/// per-requester snapshot slots.
fn repl_off(cfg: &KvConfig, src: u32) -> u64 {
    (src as u64) * (cfg.slot_bytes as u64)
}

fn snap_off(cfg: &KvConfig, members: u32, requester: u32) -> u64 {
    (members as u64) * (cfg.slot_bytes as u64) + (requester as u64) * (cfg.snap_slot_bytes as u64)
}

fn seg_size(cfg: &KvConfig, members: u32) -> usize {
    (members as usize) * (cfg.slot_bytes + cfg.snap_slot_bytes)
}

// ----------------------------------------------------------------------
// RSR handlers (server thread; local state only)
// ----------------------------------------------------------------------

/// A reply that carries no value.
fn bare(status: u8, ver: u64) -> KvReply {
    KvReply {
        status,
        ver,
        val: Bytes::new(),
    }
}

fn reply(status: u8, ver: u64) -> Result<Bytes, ChantError> {
    Ok(wire::encode_reply(&bare(status, ver)))
}

fn handle_mutate(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    req: RsrRequest,
) -> Result<Bytes, ChantError> {
    let a = match wire::decode_mutate(&req.args) {
        Ok(a) => a,
        Err(e) => {
            st.stats.malformed.incr();
            return Err(e);
        }
    };
    serve_mutate(node, st, &a).map(Served::encoded)
}

/// A served mutation's reply, with the encoding the `(client, seq)`
/// watermark holds for it when there is one: the RSR handler sends that
/// encoding, an in-place caller reads `reply` and decodes nothing.
struct Served {
    reply: KvReply,
    cached: Option<Bytes>,
}

impl Served {
    fn encoded(self) -> Bytes {
        self.cached.unwrap_or_else(|| wire::encode_reply(&self.reply))
    }
}

/// Apply one mutation at this node, the shard's primary: every check
/// (size, primary, ready, the `(client, seq)` watermark), the applied
/// entry, the cached reply and the replication enqueue. The one copy of
/// the op, for the RSR handler and for a client on this node alike.
fn serve_mutate(
    node: &ChantNode,
    st: &KvState,
    a: &wire::MutateArgs,
) -> Result<Served, ChantError> {
    let refused = |status, ver| {
        Ok(Served {
            reply: bare(status, ver),
            cached: None,
        })
    };
    let cfg = st.config();
    if a.val.len() > cfg.slot_bytes {
        return refused(status::TOO_LARGE, 0);
    }
    let me = member_index(node);
    let (primary, backup) = ring_of(node, st).owners(a.shard % cfg.shards.max(1));
    if primary != me {
        return refused(status::NOT_PRIMARY, 0);
    }
    let mut inner = st.inner.lock();
    let Some(sh) = inner.shards.get_mut(&a.shard).filter(|sh| sh.ready) else {
        st.stats.not_ready.incr();
        return refused(status::RETRY, 0);
    };
    // Exactly-once: resubmissions replay the cached reply, stale
    // sequence numbers are refused outright.
    if let Some(mark) = sh.clients.get(&a.client) {
        if a.seq == mark.seq {
            st.stats.dup_replayed.incr();
            return Ok(Served {
                reply: wire::decode_reply(&mark.reply)?,
                cached: Some(mark.reply.clone()),
            });
        }
        if a.seq < mark.seq {
            st.stats.stale_dropped.incr();
            return refused(status::STALE, mark.seq);
        }
    }
    let ver = sh.version + 1;
    let (tomb, val) = match a.opcode {
        op::PUT => (false, a.val.clone()),
        op::DEL => (true, Bytes::new()),
        op::ADD => {
            let old = sh
                .entries
                .get(&a.key)
                .filter(|e| !e.tomb)
                .map_or(0, |e| le_u64(&e.val));
            let new = old.wrapping_add(le_u64(&a.val));
            (false, Bytes::copy_from_slice(&new.to_le_bytes()))
        }
        other => {
            st.stats.malformed.incr();
            return Err(ChantError::Wire(format!("kv: unknown opcode {other}")));
        }
    };
    sh.version = ver;
    let out = KvReply {
        status: status::OK,
        ver,
        // Only ADD answers with its value: the new counter total.
        val: if a.opcode == op::ADD {
            val.clone()
        } else {
            Bytes::new()
        },
    };
    sh.entries.insert(
        a.key.clone(),
        Entry {
            ver,
            tomb,
            val: val.clone(),
        },
    );
    let reply_bytes = wire::encode_reply(&out);
    sh.clients.insert(
        a.client,
        ClientMark {
            seq: a.seq,
            reply: reply_bytes.clone(),
        },
    );
    st.stats.mutations.incr();
    let served = Served {
        reply: out,
        cached: Some(reply_bytes.clone()),
    };
    if backup.is_none() {
        sh.replicated = ver;
        return Ok(served);
    }
    inner.queue.push_back(ReplRec {
        shard: a.shard,
        ver,
        client: a.client,
        seq: a.seq,
        tomb,
        key: a.key.clone(),
        val,
        reply: reply_bytes,
    });
    drop(inner);
    st.poke_daemon();
    Ok(served)
}

/// Little-endian `u64` from up to 8 leading bytes (short input is
/// zero-extended — total, never an error, so ADD stays well-defined on
/// any stored bytes).
fn le_u64(bytes: &[u8]) -> u64 {
    let mut d = [0u8; 8];
    let n = bytes.len().min(8);
    d[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(d)
}

fn handle_get(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    req: RsrRequest,
) -> Result<Bytes, ChantError> {
    let a = match wire::decode_get(&req.args) {
        Ok(a) => a,
        Err(e) => {
            st.stats.malformed.incr();
            return Err(e);
        }
    };
    Ok(wire::encode_reply(&serve_get(node, st, a.shard, &a.key)))
}

/// Read `key` at this node, the shard's primary: the primary, ready and
/// lease checks, then the entry. The one copy of the op, for the RSR
/// handler and for a client on this node alike.
fn serve_get(node: &ChantNode, st: &KvState, shard: u32, key: &Bytes) -> KvReply {
    let me = member_index(node);
    let (primary, backup) = ring_of(node, st).owners(shard);
    if primary != me {
        return bare(status::NOT_PRIMARY, 0);
    }
    let inner = st.inner.lock();
    let Some(sh) = inner.shards.get(&shard).filter(|sh| sh.ready) else {
        st.stats.not_ready.incr();
        return bare(status::RETRY, 0);
    };
    // The local read is only safe while the backup's lease promise
    // holds; without it the backup could (in a richer design) have
    // taken over the shard.
    if backup.is_some() && sh.lease_until.is_none_or(|t| Instant::now() >= t) {
        st.stats.no_lease.incr();
        return bare(status::NO_LEASE, 0);
    }
    st.stats.reads.incr();
    match sh.entries.get(key) {
        Some(e) if !e.tomb => KvReply {
            status: status::OK,
            ver: e.ver,
            val: e.val.clone(),
        },
        _ => {
            st.stats.read_misses.incr();
            bare(status::NOT_FOUND, sh.version)
        }
    }
}

fn handle_replicate(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    req: RsrRequest,
) -> Result<Bytes, ChantError> {
    let a = match wire::decode_repl(&req.args) {
        Ok(a) => a,
        Err(e) => {
            st.stats.malformed.incr();
            return Err(e);
        }
    };
    // Resolve the staged value *before* taking the state lock — the
    // read is local (our own segment), but keeps lock scopes minimal.
    let staged = if a.inline || a.tomb {
        None
    } else {
        match node.rma_segment(KV_SEG) {
            Some(seg) => match seg.read(a.off, a.len) {
                Ok(b) => {
                    st.stats.staged_bulk.incr();
                    Some(b)
                }
                Err(e) => return Err(e),
            },
            // Daemon has not registered the segment yet; the primary
            // will resend.
            None => return reply(status::RETRY, 0),
        }
    };
    let mut inner = st.inner.lock();
    let Some(sh) = inner.shards.get_mut(&a.shard) else {
        st.stats.not_ready.incr();
        return reply(status::RETRY, 0);
    };
    if !sh.ready {
        // Mid-recovery: applying now could be undone by the snapshot
        // install racing us. Refuse; the primary retries.
        st.stats.not_ready.incr();
        return reply(status::RETRY, 0);
    }
    if a.ver <= sh.version {
        // Duplicate of something we already hold (retransmission, or a
        // snapshot already covered it).
        return reply(status::OK, sh.version);
    }
    if a.ver != sh.version + 1 {
        // A gap cannot happen with the in-order daemon, but refuse
        // defensively rather than silently skipping versions.
        return reply(status::RETRY, sh.version);
    }
    let val = if a.tomb {
        Bytes::new()
    } else if a.inline {
        a.val
    } else {
        staged.unwrap_or_default()
    };
    sh.entries.insert(
        a.key,
        Entry {
            ver: a.ver,
            tomb: a.tomb,
            val,
        },
    );
    sh.version = a.ver;
    sh.replicated = a.ver;
    // Carry the dedup watermark: after failover this backup can replay
    // the reply to a resubmitted op instead of double-applying it.
    let newer = sh.clients.get(&a.client).is_none_or(|m| a.seq > m.seq);
    if newer {
        sh.clients.insert(
            a.client,
            ClientMark {
                seq: a.seq,
                reply: a.reply,
            },
        );
    }
    st.stats.repl_applied.incr();
    reply(status::OK, a.ver)
}

fn handle_lease(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    req: RsrRequest,
) -> Result<Bytes, ChantError> {
    let a = match wire::decode_lease(&req.args) {
        Ok(a) => a,
        Err(e) => {
            st.stats.malformed.incr();
            return Err(e);
        }
    };
    let (primary, backup) = ring_of(node, st).owners(a.shard);
    let me = member_index(node);
    if backup != Some(me) || req.from.address() != addr_of(node, primary) {
        return reply(status::NOT_PRIMARY, 0);
    }
    let mut inner = st.inner.lock();
    let sh = inner.shards.entry(a.shard).or_default();
    sh.granted_until = Some(Instant::now() + Duration::from_millis(u64::from(a.ttl_ms)));
    st.stats.leases_granted.incr();
    reply(status::OK, sh.version)
}

fn handle_flush(
    _node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    req: RsrRequest,
) -> Result<Bytes, ChantError> {
    let a = match wire::decode_shard_args(&req.args) {
        Ok(a) => a,
        Err(e) => {
            st.stats.malformed.incr();
            return Err(e);
        }
    };
    let inner = st.inner.lock();
    let f = match inner.shards.get(&a.shard) {
        Some(sh) if sh.ready => wire::FlushReply {
            status: status::OK,
            version: sh.version,
            replicated: sh.replicated,
        },
        _ => wire::FlushReply {
            status: status::RETRY,
            version: 0,
            replicated: 0,
        },
    };
    Ok(wire::encode_flush_reply(&f))
}

fn handle_snapshot(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    req: RsrRequest,
) -> Result<Bytes, ChantError> {
    let a = match wire::decode_shard_args(&req.args) {
        Ok(a) => a,
        Err(e) => {
            st.stats.malformed.incr();
            return Err(e);
        }
    };
    let cfg = st.config();
    let members = members_of(node);
    let from = req.from.address();
    let requester = from.pe * node.world().procs_per_pe() + from.process;
    let Some(seg) = node.rma_segment(KV_SEG) else {
        // Can't stage until the daemon registers the segment.
        return Ok(wire::encode_snap_reply(&wire::SnapReply {
            status: status::RETRY,
            ver: 0,
            off: 0,
            len: 0,
            done: false,
        }));
    };
    let mut inner = st.inner.lock();
    if a.part == 0 {
        // Serve even when the shard is absent or not ready: a fresh
        // cluster's owners mutually recover *empty* shards, so refusing
        // here would deadlock first boot.
        let blob = match inner.shards.get(&a.shard) {
            Some(sh) => wire::SnapshotBlob {
                ver: sh.version,
                entries: sh
                    .entries
                    .iter()
                    .map(|(k, e)| (k.clone(), e.ver, e.tomb, e.val.clone()))
                    .collect(),
                clients: sh
                    .clients
                    .iter()
                    .map(|(&c, m)| (c, m.seq, m.reply.clone()))
                    .collect(),
            },
            None => wire::SnapshotBlob::default(),
        };
        inner.snap_stash.insert(
            requester,
            SnapStash {
                shard: a.shard,
                ver: blob.ver,
                blob: wire::encode_snapshot(&blob),
                cursor: 0,
            },
        );
    }
    let Some(stash) = inner.snap_stash.get_mut(&requester) else {
        return Ok(wire::encode_snap_reply(&wire::SnapReply {
            status: status::RETRY,
            ver: 0,
            off: 0,
            len: 0,
            done: false,
        }));
    };
    if stash.shard != a.shard {
        // The requester restarted a different transfer; make it start
        // over at part 0.
        return Ok(wire::encode_snap_reply(&wire::SnapReply {
            status: status::RETRY,
            ver: 0,
            off: 0,
            len: 0,
            done: false,
        }));
    }
    let off = snap_off(&cfg, members, requester);
    let take = (stash.blob.len() - stash.cursor).min(cfg.snap_slot_bytes);
    let part = stash.blob.slice(stash.cursor..stash.cursor + take);
    stash.cursor += take;
    let done = stash.cursor >= stash.blob.len();
    let ver = stash.ver;
    if done {
        inner.snap_stash.remove(&requester);
    }
    drop(inner);
    if take > 0 {
        seg.write(off, &part)?;
    }
    st.stats.snapshots_served.incr();
    Ok(wire::encode_snap_reply(&wire::SnapReply {
        status: status::OK,
        ver,
        off,
        len: take as u64,
        done,
    }))
}

fn handle_digest(
    _node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    req: RsrRequest,
) -> Result<Bytes, ChantError> {
    let a = match wire::decode_shard_args(&req.args) {
        Ok(a) => a,
        Err(e) => {
            st.stats.malformed.incr();
            return Err(e);
        }
    };
    let inner = st.inner.lock();
    Ok(wire::encode_digest_reply(&digest_of(&inner, a.shard)))
}

fn digest_of(inner: &Inner, shard: u32) -> DigestReply {
    match inner.shards.get(&shard) {
        Some(sh) => DigestReply {
            ver: sh.version,
            count: sh.entries.len() as u64,
            digest: sh
                .entries
                .iter()
                .fold(0, |acc, (k, e)| acc ^ entry_digest(k, e)),
        },
        None => DigestReply::default(),
    }
}

// ----------------------------------------------------------------------
// The replication daemon
// ----------------------------------------------------------------------

/// One bounded remote call from a daemon or SDK thread: under a cluster
/// retry policy this is the exactly-once `rsr_call` (already bounded);
/// without one it is an icall with a hard deadline, so a dead peer
/// costs one timeout instead of a hung daemon.
fn bounded_call(
    node: &ChantNode,
    cfg: &KvConfig,
    dst: Address,
    fn_id: u32,
    args: &[u8],
) -> Result<Bytes, ChantError> {
    if node.rsr_retry_policy().is_some() {
        node.rsr_call(dst, fn_id, args)
    } else {
        let call = node.rsr_icall(dst, fn_id, args)?;
        node.rsr_wait_deadline(&call, Instant::now() + cfg.daemon_op_timeout)?;
        node.rsr_take(&call).unwrap_or(Err(ChantError::Timeout))
    }
}

fn suspected(inner: &Inner, member: u32) -> bool {
    inner
        .suspects
        .get(&member)
        .is_some_and(|&until| Instant::now() < until)
}

fn suspect(st: &KvState, cfg: &KvConfig, member: u32) {
    st.inner
        .lock()
        .suspects
        .insert(member, Instant::now() + cfg.suspect_for);
}

fn kv_loop(node: &Arc<ChantNode>, cfg: KvConfig) {
    let st = kv_state(node);
    let _ = st.cfg.set(cfg);
    let cfg = st.config();
    let me = member_index(node);
    let members = members_of(node);
    ring_of(node, &st);
    // Every shard this node owns (either role) starts not-ready; the
    // recovery pass seeds it — from the peer replica after a restart,
    // trivially on first boot.
    {
        let ring = st.ring.get().expect("ring installed above");
        let mut inner = st.inner.lock();
        for shard in 0..cfg.shards.max(1) {
            let (p, b) = ring.owners(shard);
            if p == me || b == Some(me) {
                inner.shards.entry(shard).or_default();
            }
        }
    }
    if members > 1 && node.rma_segment(KV_SEG).is_none() {
        node.rma_register(KV_SEG, seg_size(&cfg, members));
    }
    loop {
        recover_pass(node, &st, &cfg, me);
        drain_queue(node, &st, &cfg, me);
        renew_leases(node, &st, &cfg, me);
        let (m, cv) = st.park(&st.daemon_park, node.vp());
        let Ok(guard) = m.lock() else { return };
        let _ = cv.wait_timeout(guard, cfg.tick);
    }
}

/// Seed every not-ready owned shard from its peer replica (or trivially
/// when it has none). A peer that *fails* a fetch is suspected for a
/// while; a peer that answers "not ready yet" (its own daemon is still
/// booting — the normal case when a cluster starts) is simply asked
/// again next tick.
fn recover_pass(node: &Arc<ChantNode>, st: &Arc<KvState>, cfg: &KvConfig, me: u32) {
    let pending: Vec<u32> = {
        let inner = st.inner.lock();
        inner
            .shards
            .iter()
            .filter(|(_, sh)| !sh.ready)
            .map(|(&s, _)| s)
            .collect()
    };
    if pending.is_empty() {
        return;
    }
    let ring = st.ring.get().expect("ring installed at daemon start");
    for shard in pending {
        let (p, b) = ring.owners(shard);
        let peer = if p == me { b } else { Some(p) };
        let Some(peer) = peer else {
            // Nobody to recover from: an unreplicated world is ready by
            // definition.
            let mut inner = st.inner.lock();
            if let Some(sh) = inner.shards.get_mut(&shard) {
                sh.ready = true;
                sh.replicated = sh.version;
            }
            continue;
        };
        if suspected(&st.inner.lock(), peer) {
            continue;
        }
        match fetch_snapshot(node, st, cfg, shard, peer) {
            Ok(Fetched::Installed) => {}
            Ok(Fetched::PeerNotReady) => st.stats.repl_retries.incr(),
            Err(_) => suspect(st, cfg, peer),
        }
    }
}

/// What a snapshot fetch that did not *fail* came to.
enum Fetched {
    /// The shard is seeded (by this fetch or by someone else meanwhile).
    Installed,
    /// The peer answered `RETRY`: it cannot stage yet. It is alive and
    /// said so, which is the opposite of a reason to suspect it.
    PeerNotReady,
}

/// Pull one shard's snapshot from `peer`, part by part, and install it.
fn fetch_snapshot(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    cfg: &KvConfig,
    shard: u32,
    peer: u32,
) -> Result<Fetched, ChantError> {
    let dst = addr_of(node, peer);
    let mut acc: Vec<u8> = Vec::new();
    let mut part = 0u32;
    let ver = loop {
        let raw = bounded_call(
            node,
            cfg,
            dst,
            fns::KV_SNAPSHOT,
            &wire::encode_shard_args(&wire::ShardArgs { shard, part }),
        )?;
        let sr = wire::decode_snap_reply(&raw)?;
        if sr.status != status::OK {
            return Ok(Fetched::PeerNotReady);
        }
        if sr.len > 0 {
            let data = node.rma_get(dst, KV_SEG, sr.off, sr.len)?;
            acc.extend_from_slice(&data);
        }
        if sr.done {
            break sr.ver;
        }
        part += 1;
    };
    let blob = wire::decode_snapshot(&acc)?;
    debug_assert_eq!(blob.ver, ver, "snapshot blob disagrees with its header");
    let mut inner = st.inner.lock();
    let Some(sh) = inner.shards.get_mut(&shard) else {
        return Ok(Fetched::Installed);
    };
    if sh.ready {
        return Ok(Fetched::Installed); // someone else seeded it meanwhile
    }
    if blob.ver > sh.version {
        sh.version = blob.ver;
        sh.entries = blob
            .entries
            .into_iter()
            .map(|(k, ver, tomb, val)| (k, Entry { ver, tomb, val }))
            .collect();
        sh.clients = blob
            .clients
            .into_iter()
            .map(|(c, seq, reply)| (c, ClientMark { seq, reply }))
            .collect();
    }
    sh.ready = true;
    sh.replicated = sh.version;
    st.stats.snapshots_installed.incr();
    Ok(Fetched::Installed)
}

/// Ship queued mutations to their backups, strictly in order per shard.
/// A failed shard (or suspected backup) parks its records back at the
/// front of the queue; other shards keep flowing.
fn drain_queue(node: &Arc<ChantNode>, st: &Arc<KvState>, cfg: &KvConfig, me: u32) {
    let batch: VecDeque<ReplRec> = {
        let mut inner = st.inner.lock();
        std::mem::take(&mut inner.queue)
    };
    if batch.is_empty() {
        return;
    }
    let ring = st.ring.get().expect("ring installed at daemon start");
    let mut failed: HashSet<u32> = HashSet::new();
    let mut retry: VecDeque<ReplRec> = VecDeque::new();
    for rec in batch {
        if failed.contains(&rec.shard) {
            retry.push_back(rec);
            continue;
        }
        let (p, b) = ring.owners(rec.shard);
        if p != me {
            continue; // role confusion; membership is static, drop
        }
        let Some(backup) = b else {
            let mut inner = st.inner.lock();
            if let Some(sh) = inner.shards.get_mut(&rec.shard) {
                sh.replicated = sh.replicated.max(rec.ver);
            }
            continue;
        };
        if suspected(&st.inner.lock(), backup) {
            failed.insert(rec.shard);
            retry.push_back(rec);
            continue;
        }
        match ship_record(node, st, cfg, me, backup, &rec) {
            Ok(true) => {
                let mut inner = st.inner.lock();
                if let Some(sh) = inner.shards.get_mut(&rec.shard) {
                    sh.replicated = sh.replicated.max(rec.ver);
                }
                st.stats.repl_sent.incr();
            }
            Ok(false) => {
                // Backup said RETRY (recovering): back off this shard
                // without suspecting the member.
                st.stats.repl_retries.incr();
                failed.insert(rec.shard);
                retry.push_back(rec);
            }
            Err(_) => {
                st.stats.repl_retries.incr();
                suspect(st, cfg, backup);
                failed.insert(rec.shard);
                retry.push_back(rec);
            }
        }
    }
    if !retry.is_empty() {
        let mut inner = st.inner.lock();
        // New records may have arrived behind our back; ours are older,
        // so they go back to the front (order preserved).
        for rec in retry.into_iter().rev() {
            inner.queue.push_front(rec);
        }
    }
}

/// Send one replication record; `Ok(true)` = applied, `Ok(false)` =
/// backup asked to retry later, `Err` = transport-level failure.
fn ship_record(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    cfg: &KvConfig,
    me: u32,
    backup: u32,
    rec: &ReplRec,
) -> Result<bool, ChantError> {
    let dst = addr_of(node, backup);
    let inline = rec.tomb || rec.val.len() <= cfg.inline_max;
    let (off, len) = if inline {
        (0, 0)
    } else {
        // Stage the bulk value into the backup's slot for this source
        // with a one-sided put; the record then carries (off, len).
        let off = repl_off(cfg, me);
        node.rma_put(dst, KV_SEG, off, &rec.val)?;
        st.stats.staged_bulk.incr();
        (off, rec.val.len() as u64)
    };
    let args = wire::encode_repl(&wire::ReplArgs {
        shard: rec.shard,
        ver: rec.ver,
        client: rec.client,
        seq: rec.seq,
        tomb: rec.tomb,
        inline,
        off,
        len,
        key: rec.key.clone(),
        reply: rec.reply.clone(),
        val: if inline { rec.val.clone() } else { Bytes::new() },
    });
    let raw = bounded_call(node, cfg, dst, fns::KV_REPLICATE, &args)?;
    let kr = wire::decode_reply(&raw)?;
    Ok(kr.status == status::OK)
}

/// Obtain or refresh read leases for every primary shard with a backup.
fn renew_leases(node: &Arc<ChantNode>, st: &Arc<KvState>, cfg: &KvConfig, me: u32) {
    let ring = st.ring.get().expect("ring installed at daemon start");
    let due: Vec<(u32, u32)> = {
        let inner = st.inner.lock();
        inner
            .shards
            .iter()
            .filter_map(|(&shard, sh)| {
                let (p, b) = ring.owners(shard);
                let backup = b?;
                if p != me || !sh.ready || suspected(&inner, backup) {
                    return None;
                }
                let need = match sh.lease_until {
                    // Always take the *first* lease, even with renewal
                    // disabled — otherwise reads never start.
                    None => true,
                    Some(t) => cfg
                        .lease_renew
                        .is_some_and(|renew| t.saturating_duration_since(Instant::now()) <= renew),
                };
                need.then_some((shard, backup))
            })
            .collect()
    };
    for (shard, backup) in due {
        if take_lease(node, st, cfg, shard, backup).is_err() {
            suspect(st, cfg, backup);
        }
    }
}

fn take_lease(
    node: &Arc<ChantNode>,
    st: &Arc<KvState>,
    cfg: &KvConfig,
    shard: u32,
    backup: u32,
) -> Result<(), ChantError> {
    let t0 = Instant::now();
    let ttl_ms = u32::try_from(cfg.lease.as_millis()).unwrap_or(u32::MAX);
    let raw = bounded_call(
        node,
        cfg,
        addr_of(node, backup),
        fns::KV_LEASE,
        &wire::encode_lease(&wire::LeaseArgs { shard, ttl_ms }),
    )?;
    let kr = wire::decode_reply(&raw)?;
    if kr.status != status::OK {
        return Err(ChantError::Remote("kv: lease refused".into()));
    }
    // Assume 10% of the granted window as margin for the request's
    // flight time: the local expiry always undercuts the backup's.
    let mut inner = st.inner.lock();
    if let Some(sh) = inner.shards.get_mut(&shard) {
        sh.lease_until = Some(t0 + cfg.lease.mul_f64(0.9));
    }
    st.stats.leases_taken.incr();
    Ok(())
}

// ----------------------------------------------------------------------
// SDK
// ----------------------------------------------------------------------

/// The outcome of a single-shot read ([`KvClient::try_get`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvRead {
    /// The key exists.
    Hit {
        /// Entry version (the shard version of the writing mutation).
        version: u64,
        /// Value bytes.
        value: Bytes,
    },
    /// The key does not exist (or is deleted).
    Miss,
    /// The primary's read lease lapsed; retry after renewal.
    NoLease,
    /// The shard is still seeding (recovery in progress); retry.
    NotReady,
}

/// A KV client handle: owns a cluster-unique client id and the op
/// sequence counter behind the exactly-once contract. One outstanding
/// op at a time per client (calls are blocking); create one client per
/// worker thread.
pub struct KvClient {
    node: Arc<ChantNode>,
    st: Arc<KvState>,
    id: u64,
    seq: u64,
}

impl KvClient {
    /// Create a client bound to `node`.
    pub fn new(node: &Arc<ChantNode>) -> KvClient {
        let st = kv_state(node);
        let n = {
            let mut inner = st.inner.lock();
            inner.next_client += 1;
            inner.next_client
        };
        // (pe, process, local counter) packed into 64 bits: unique
        // across the cluster without any coordination.
        let id = (u64::from(node.pe()) << 44)
            | (u64::from(node.process()) << 32)
            | (n & 0xFFFF_FFFF);
        // The seq space is seeded from the boot clock, not 0: a client
        // created after a process restart gets the same packed id as its
        // dead predecessor, and the surviving primaries' `(client, seq)`
        // watermarks would classify a restarted-from-0 sequence as stale
        // and drop the mutations. Boot-time seeding keeps every
        // incarnation's sequences above the previous one's watermark.
        let seq = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        KvClient {
            node: Arc::clone(node),
            st,
            id,
            seq,
        }
    }

    /// This client's cluster-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn cfg(&self) -> KvConfig {
        self.st.config()
    }

    /// Where `shard`'s ops go: `None` when this node is its primary and
    /// serves them in place, else the primary's address.
    fn primary_of(&self, shard: u32) -> Option<Address> {
        let p = ring_of(&self.node, &self.st).primary(shard);
        (p != member_index(&self.node)).then(|| addr_of(&self.node, p))
    }

    /// Park briefly before a retry (yields the lane; wakeable).
    fn backoff(&self) {
        let cfg = self.cfg();
        let (m, cv) = self.st.park(&self.st.client_park, self.node.vp());
        if let Ok(g) = m.lock() {
            let _ = cv.wait_timeout(g, cfg.tick.max(Duration::from_millis(1)));
        }
    }

    fn mutate(&mut self, opcode: u8, key: &[u8], val: &[u8]) -> Result<KvReply, ChantError> {
        let cfg = self.cfg();
        let shard = shard_of(key, cfg.shards);
        let dst = self.primary_of(shard);
        self.seq += 1;
        let a = wire::MutateArgs {
            shard,
            client: self.id,
            seq: self.seq,
            opcode,
            key: Bytes::copy_from_slice(key),
            val: Bytes::copy_from_slice(val),
        };
        let remote = dst.map(|dst| (dst, wire::encode_mutate(&a)));
        let deadline = Instant::now() + cfg.op_patience;
        loop {
            let served = match &remote {
                Some((dst, args)) => bounded_call(&self.node, &cfg, *dst, fns::KV_MUTATE, args)
                    .and_then(|raw| wire::decode_reply(&raw)),
                None => serve_mutate(&self.node, &self.st, &a).map(|s| {
                    chant_ult::yield_if_due();
                    s.reply
                }),
            };
            match served {
                Ok(kr) => match kr.status {
                    status::OK => return Ok(kr),
                    status::RETRY => {}
                    status::TOO_LARGE => {
                        return Err(ChantError::Remote("kv: value too large".into()))
                    }
                    status::STALE => {
                        return Err(ChantError::Remote(
                            "kv: stale sequence (client id reused?)".into(),
                        ))
                    }
                    other => {
                        return Err(ChantError::Remote(format!(
                            "kv: mutation refused (status {other})"
                        )))
                    }
                },
                // The op's fate is unknown: resubmit the *same* seq;
                // the watermark makes the retry exactly-once.
                Err(ChantError::Timeout) | Err(ChantError::NodeUnreachable(_)) => {}
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(ChantError::Timeout);
            }
            self.backoff();
        }
    }

    /// Store `val` under `key`; returns the shard version assigned to
    /// the write.
    pub fn put(&mut self, key: &[u8], val: &[u8]) -> Result<u64, ChantError> {
        self.mutate(op::PUT, key, val).map(|r| r.ver)
    }

    /// Delete `key`; returns the shard version assigned to the delete.
    pub fn delete(&mut self, key: &[u8]) -> Result<u64, ChantError> {
        self.mutate(op::DEL, key, &[]).map(|r| r.ver)
    }

    /// Add `delta` to the little-endian `u64` counter at `key` (absent
    /// counts as 0); returns `(version, new_value)`.
    pub fn add(&mut self, key: &[u8], delta: u64) -> Result<(u64, u64), ChantError> {
        self.mutate(op::ADD, key, &delta.to_le_bytes())
            .map(|r| (r.ver, le_u64(&r.val)))
    }

    /// Read `key`, retrying through recovery windows and lease renewals
    /// up to the configured patience: `Some((version, value))` on hit.
    pub fn get(&self, key: &[u8]) -> Result<Option<(u64, Bytes)>, ChantError> {
        let cfg = self.cfg();
        let deadline = Instant::now() + cfg.op_patience;
        loop {
            match self.try_get(key) {
                Ok(KvRead::Hit { version, value }) => return Ok(Some((version, value))),
                Ok(KvRead::Miss) => return Ok(None),
                Ok(KvRead::NoLease) | Ok(KvRead::NotReady) => {}
                Err(ChantError::Timeout) | Err(ChantError::NodeUnreachable(_)) => {}
                Err(e) => return Err(e),
            }
            if Instant::now() >= deadline {
                return Err(ChantError::Timeout);
            }
            self.backoff();
        }
    }

    /// One read attempt, surfacing the service's refusals instead of
    /// retrying through them.
    pub fn try_get(&self, key: &[u8]) -> Result<KvRead, ChantError> {
        let cfg = self.cfg();
        let shard = shard_of(key, cfg.shards);
        let key = Bytes::copy_from_slice(key);
        let kr = match self.primary_of(shard) {
            Some(dst) => {
                let args = wire::encode_get(&wire::GetArgs { shard, key });
                let raw = bounded_call(&self.node, &cfg, dst, fns::KV_GET, &args)?;
                wire::decode_reply(&raw)?
            }
            None => {
                let kr = serve_get(&self.node, &self.st, shard, &key);
                // A remote op blocks for its reply, so it is a schedule
                // point; one served in place is not. A thread looping on
                // own-node keys would hold its lane — no progress turn,
                // no daemon renewing leases, no sibling writing the value
                // it polls for — unless it yields when the lane is due.
                chant_ult::yield_if_due();
                kr
            }
        };
        match kr.status {
            status::OK => Ok(KvRead::Hit {
                version: kr.ver,
                value: kr.val,
            }),
            status::NOT_FOUND => Ok(KvRead::Miss),
            status::NO_LEASE => Ok(KvRead::NoLease),
            status::RETRY => Ok(KvRead::NotReady),
            other => Err(ChantError::Remote(format!(
                "kv: read refused (status {other})"
            ))),
        }
    }
}

// ----------------------------------------------------------------------
// Node-level functions
// ----------------------------------------------------------------------

/// The shard `key` belongs to under this cluster's configuration.
pub fn kv_shard_of(node: &ChantNode, key: &[u8]) -> u32 {
    shard_of(key, kv_state(node).config().shards)
}

/// The `(primary, backup)` addresses of `shard`.
pub fn kv_owners(node: &ChantNode, shard: u32) -> (Address, Option<Address>) {
    let st = kv_state(node);
    let (p, b) = ring_of(node, &st).owners(shard);
    (addr_of(node, p), b.map(|m| addr_of(node, m)))
}

/// This node's KV counters.
pub fn kv_stats(node: &ChantNode) -> KvStatsSnapshot {
    kv_state(node).stats.snapshot()
}

/// Σ of shard versions over the shards this node is *primary* for.
/// After a cluster-wide drain, the sum over all nodes equals the total
/// number of acknowledged mutations ever applied — the exactly-once
/// invariant the recovery tests assert across kills.
pub fn kv_version_sum(node: &ChantNode) -> u64 {
    let st = kv_state(node);
    let me = member_index(node);
    let ring = ring_of(node, &st);
    let inner = st.inner.lock();
    inner
        .shards
        .iter()
        .filter(|(&s, _)| ring.primary(s) == me)
        .map(|(_, sh)| sh.version)
        .sum()
}

/// This node's content digest of `shard` (either role).
pub fn kv_digest_local(node: &ChantNode, shard: u32) -> DigestReply {
    let st = kv_state(node);
    let inner = st.inner.lock();
    digest_of(&inner, shard)
}

/// `dst`'s content digest of `shard`, over RSR.
pub fn kv_remote_digest(
    node: &ChantNode,
    dst: Address,
    shard: u32,
) -> Result<DigestReply, ChantError> {
    let st = kv_state(node);
    let cfg = st.config();
    let raw = bounded_call(
        node,
        &cfg,
        dst,
        fns::KV_DIGEST,
        &wire::encode_shard_args(&wire::ShardArgs { shard, part: 0 }),
    )?;
    wire::decode_digest_reply(&raw)
}

/// Block until every shard this node is primary for is ready and fully
/// replicated (`replicated == version`), or `timeout` elapses. Call
/// after quiescing writers; it is the fence that makes the version-sum
/// invariant exact in the face of asynchronous replication.
pub fn kv_drain(node: &Arc<ChantNode>, timeout: Duration) -> Result<(), ChantError> {
    let st = kv_state(node);
    let me = member_index(node);
    let deadline = Instant::now() + timeout;
    loop {
        let done = {
            let ring = ring_of(node, &st);
            let inner = st.inner.lock();
            inner
                .shards
                .iter()
                .filter(|(&s, _)| ring.primary(s) == me)
                .all(|(_, sh)| sh.ready && sh.replicated >= sh.version)
        };
        if done {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(ChantError::Timeout);
        }
        park_tick(node, &st)?;
    }
}

/// Block until every shard this node owns (either role) is ready, or
/// `timeout` elapses.
pub fn kv_await_ready(node: &Arc<ChantNode>, timeout: Duration) -> Result<(), ChantError> {
    let st = kv_state(node);
    let deadline = Instant::now() + timeout;
    loop {
        let ready = {
            let inner = st.inner.lock();
            !inner.shards.is_empty() && inner.shards.values().all(|sh| sh.ready)
        };
        if ready {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(ChantError::Timeout);
        }
        park_tick(node, &st)?;
    }
}

/// Synchronously (re)take the read lease for `shard` from its backup —
/// the manual path used when periodic renewal is disabled. No-op
/// without a backup.
pub fn kv_renew_lease(node: &Arc<ChantNode>, shard: u32) -> Result<(), ChantError> {
    let st = kv_state(node);
    let cfg = st.config();
    let (_, b) = ring_of(node, &st).owners(shard);
    match b {
        Some(backup) => take_lease(node, &st, &cfg, shard, backup),
        None => Ok(()),
    }
}

/// Crash simulation for tests: forget every owned shard's contents and
/// mark them not-ready, exactly as a process restart would. The daemon
/// re-seeds them from the peer replica on its next pass.
pub fn kv_wipe(node: &ChantNode) {
    let st = kv_state(node);
    let mut inner = st.inner.lock();
    inner.queue.clear();
    for sh in inner.shards.values_mut() {
        *sh = ShardState::default();
    }
    drop(inner);
    st.poke_daemon();
}

fn park_tick(node: &Arc<ChantNode>, st: &Arc<KvState>) -> Result<(), ChantError> {
    let tick = st.config().tick.max(Duration::from_millis(1));
    let (m, cv) = st.park(&st.client_park, node.vp());
    let g = m.lock().map_err(ult_err)?;
    let _ = cv.wait_timeout(g, tick).map_err(ult_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_addr_roundtrips_dense_indices() {
        for procs in 1u32..4 {
            for member in 0..12 {
                let a = member_addr(member, procs);
                assert_eq!(a.pe * procs + a.process, member);
            }
        }
    }

    #[test]
    fn le_u64_zero_extends_and_truncates() {
        assert_eq!(le_u64(&[]), 0);
        assert_eq!(le_u64(&[1]), 1);
        assert_eq!(le_u64(&5u64.to_le_bytes()), 5);
        assert_eq!(le_u64(&[0xFF; 16]), u64::MAX);
    }

    #[test]
    fn segment_layout_is_disjoint() {
        let cfg = KvConfig::default();
        let members = 4;
        // Replication slots end where snapshot slots begin.
        assert_eq!(
            repl_off(&cfg, members - 1) + cfg.slot_bytes as u64,
            snap_off(&cfg, members, 0)
        );
        let end = snap_off(&cfg, members, members - 1) + cfg.snap_slot_bytes as u64;
        assert_eq!(end, seg_size(&cfg, members) as u64);
    }

    /// The shared op functions keep the exactly-once and lease contracts
    /// whoever calls them: a resubmitted `(client, seq)` replays the
    /// cached reply without applying, a lower seq is refused, and a read
    /// past the lease is refused — through `serve_*` directly and through
    /// a client served in place. Each PE checks a shard it is primary for.
    #[test]
    fn served_ops_replay_duplicates_refuse_stale_seqs_and_expired_leases() {
        let cfg = KvConfig {
            shards: 8,
            // No renewal: once the test expires the lease, it stays
            // expired.
            lease_renew: None,
            ..KvConfig::default()
        };
        let cluster = with_kv_config(chant_core::ChantCluster::builder().pes(2), cfg).build();
        cluster.run(|node| {
            kv_await_ready(node, Duration::from_secs(30)).unwrap();
            let st = kv_state(node);
            let me = member_index(node);
            let key = (0..)
                .map(|i| Bytes::from(format!("own-{i}").into_bytes()))
                .find(|k| ring_of(node, &st).primary(kv_shard_of(node, k)) == me)
                .unwrap();
            let shard = kv_shard_of(node, &key);
            let version = || st.inner.lock().shards[&shard].version;
            let mut a = wire::MutateArgs {
                shard,
                client: 0xC11E,
                seq: 10,
                opcode: op::ADD,
                key: key.clone(),
                val: Bytes::copy_from_slice(&3u64.to_le_bytes()),
            };

            let first = serve_mutate(node, &st, &a).unwrap();
            assert_eq!(first.reply.status, status::OK);
            assert_eq!(le_u64(&first.reply.val), 3);
            let applied = version();
            assert_eq!(first.reply.ver, applied);

            // The same (client, seq) again: the cached reply, nothing
            // applied — an ADD applied twice would answer 6.
            let replays = st.stats.dup_replayed.get();
            let again = serve_mutate(node, &st, &a).unwrap();
            assert_eq!(again.reply, first.reply);
            assert_eq!(again.cached, first.cached);
            assert_eq!(version(), applied);
            assert_eq!(st.stats.dup_replayed.get(), replays + 1);

            // A lower seq is refused outright and names the watermark.
            a.seq = 9;
            let stale = serve_mutate(node, &st, &a).unwrap();
            assert_eq!((stale.reply.status, stale.reply.ver), (status::STALE, 10));
            assert_eq!(version(), applied);

            // A read past the lease is refused, served or asked in place.
            // First wait out the daemon's first lease (`get` retries
            // through `NoLease`), so the refusal below is the expiry's.
            let client = KvClient::new(node);
            client.get(&key).unwrap().expect("added above");
            let hit = serve_get(node, &st, shard, &key);
            assert_eq!((hit.status, le_u64(&hit.val)), (status::OK, 3));
            let no_lease = st.stats.no_lease.get();
            if let Some(sh) = st.inner.lock().shards.get_mut(&shard) {
                sh.lease_until = Some(Instant::now());
            }
            assert_eq!(serve_get(node, &st, shard, &key).status, status::NO_LEASE);
            assert_eq!(client.try_get(&key).unwrap(), KvRead::NoLease);
            assert_eq!(st.stats.no_lease.get(), no_lease + 2);
        });
    }
}
