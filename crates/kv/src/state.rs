//! Per-node KV state: configuration, the shard table, the replication
//! queue, counters, and the daemon/client park points.
//!
//! One `KvState` exists per node, installed through
//! [`chant_core::ChantNode::extension`]; the RSR handlers (server
//! thread), the replication daemon (a ULT), and the client SDK all
//! share it. Following the pub-sub template, the inner maps sit behind a
//! host-level `parking_lot::Mutex` that is never held across an engine
//! wait; ULT-level blocking (the daemon's tick, client retry backoff)
//! goes through `UltMutex`/`UltCondvar` pairs so a parked thread yields
//! its lane.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_ult::{UltCondvar, UltMutex, Vp};
use parking_lot::Mutex;

use crate::ring::OwnerTable;

/// Tunables for the KV service, set once per cluster through
/// [`crate::with_kv_config`]. Every process of a multi-process cluster
/// must use the same values — placement ([`KvConfig::shards`],
/// [`KvConfig::vnodes`]) and segment layout ([`KvConfig::slot_bytes`],
/// [`KvConfig::snap_slot_bytes`]) are computed independently on every
/// node and must agree.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Number of shards keys hash into — the unit of versioning,
    /// replication, and recovery.
    pub shards: u32,
    /// Virtual nodes per member on the placement ring.
    pub vnodes: u32,
    /// Largest value (and cached reply) shipped inline in a replication
    /// record; bigger values are staged through the RMA segment.
    pub inline_max: usize,
    /// Per-source staging slot in the RMA segment — also the maximum
    /// value size the service accepts (`TOO_LARGE` beyond it).
    pub slot_bytes: usize,
    /// Per-requester snapshot slot in the RMA segment; snapshots larger
    /// than one slot transfer in parts.
    pub snap_slot_bytes: usize,
    /// Read-lease duration the primary requests from the backup.
    pub lease: Duration,
    /// Renew the lease once less than this much of it remains; `None`
    /// disables renewal (leases then lapse — for expiry tests).
    pub lease_renew: Option<Duration>,
    /// Daemon sweep period when idle (replication work wakes it early).
    pub tick: Duration,
    /// How long the client SDK keeps retrying an op through `RETRY` /
    /// `NO_LEASE` / transport timeouts before giving up.
    pub op_patience: Duration,
    /// Deadline for one daemon-issued remote call (replication, lease,
    /// snapshot) when no cluster retry policy is installed.
    pub daemon_op_timeout: Duration,
    /// After a failed daemon call, leave the peer alone this long
    /// before re-trying it (so one dead peer cannot stall every sweep).
    pub suspect_for: Duration,
}

impl Default for KvConfig {
    fn default() -> KvConfig {
        KvConfig {
            shards: 32,
            vnodes: 64,
            inline_max: 1024,
            slot_bytes: 64 * 1024,
            snap_slot_bytes: 256 * 1024,
            lease: Duration::from_secs(2),
            lease_renew: Some(Duration::from_millis(500)),
            tick: Duration::from_millis(2),
            op_patience: Duration::from_secs(30),
            daemon_op_timeout: Duration::from_secs(1),
            suspect_for: Duration::from_millis(250),
        }
    }
}

/// One stored entry: the post-image of the last mutation that touched
/// the key. Deletes keep a tombstone under the shard version rather
/// than removing the key, so replication replays stay idempotent.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    /// Shard version of the mutation that wrote this image.
    pub ver: u64,
    /// Tombstone (the key is deleted).
    pub tomb: bool,
    /// Value bytes (empty for tombstones).
    pub val: Bytes,
}

/// Per-client dedup watermark: the highest applied `seq` and the reply
/// it produced, replayed verbatim when the same `seq` is resubmitted.
#[derive(Clone, Debug)]
pub(crate) struct ClientMark {
    pub seq: u64,
    pub reply: Bytes,
}

/// One shard's replica state — primary and backup roles share the
/// structure; the ring decides which role this node plays.
#[derive(Default)]
pub(crate) struct ShardState {
    /// Whether the shard serves ops. `false` from creation until the
    /// recovery pass seeds it (from the peer replica, or trivially when
    /// there is none).
    pub ready: bool,
    /// Monotonic shard version: one acked mutation = exactly one bump.
    pub version: u64,
    /// Highest version the backup has acknowledged (primary side);
    /// equals `version` when there is no backup.
    pub replicated: u64,
    /// The data.
    pub entries: HashMap<Bytes, Entry>,
    /// Per-client watermarks — replicated and snapshotted with the
    /// data, which is what makes mutations exactly-once across a
    /// primary crash.
    pub clients: HashMap<u64, ClientMark>,
    /// Primary side: local reads are valid until here (lease granted by
    /// the backup). `None` until the first grant.
    pub lease_until: Option<Instant>,
    /// Backup side: the lease this node granted the primary. Reads at
    /// the backup would be refused until it lapses (the backup never
    /// serves reads in this design; the field fences a future takeover).
    pub granted_until: Option<Instant>,
}

/// One applied mutation queued for replication, in apply order.
pub(crate) struct ReplRec {
    pub shard: u32,
    pub ver: u64,
    pub client: u64,
    pub seq: u64,
    pub tomb: bool,
    pub key: Bytes,
    pub val: Bytes,
    pub reply: Bytes,
}

/// A stashed shard snapshot being paged out to one requester.
pub(crate) struct SnapStash {
    pub shard: u32,
    pub ver: u64,
    pub blob: Bytes,
    /// Next byte offset to serve.
    pub cursor: usize,
}

/// Everything guarded by the host-level state lock.
#[derive(Default)]
pub(crate) struct Inner {
    /// Shard table: only shards this node owns (either role) appear.
    pub shards: HashMap<u32, ShardState>,
    /// Applied-but-unreplicated mutations, oldest first.
    pub queue: VecDeque<ReplRec>,
    /// Members whose last daemon call failed, and when to retry them.
    pub suspects: HashMap<u32, Instant>,
    /// In-flight outbound snapshots, one per requesting member.
    pub snap_stash: HashMap<u32, SnapStash>,
    /// Next local client-id suffix.
    pub next_client: u64,
}

chant_obs::counters! {
    /// Monotonic KV counters for one node (see [`crate::kv_stats`]).
    "kv": pub(crate) struct KvStats => pub struct KvStatsSnapshot {
        /// Mutations applied at this node as a primary.
        mutations,
        /// Reads served (hit or miss) at this node as a primary.
        reads,
        /// Reads that found no live entry.
        read_misses,
        /// Resubmitted mutations answered from the dedup watermark.
        dup_replayed,
        /// Mutations below the watermark dropped as stale.
        stale_dropped,
        /// Ops refused with `RETRY` because the shard was still seeding.
        not_ready,
        /// Reads refused because the read lease had lapsed.
        no_lease,
        /// Replication records shipped to the backup and applied there.
        repl_sent,
        /// `KV_REPLICATE` calls made: one per batch of records.
        repl_batches,
        /// Replication records applied at this node as a backup.
        repl_applied,
        /// Replication records re-shipped after a failed or refused send.
        repl_retries,
        /// Bulk values staged through the RMA segment (either direction).
        staged_bulk,
        /// Leases granted by this node as a backup.
        leases_granted,
        /// Leases obtained by this node as a primary.
        leases_taken,
        /// Snapshot parts served to recovering peers.
        snapshots_served,
        /// Snapshots installed (shards seeded) at this node.
        snapshots_installed,
        /// Malformed KV bodies refused.
        malformed,
        /// Times this node suspected a peer and stopped asking it for
        /// `suspect_for`.
        suspicions,
    }
}

/// A lazily-created `UltMutex<()>`/`UltCondvar` pair: a park point for
/// ULTs, pokeable from any OS thread (notification goes through
/// `Vp::unblock`, which is cross-thread by design).
pub(crate) type Park = (Arc<UltMutex<()>>, Arc<UltCondvar>);

/// Per-node KV state (a [`chant_core::ChantNode::extension`]).
#[derive(Default)]
pub(crate) struct KvState {
    /// Cluster config; first writer wins (daemon and handlers install
    /// the same value).
    pub cfg: OnceLock<KvConfig>,
    /// Every shard's owners, built once from the world shape.
    pub owners: OnceLock<OwnerTable>,
    /// Shared with the node's counter-family list.
    pub stats: Arc<KvStats>,
    pub inner: Mutex<Inner>,
    /// The daemon's park point: mutations queued by the server thread
    /// poke it so replication starts before the next tick.
    pub daemon_park: OnceLock<Park>,
}

impl KvState {
    /// The installed config, or defaults if none landed yet.
    pub(crate) fn config(&self) -> KvConfig {
        self.cfg.get().cloned().unwrap_or_default()
    }

    /// The park pair in `slot`, created against `vp` on first use.
    pub(crate) fn park<'a>(&'a self, slot: &'a OnceLock<Park>, vp: &Arc<Vp>) -> &'a Park {
        slot.get_or_init(|| (UltMutex::new(vp, ()), UltCondvar::new(vp)))
    }

    /// Wake the daemon if it is parked (callable from the server
    /// thread).
    pub(crate) fn poke_daemon(&self) {
        if let Some((_, cv)) = self.daemon_park.get() {
            cv.notify_one();
        }
    }
}

/// An order-independent digest of one entry, XOR-folded into the shard
/// digest: replicas that applied the same mutations hold equal digests
/// regardless of map iteration order.
pub(crate) fn entry_digest(key: &[u8], e: &Entry) -> u64 {
    use crate::ring::{fnv1a64, splitmix64};
    let mut h = fnv1a64(key);
    h = splitmix64(h ^ e.ver);
    h = splitmix64(h ^ u64::from(u8::from(e.tomb)));
    splitmix64(h ^ fnv1a64(&e.val))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_digest_is_content_sensitive() {
        let e = |ver, tomb, val: &[u8]| Entry {
            ver,
            tomb,
            val: Bytes::copy_from_slice(val),
        };
        let base = entry_digest(b"k", &e(1, false, b"v"));
        assert_eq!(base, entry_digest(b"k", &e(1, false, b"v")));
        assert_ne!(base, entry_digest(b"k2", &e(1, false, b"v")));
        assert_ne!(base, entry_digest(b"k", &e(2, false, b"v")));
        assert_ne!(base, entry_digest(b"k", &e(1, true, b"v")));
        assert_ne!(base, entry_digest(b"k", &e(1, false, b"w")));
    }

    /// The shard table is searched with the caller's `&[u8]` key; no
    /// `Bytes` is built for a lookup.
    #[test]
    fn entries_are_found_by_a_borrowed_key() {
        let mut sh = ShardState::default();
        let e = Entry {
            ver: 3,
            tomb: false,
            val: Bytes::from_static(b"v"),
        };
        sh.entries.insert(Bytes::copy_from_slice(b"key"), e);
        let probe: &[u8] = b"key";
        assert_eq!(sh.entries.get(probe).map(|e| e.ver), Some(3));
        assert!(!sh.entries.contains_key(&b"ke"[..]));
    }

    #[test]
    fn config_defaults_are_consistent() {
        let c = KvConfig::default();
        assert!(c.inline_max <= c.slot_bytes);
        assert!(c.lease_renew.unwrap() < c.lease);
        assert!(c.tick < c.daemon_op_timeout);
        assert!(c.daemon_op_timeout < c.op_patience);
    }
}
