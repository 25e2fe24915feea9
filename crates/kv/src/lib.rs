//! chant-kv: a replicated, sharded key/value service on talking
//! threads.
//!
//! The flagship workload of the grown-up runtime: every subsystem the
//! repo has accumulated — exactly-once remote service requests,
//! one-sided remote memory, deterministic fault injection, multi-process
//! transports — carries part of the protocol.
//!
//! * **Placement** ([`ring`]): keys hash to one of a fixed number of
//!   *shards*; shards map to nodes through a consistent-hash ring of
//!   virtual nodes, deterministic from the membership list alone, so
//!   every client computes any key's primary and backup with zero
//!   lookup traffic.
//! * **Writes** ([`node`]): a mutation goes to the shard's primary over
//!   RSR, or is served in place when the primary is the caller's own
//!   node. The primary applies it under a monotonic per-shard version,
//!   remembers the reply per `(client, seq)`, and replicates the
//!   post-image to the backup asynchronously, every queued record for a
//!   backup in one batched call — exactly-once end to end, even across
//!   a primary crash, because the dedup watermark travels with the
//!   data.
//! * **Reads**: served locally at the primary under a time-bound *read
//!   lease* granted by the backup — no replication round-trip on the
//!   read path.
//! * **Bulk and recovery**: values above the inline threshold and whole
//!   shard snapshots ride one-sided RMA `get`/`put` against each node's
//!   staging segment ([`KV_SEG`]); a restarted process re-seeds every
//!   shard it owns from the surviving replica before serving again.

pub mod node;
pub mod ring;
pub mod state;
pub mod wire;

pub use node::{
    kv_await_ready, kv_digest_local, kv_drain, kv_owners, kv_remote_digest, kv_renew_lease,
    kv_shard_of, kv_stats, kv_version_sum, kv_wipe, with_kv, with_kv_config, KvClient, KvRead,
};
pub use ring::Ring;
pub use state::{KvConfig, KvStatsSnapshot};

/// The RMA segment id every KV node registers for staging (replication
/// bulk values, snapshot transfer). ASCII "KVSE"; applications must not
/// register their own segment under this id on a cluster running
/// chant-kv.
pub const KV_SEG: u32 = 0x4B56_5345;
