//! KV wire codecs: little-endian, length-prefixed, total.
//!
//! Every record decodes with [`chant_core::wire::Reader`]'s bounds
//! checks — truncated or corrupt bytes come back as
//! [`ChantError::Wire`], never a panic — and the bottom of this file
//! holds every codec to the workspace's one property battery
//! (`chant_comm::codec_props!`) the same way the core RSR envelopes are
//! held.
//!
//! Service-level outcomes (`NOT_FOUND`, `RETRY`, `NO_LEASE`, …) are a
//! status byte *inside* a successful RSR reply, not transport errors:
//! the transport error space keeps meaning "the call may not have
//! executed", while a KV status always means "the primary spoke".

use bytes::{BufMut, Bytes, BytesMut};
use chant_core::wire::{Reader, Writer};
use chant_core::ChantError;

/// KV reply status codes (first byte of every KV reply).
pub mod status {
    /// The operation was applied / the value is present.
    pub const OK: u8 = 0;
    /// Read of an absent (or deleted) key.
    pub const NOT_FOUND: u8 = 1;
    /// The shard is not serving yet (recovery in progress); resubmit.
    pub const RETRY: u8 = 2;
    /// The primary's read lease lapsed; reads are refused until renewal.
    pub const NO_LEASE: u8 = 3;
    /// The addressed node does not hold the expected role for the shard.
    pub const NOT_PRIMARY: u8 = 4;
    /// The `(client, seq)` is older than the client's applied watermark.
    pub const STALE: u8 = 5;
    /// The value exceeds the configured maximum.
    pub const TOO_LARGE: u8 = 6;
}

/// Mutation opcodes.
pub mod op {
    /// Store the value.
    pub const PUT: u8 = 0;
    /// Delete the key (a tombstone under the shard version).
    pub const DEL: u8 = 1;
    /// Interpret the value as a little-endian `u64` counter and add the
    /// 8-byte delta; replies with the new value.
    pub const ADD: u8 = 2;
}

fn truncated(what: &'static str) -> ChantError {
    ChantError::Wire(format!("kv: malformed {what}"))
}

// ----------------------------------------------------------------------
// Requests
// ----------------------------------------------------------------------

/// `KV_MUTATE` arguments: one client mutation addressed to a shard's
/// primary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateArgs {
    /// Target shard.
    pub shard: u32,
    /// Issuing client id (unique per cluster).
    pub client: u64,
    /// The client's op sequence number — resubmitted verbatim on
    /// timeout, which is what makes the op exactly-once across a
    /// primary restart.
    pub seq: u64,
    /// One of [`op`].
    pub opcode: u8,
    /// Key bytes.
    pub key: Bytes,
    /// Value bytes (PUT), 8-byte delta (ADD), empty (DEL).
    pub val: Bytes,
}

/// Encode [`MutateArgs`].
pub fn encode_mutate(a: &MutateArgs) -> Bytes {
    Writer::new()
        .u32(a.shard)
        .u64(a.client)
        .u64(a.seq)
        .u8(a.opcode)
        .bytes(&a.key)
        .bytes(&a.val)
        .finish()
}

/// Decode [`MutateArgs`].
pub fn decode_mutate(buf: &[u8]) -> Result<MutateArgs, ChantError> {
    let mut r = Reader::new(buf);
    let out = MutateArgs {
        shard: r.u32().map_err(|_| truncated("mutate"))?,
        client: r.u64().map_err(|_| truncated("mutate"))?,
        seq: r.u64().map_err(|_| truncated("mutate"))?,
        opcode: r.u8().map_err(|_| truncated("mutate"))?,
        key: Bytes::copy_from_slice(r.bytes().map_err(|_| truncated("mutate"))?),
        val: Bytes::copy_from_slice(r.bytes().map_err(|_| truncated("mutate"))?),
    };
    Ok(out)
}

/// `KV_GET` arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetArgs {
    /// Target shard (the client computed it; the primary re-checks).
    pub shard: u32,
    /// Key bytes.
    pub key: Bytes,
}

/// Encode [`GetArgs`].
pub fn encode_get(a: &GetArgs) -> Bytes {
    Writer::new().u32(a.shard).bytes(&a.key).finish()
}

/// Decode [`GetArgs`].
pub fn decode_get(buf: &[u8]) -> Result<GetArgs, ChantError> {
    let mut r = Reader::new(buf);
    Ok(GetArgs {
        shard: r.u32().map_err(|_| truncated("get"))?,
        key: Bytes::copy_from_slice(r.bytes().map_err(|_| truncated("get"))?),
    })
}

/// One `KV_REPLICATE` record: an applied mutation's post-image plus the
/// dedup watermark it established, shipped primary→backup inside a
/// [`ReplBatch`]. It borrows its byte strings — from the primary's queue
/// while it is encoded, from the request body while it is decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplArgs<'a> {
    /// Shard the record belongs to.
    pub shard: u32,
    /// The shard version the primary assigned this mutation.
    pub ver: u64,
    /// Issuing client and sequence (the replicated dedup watermark).
    pub client: u64,
    /// See `client`.
    pub seq: u64,
    /// Tombstone marker (the post-image of a DEL).
    pub tomb: bool,
    /// Whether the value rides inline; if not, it was staged into the
    /// backup's [`crate::KV_SEG`] at `(off, len)` by one-sided put.
    pub inline: bool,
    /// Staged-value offset in the backup's segment (`inline == false`).
    pub off: u64,
    /// Staged-value length (`inline == false`).
    pub len: u64,
    /// Key bytes.
    pub key: &'a [u8],
    /// The cached reply for `(client, seq)` — replayed to a resubmitted
    /// op after failover.
    pub reply: &'a [u8],
    /// Inline post-image value (`inline == true`, non-tombstone).
    pub val: &'a [u8],
}

/// Encoded size of a record's fixed fields and its three length prefixes.
const REPL_FIXED: usize = 4 + 3 * 8 + 2 + 2 * 8 + 3 * 4;

impl ReplArgs<'_> {
    /// The record's encoded size inside a batch.
    pub fn encoded_len(&self) -> usize {
        REPL_FIXED + self.key.len() + self.reply.len() + self.val.len()
    }
}

/// A `KV_REPLICATE` body under construction: a `u32` record count, then
/// the records in shipping order, each encoded straight into the one
/// buffer as it is pushed.
pub struct ReplBatch {
    buf: BytesMut,
    count: u32,
}

impl Default for ReplBatch {
    fn default() -> ReplBatch {
        ReplBatch::new()
    }
}

impl ReplBatch {
    /// An empty batch.
    pub fn new() -> ReplBatch {
        let mut buf = BytesMut::with_capacity(256);
        buf.put_u32_le(0); // the count, set by `finish`
        ReplBatch { buf, count: 0 }
    }

    /// Append one record.
    pub fn push(&mut self, a: &ReplArgs<'_>) {
        let b = &mut self.buf;
        b.put_u32_le(a.shard);
        b.put_u64_le(a.ver);
        b.put_u64_le(a.client);
        b.put_u64_le(a.seq);
        b.put_u8(u8::from(a.tomb));
        b.put_u8(u8::from(a.inline));
        b.put_u64_le(a.off);
        b.put_u64_le(a.len);
        for s in [a.key, a.reply, a.val] {
            b.put_u32_le(s.len() as u32);
            b.put_slice(s);
        }
        self.count += 1;
    }

    /// Encoded size so far, count included.
    pub fn encoded_len(&self) -> usize {
        self.buf.len()
    }

    /// The finished body.
    pub fn finish(mut self) -> Bytes {
        self.buf[..4].copy_from_slice(&self.count.to_le_bytes());
        self.buf.freeze()
    }
}

/// Decode a [`ReplBatch`] body into its records, in order.
pub fn decode_repl_batch(buf: &[u8]) -> Result<Vec<ReplArgs<'_>>, ChantError> {
    let bad = |_| truncated("replicate");
    let mut r = Reader::new(buf);
    let n = r.u32().map_err(bad)?;
    // Cap pre-allocation by what the buffer could possibly hold, so a
    // corrupt count cannot balloon.
    let mut out = Vec::with_capacity((n as usize).min(buf.len() / REPL_FIXED));
    for _ in 0..n {
        out.push(ReplArgs {
            shard: r.u32().map_err(bad)?,
            ver: r.u64().map_err(bad)?,
            client: r.u64().map_err(bad)?,
            seq: r.u64().map_err(bad)?,
            tomb: r.u8().map_err(bad)? != 0,
            inline: r.u8().map_err(bad)? != 0,
            off: r.u64().map_err(bad)?,
            len: r.u64().map_err(bad)?,
            key: r.bytes().map_err(bad)?,
            reply: r.bytes().map_err(bad)?,
            val: r.bytes().map_err(bad)?,
        });
    }
    Ok(out)
}

/// Encode a `KV_REPLICATE` reply: one [`status`] per record of the
/// batch, in the batch's order.
pub fn encode_repl_acks(acks: &[u8]) -> Bytes {
    Writer::new().bytes(acks).finish()
}

/// Decode a `KV_REPLICATE` reply (see [`encode_repl_acks`]).
pub fn decode_repl_acks(buf: &[u8]) -> Result<&[u8], ChantError> {
    Reader::new(buf)
        .bytes()
        .map_err(|_| truncated("replicate reply"))
}

/// `KV_LEASE` arguments: the primary asks the backup for a read lease.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseArgs {
    /// Shard the lease covers.
    pub shard: u32,
    /// Requested lease duration in milliseconds.
    pub ttl_ms: u32,
}

/// Encode [`LeaseArgs`].
pub fn encode_lease(a: &LeaseArgs) -> Bytes {
    Writer::new().u32(a.shard).u32(a.ttl_ms).finish()
}

/// Decode [`LeaseArgs`].
pub fn decode_lease(buf: &[u8]) -> Result<LeaseArgs, ChantError> {
    let mut r = Reader::new(buf);
    Ok(LeaseArgs {
        shard: r.u32().map_err(|_| truncated("lease"))?,
        ttl_ms: r.u32().map_err(|_| truncated("lease"))?,
    })
}

/// `KV_FLUSH` / `KV_SNAPSHOT` / `KV_DIGEST` all address one shard; the
/// snapshot adds a part index for paginated transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardArgs {
    /// Target shard.
    pub shard: u32,
    /// Snapshot part index (0 re-serializes; others slice the stash).
    pub part: u32,
}

/// Encode [`ShardArgs`].
pub fn encode_shard_args(a: &ShardArgs) -> Bytes {
    Writer::new().u32(a.shard).u32(a.part).finish()
}

/// Decode [`ShardArgs`].
pub fn decode_shard_args(buf: &[u8]) -> Result<ShardArgs, ChantError> {
    let mut r = Reader::new(buf);
    Ok(ShardArgs {
        shard: r.u32().map_err(|_| truncated("shard args"))?,
        part: r.u32().map_err(|_| truncated("shard args"))?,
    })
}

// ----------------------------------------------------------------------
// Replies
// ----------------------------------------------------------------------

/// The generic KV reply: a status, the shard (or entry) version the
/// statement is about, and optional value bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvReply {
    /// One of [`status`].
    pub status: u8,
    /// Entry version (GET hit), assigned shard version (mutation), or
    /// backup shard version (replicate).
    pub ver: u64,
    /// Value bytes (GET hit), new counter value (ADD), else empty.
    pub val: Bytes,
}

/// Encode [`KvReply`].
pub fn encode_reply(r: &KvReply) -> Bytes {
    Writer::new().u8(r.status).u64(r.ver).bytes(&r.val).finish()
}

/// Decode [`KvReply`].
pub fn decode_reply(buf: &[u8]) -> Result<KvReply, ChantError> {
    let mut r = Reader::new(buf);
    Ok(KvReply {
        status: r.u8().map_err(|_| truncated("reply"))?,
        ver: r.u64().map_err(|_| truncated("reply"))?,
        val: Bytes::copy_from_slice(r.bytes().map_err(|_| truncated("reply"))?),
    })
}

/// `KV_FLUSH` reply: the primary's applied and backup-acknowledged
/// watermarks for the shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushReply {
    /// One of [`status`].
    pub status: u8,
    /// Highest version applied at the primary.
    pub version: u64,
    /// Highest version acknowledged by the backup.
    pub replicated: u64,
}

/// Encode [`FlushReply`].
pub fn encode_flush_reply(f: &FlushReply) -> Bytes {
    Writer::new()
        .u8(f.status)
        .u64(f.version)
        .u64(f.replicated)
        .finish()
}

/// Decode [`FlushReply`].
pub fn decode_flush_reply(buf: &[u8]) -> Result<FlushReply, ChantError> {
    let mut r = Reader::new(buf);
    Ok(FlushReply {
        status: r.u8().map_err(|_| truncated("flush reply"))?,
        version: r.u64().map_err(|_| truncated("flush reply"))?,
        replicated: r.u64().map_err(|_| truncated("flush reply"))?,
    })
}

/// `KV_SNAPSHOT` reply: one part of the shard snapshot, staged in the
/// server's [`crate::KV_SEG`] for the caller to fetch with `rma_get`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapReply {
    /// One of [`status`].
    pub status: u8,
    /// Shard version the (whole) snapshot captures.
    pub ver: u64,
    /// Offset of this part in the server's segment.
    pub off: u64,
    /// Length of this part in bytes.
    pub len: u64,
    /// Whether this is the final part.
    pub done: bool,
}

/// Encode [`SnapReply`].
pub fn encode_snap_reply(s: &SnapReply) -> Bytes {
    Writer::new()
        .u8(s.status)
        .u64(s.ver)
        .u64(s.off)
        .u64(s.len)
        .u8(u8::from(s.done))
        .finish()
}

/// Decode [`SnapReply`].
pub fn decode_snap_reply(buf: &[u8]) -> Result<SnapReply, ChantError> {
    let mut r = Reader::new(buf);
    Ok(SnapReply {
        status: r.u8().map_err(|_| truncated("snap reply"))?,
        ver: r.u64().map_err(|_| truncated("snap reply"))?,
        off: r.u64().map_err(|_| truncated("snap reply"))?,
        len: r.u64().map_err(|_| truncated("snap reply"))?,
        done: r.u8().map_err(|_| truncated("snap reply"))? != 0,
    })
}

/// `KV_DIGEST` reply: an order-independent content summary for
/// primary/backup consistency checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DigestReply {
    /// Shard version.
    pub ver: u64,
    /// Number of entries (tombstones included).
    pub count: u64,
    /// XOR-fold over per-entry hashes.
    pub digest: u64,
}

/// Encode [`DigestReply`].
pub fn encode_digest_reply(d: &DigestReply) -> Bytes {
    Writer::new()
        .u64(d.ver)
        .u64(d.count)
        .u64(d.digest)
        .finish()
}

/// Decode [`DigestReply`].
pub fn decode_digest_reply(buf: &[u8]) -> Result<DigestReply, ChantError> {
    let mut r = Reader::new(buf);
    Ok(DigestReply {
        ver: r.u64().map_err(|_| truncated("digest reply"))?,
        count: r.u64().map_err(|_| truncated("digest reply"))?,
        digest: r.u64().map_err(|_| truncated("digest reply"))?,
    })
}

// ----------------------------------------------------------------------
// Snapshot blob
// ----------------------------------------------------------------------

/// A whole-shard snapshot: entries, the per-client dedup watermarks,
/// and the shard version — everything a re-seeded owner needs to serve
/// (and to keep refusing replayed mutations) as if it never died.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// Shard version at capture.
    pub ver: u64,
    /// `(key, entry version, tombstone, value)` per entry.
    pub entries: Vec<(Bytes, u64, bool, Bytes)>,
    /// `(client, seq, cached reply)` per client watermark.
    pub clients: Vec<(u64, u64, Bytes)>,
}

/// Encode a [`SnapshotBlob`].
pub fn encode_snapshot(s: &SnapshotBlob) -> Bytes {
    let mut w = Writer::new()
        .u64(s.ver)
        .u32(s.entries.len() as u32);
    for (key, ver, tomb, val) in &s.entries {
        w = w.bytes(key).u64(*ver).u8(u8::from(*tomb)).bytes(val);
    }
    w = w.u32(s.clients.len() as u32);
    for (client, seq, reply) in &s.clients {
        w = w.u64(*client).u64(*seq).bytes(reply);
    }
    w.finish()
}

/// Decode a [`SnapshotBlob`].
pub fn decode_snapshot(buf: &[u8]) -> Result<SnapshotBlob, ChantError> {
    let mut r = Reader::new(buf);
    let ver = r.u64().map_err(|_| truncated("snapshot"))?;
    let n = r.u32().map_err(|_| truncated("snapshot"))?;
    // Cap pre-allocation by what the buffer could possibly hold (each
    // entry is ≥ 17 bytes encoded) so corrupt counts cannot balloon.
    let mut entries = Vec::with_capacity((n as usize).min(buf.len() / 17 + 1));
    for _ in 0..n {
        let key = Bytes::copy_from_slice(r.bytes().map_err(|_| truncated("snapshot"))?);
        let ver = r.u64().map_err(|_| truncated("snapshot"))?;
        let tomb = r.u8().map_err(|_| truncated("snapshot"))? != 0;
        let val = Bytes::copy_from_slice(r.bytes().map_err(|_| truncated("snapshot"))?);
        entries.push((key, ver, tomb, val));
    }
    let n = r.u32().map_err(|_| truncated("snapshot"))?;
    let mut clients = Vec::with_capacity((n as usize).min(buf.len() / 20 + 1));
    for _ in 0..n {
        let client = r.u64().map_err(|_| truncated("snapshot"))?;
        let seq = r.u64().map_err(|_| truncated("snapshot"))?;
        let reply = Bytes::copy_from_slice(r.bytes().map_err(|_| truncated("snapshot"))?);
        clients.push((client, seq, reply));
    }
    Ok(SnapshotBlob {
        ver,
        entries,
        clients,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
        proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
    }

    // Every KV record is self-delimiting (fixed fields and
    // length-prefixed byte strings, no "rest"), so no strict prefix of
    // one may decode. The three records that carry a flag read it as
    // `byte != 0`; for those a flipped byte may be invisible.
    macro_rules! kv_codec {
        ($name:ident: $strategy:expr, $encode:ident, $decode:ident, every_byte_matters = $strict:expr) => {
            chant_comm::codec_props!(
                $name: $strategy, $encode, $decode,
                rejects_prefixes_below = usize::MAX, every_byte_matters = $strict,
            );
        };
    }

    kv_codec!(
        mutate: (any::<u32>(), any::<u64>(), any::<u64>(), 0u8..3, arb_bytes(64), arb_bytes(128))
            .prop_map(|(shard, client, seq, opcode, key, val)| MutateArgs { shard, client, seq, opcode, key, val }),
        encode_mutate, decode_mutate, every_byte_matters = true
    );
    kv_codec!(
        get: (any::<u32>(), arb_bytes(64)).prop_map(|(shard, key)| GetArgs { shard, key }),
        encode_get, decode_get, every_byte_matters = true
    );
    /// An owned [`ReplArgs`], for the property battery.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Rec {
        fixed: (u32, u64, u64, u64, bool, bool, u64, u64),
        key: Vec<u8>,
        reply: Vec<u8>,
        val: Vec<u8>,
    }

    impl Rec {
        fn args(&self) -> ReplArgs<'_> {
            let (shard, ver, client, seq, tomb, inline, off, len) = self.fixed;
            let (key, reply, val) = (&self.key[..], &self.reply[..], &self.val[..]);
            ReplArgs { shard, ver, client, seq, tomb, inline, off, len, key, reply, val }
        }
    }

    fn encode_recs(recs: &[Rec]) -> Bytes {
        let mut batch = ReplBatch::new();
        for r in recs {
            batch.push(&r.args());
        }
        let body = batch.finish();
        let sizes: usize = recs.iter().map(|r| r.args().encoded_len()).sum();
        assert_eq!(body.len(), 4 + sizes);
        body
    }

    fn decode_recs(buf: &[u8]) -> Result<Vec<Rec>, ChantError> {
        Ok(decode_repl_batch(buf)?
            .into_iter()
            .map(|a| Rec {
                fixed: (a.shard, a.ver, a.client, a.seq, a.tomb, a.inline, a.off, a.len),
                key: a.key.to_vec(),
                reply: a.reply.to_vec(),
                val: a.val.to_vec(),
            })
            .collect())
    }

    fn arb_vec(max: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..max)
    }

    kv_codec!(
        repl_batch: proptest::collection::vec(
            (
                (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
                (any::<bool>(), any::<bool>(), any::<u64>(), any::<u64>()),
                (arb_vec(32), arb_vec(16), arb_vec(64)),
            )
                .prop_map(|((shard, ver, client, seq), (tomb, inline, off, len), (key, reply, val))| {
                    Rec { fixed: (shard, ver, client, seq, tomb, inline, off, len), key, reply, val }
                }),
            0..6,
        ),
        encode_recs, decode_recs, every_byte_matters = false
    );
    fn decode_acks(buf: &[u8]) -> Result<Vec<u8>, ChantError> {
        decode_repl_acks(buf).map(<[u8]>::to_vec)
    }

    kv_codec!(repl_acks: arb_vec(64), encode_repl_acks, decode_acks, every_byte_matters = true);
    kv_codec!(
        lease: (any::<u32>(), any::<u32>()).prop_map(|(shard, ttl_ms)| LeaseArgs { shard, ttl_ms }),
        encode_lease, decode_lease, every_byte_matters = true
    );
    kv_codec!(
        shard_args: (any::<u32>(), any::<u32>()).prop_map(|(shard, part)| ShardArgs { shard, part }),
        encode_shard_args, decode_shard_args, every_byte_matters = true
    );
    kv_codec!(
        reply: (any::<u8>(), any::<u64>(), arb_bytes(64))
            .prop_map(|(status, ver, val)| KvReply { status, ver, val }),
        encode_reply, decode_reply, every_byte_matters = true
    );
    kv_codec!(
        flush_reply: (any::<u8>(), any::<u64>(), any::<u64>())
            .prop_map(|(status, version, replicated)| FlushReply { status, version, replicated }),
        encode_flush_reply, decode_flush_reply, every_byte_matters = true
    );
    kv_codec!(
        snap_reply: (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>())
            .prop_map(|(status, ver, off, len, done)| SnapReply { status, ver, off, len, done }),
        encode_snap_reply, decode_snap_reply, every_byte_matters = false
    );
    kv_codec!(
        digest_reply: (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(ver, count, digest)| DigestReply { ver, count, digest }),
        encode_digest_reply, decode_digest_reply, every_byte_matters = true
    );
    kv_codec!(
        snapshot: (
            any::<u64>(),
            proptest::collection::vec((arb_bytes(16), any::<u64>(), any::<bool>(), arb_bytes(32)), 0..8),
            proptest::collection::vec((any::<u64>(), any::<u64>(), arb_bytes(16)), 0..8),
        )
            .prop_map(|(ver, entries, clients)| SnapshotBlob { ver, entries, clients }),
        encode_snapshot, decode_snapshot, every_byte_matters = false
    );
}
