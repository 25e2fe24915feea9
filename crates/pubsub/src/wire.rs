//! Wire formats for pub-sub frames, with the same totality discipline
//! as the core RSR envelopes: decoding arbitrary bytes returns
//! [`ChantError::Wire`], never panics, never allocates unboundedly.
//!
//! Three bodies travel under [`chant_comm::kind::PUBSUB`]:
//!
//! * a **data frame** on the topic's data tag ([`topic_tag`]) — either
//!   publisher→home ([`ROUTE_TO_HOME`], empty node list) or routed down
//!   the fan-out tree ([`ROUTE_TREE`], carrying the full ordered node
//!   list so every relay derives its children locally and forwards the
//!   received bytes *verbatim*, one allocation per publish per node);
//! * an **ack** on [`tags::PUBSUB_ACK`], confirming one hop of one data
//!   frame.
//!
//! The subscription-update argument blob ([`encode_sub`]) rides RSR,
//! not a raw frame; it lives here so all pub-sub codecs share one
//! proptest battery.

use bytes::Bytes;
use chant_comm::Address;
use chant_core::ranges::tags;
use chant_core::wire::{Reader, Writer};
use chant_core::ChantError;

/// Frame format version.
pub const WIRE_VERSION: u8 = 1;

/// Route discriminant: publisher → home node, node list empty (the
/// home builds the tree).
pub const ROUTE_TO_HOME: u8 = 0;
/// Route discriminant: descending the fan-out tree, node list present.
pub const ROUTE_TREE: u8 = 1;

/// Hard cap on the node list length a decoder will accept; a corrupted
/// length prefix must not turn into a multi-gigabyte allocation.
pub const MAX_TREE_NODES: usize = 1 << 16;

/// The data tag for a topic: `PUBSUB_BASE + (topic % PUBSUB_TOPIC_TAGS)`.
/// Per-topic flows stay distinguishable on the wire (traces, telemetry,
/// the fault shim's per-link streams) without any registration
/// round-trip; distinct topics may share a tag, so the frame body —
/// not the tag — is authoritative for the topic id.
pub fn topic_tag(topic: u64) -> i32 {
    tags::PUBSUB_BASE + (topic % tags::PUBSUB_TOPIC_TAGS as u64) as i32
}

/// One publish, as it travels every edge of its fan-out tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataFrame {
    /// [`ROUTE_TO_HOME`] or [`ROUTE_TREE`].
    pub route: u8,
    /// Topic identifier.
    pub topic: u64,
    /// The publishing node.
    pub origin: Address,
    /// Per-`(origin, topic)` publish sequence number — with `origin`,
    /// the identity receivers deduplicate on.
    pub seq: u64,
    /// Publisher wall clock (UNIX nanoseconds), for delivery-latency
    /// measurement across processes on one host.
    pub sent_ns: u64,
    /// The tree's ordered node list (home first); empty for
    /// [`ROUTE_TO_HOME`]. Position in this list *is* the tree topology:
    /// node `i`'s children sit at `k*i+1 ..= k*i+k`.
    pub nodes: Vec<Address>,
    /// Opaque payload.
    pub payload: Bytes,
}

/// Encode a data frame body.
pub fn encode_data(f: &DataFrame) -> Bytes {
    let mut w = Writer::new()
        .u8(WIRE_VERSION)
        .u8(f.route)
        .u64(f.topic)
        .u32(f.origin.pe)
        .u32(f.origin.process)
        .u64(f.seq)
        .u64(f.sent_ns)
        .u32(f.nodes.len() as u32);
    for n in &f.nodes {
        w = w.u32(n.pe).u32(n.process);
    }
    w.bytes(&f.payload).finish()
}

/// Decode a data frame body (total: truncation, bad version/route, and
/// oversized node lists are all [`ChantError::Wire`]).
pub fn decode_data(body: &[u8]) -> Result<DataFrame, ChantError> {
    let mut r = Reader::new(body);
    let ver = r.u8()?;
    if ver != WIRE_VERSION {
        return Err(ChantError::Wire(format!("pubsub: bad version {ver}")));
    }
    let route = r.u8()?;
    if route != ROUTE_TO_HOME && route != ROUTE_TREE {
        return Err(ChantError::Wire(format!("pubsub: bad route {route}")));
    }
    let topic = r.u64()?;
    let origin = Address::new(r.u32()?, r.u32()?);
    let seq = r.u64()?;
    let sent_ns = r.u64()?;
    let n = r.u32()? as usize;
    if n > MAX_TREE_NODES {
        return Err(ChantError::Wire(format!("pubsub: {n} tree nodes")));
    }
    let mut nodes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        nodes.push(Address::new(r.u32()?, r.u32()?));
    }
    let payload = Bytes::copy_from_slice(r.bytes()?);
    Ok(DataFrame {
        route,
        topic,
        origin,
        seq,
        sent_ns,
        nodes,
        payload,
    })
}

/// One hop's acknowledgement of one data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckFrame {
    /// Topic of the acknowledged frame.
    pub topic: u64,
    /// Origin of the acknowledged frame.
    pub origin: Address,
    /// Sequence number of the acknowledged frame.
    pub seq: u64,
}

/// Encode an ack body.
pub fn encode_ack(a: &AckFrame) -> Bytes {
    Writer::new()
        .u8(WIRE_VERSION)
        .u64(a.topic)
        .u32(a.origin.pe)
        .u32(a.origin.process)
        .u64(a.seq)
        .finish()
}

/// Decode an ack body (total).
pub fn decode_ack(body: &[u8]) -> Result<AckFrame, ChantError> {
    let mut r = Reader::new(body);
    let ver = r.u8()?;
    if ver != WIRE_VERSION {
        return Err(ChantError::Wire(format!("pubsub ack: bad version {ver}")));
    }
    Ok(AckFrame {
        topic: r.u64()?,
        origin: Address::new(r.u32()?, r.u32()?),
        seq: r.u64()?,
    })
}

/// A subscription update: the sending node asserts its absolute local
/// subscriber `count` for `topic`, stamped with its per-topic monotonic
/// `version` (see the RSR handler for the version rules that make the
/// update idempotent under replay and reorder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubUpdate {
    /// Topic identifier.
    pub topic: u64,
    /// The sender's absolute local subscriber count (0 = none left).
    pub count: u32,
    /// The sender's per-topic update version.
    pub version: u64,
}

/// Encode a subscription update (RSR argument blob).
pub fn encode_sub(u: &SubUpdate) -> Bytes {
    Writer::new()
        .u8(WIRE_VERSION)
        .u64(u.topic)
        .u32(u.count)
        .u64(u.version)
        .finish()
}

/// Decode a subscription update (total).
pub fn decode_sub(body: &[u8]) -> Result<SubUpdate, ChantError> {
    let mut r = Reader::new(body);
    let ver = r.u8()?;
    if ver != WIRE_VERSION {
        return Err(ChantError::Wire(format!("pubsub sub: bad version {ver}")));
    }
    Ok(SubUpdate {
        topic: r.u64()?,
        count: r.u32()?,
        version: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(nodes: Vec<Address>) -> DataFrame {
        DataFrame {
            route: if nodes.is_empty() { ROUTE_TO_HOME } else { ROUTE_TREE },
            topic: 0xFEED_u64,
            origin: Address::new(2, 1),
            seq: 42,
            sent_ns: 123_456_789,
            nodes,
            payload: Bytes::from_static(b"payload"),
        }
    }

    #[test]
    fn data_frame_roundtrip_both_routes() {
        for f in [
            frame(vec![]),
            frame(vec![Address::new(0, 0), Address::new(1, 0), Address::new(3, 1)]),
        ] {
            assert_eq!(decode_data(&encode_data(&f)).unwrap(), f);
        }
    }

    #[test]
    fn ack_and_sub_roundtrip() {
        let a = AckFrame {
            topic: 7,
            origin: Address::new(1, 0),
            seq: 9,
        };
        assert_eq!(decode_ack(&encode_ack(&a)).unwrap(), a);
        let u = SubUpdate {
            topic: 7,
            count: 3,
            version: 11,
        };
        assert_eq!(decode_sub(&encode_sub(&u)).unwrap(), u);
    }

    #[test]
    fn bad_version_and_route_are_rejected() {
        let mut raw = encode_data(&frame(vec![])).to_vec();
        raw[0] = 99;
        assert!(decode_data(&raw).is_err());
        let mut raw = encode_data(&frame(vec![])).to_vec();
        raw[1] = 7; // not a route
        assert!(decode_data(&raw).is_err());
    }

    #[test]
    fn oversized_node_list_is_rejected_without_allocating() {
        // Hand-build a header claiming u32::MAX tree nodes.
        let raw = Writer::new()
            .u8(WIRE_VERSION)
            .u8(ROUTE_TREE)
            .u64(1)
            .u32(0)
            .u32(0)
            .u64(1)
            .u64(1)
            .u32(u32::MAX)
            .finish();
        assert!(decode_data(&raw).is_err());
    }

    #[test]
    fn topic_tags_stay_in_reserved_range() {
        for topic in [0u64, 1, 239, 240, 241, u64::MAX] {
            let tag = topic_tag(topic);
            assert!((tags::PUBSUB_BASE..tags::PUBSUB_ACK).contains(&tag), "topic {topic} -> tag {tag:#x}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_addr() -> impl Strategy<Value = Address> {
            (any::<u32>(), any::<u32>()).prop_map(|(pe, process)| Address::new(pe, process))
        }

        fn arb_data() -> impl Strategy<Value = DataFrame> {
            (
                (any::<bool>(), any::<u64>(), arb_addr(), any::<u64>(), any::<u64>()),
                proptest::collection::vec(arb_addr(), 0..24),
                proptest::collection::vec(any::<u8>(), 0..256),
            )
                .prop_map(|((tree, topic, origin, seq, sent_ns), nodes, payload)| DataFrame {
                    route: if tree { ROUTE_TREE } else { ROUTE_TO_HOME },
                    topic,
                    origin,
                    seq,
                    sent_ns,
                    nodes,
                    payload: Bytes::from(payload),
                })
        }

        // All three frames are self-delimiting: a cut anywhere strictly
        // inside one is an error, never a silent success.
        chant_comm::codec_props!(
            data: arb_data(), encode_data, decode_data,
            rejects_prefixes_below = usize::MAX, every_byte_matters = true,
        );
        chant_comm::codec_props!(
            ack: (any::<u64>(), arb_addr(), any::<u64>())
                .prop_map(|(topic, origin, seq)| AckFrame { topic, origin, seq }),
            encode_ack, decode_ack,
            rejects_prefixes_below = usize::MAX, every_byte_matters = true,
        );
        chant_comm::codec_props!(
            sub: (any::<u64>(), any::<u32>(), any::<u64>())
                .prop_map(|(topic, count, version)| SubUpdate { topic, count, version }),
            encode_sub, decode_sub,
            rejects_prefixes_below = usize::MAX, every_byte_matters = true,
        );
    }
}
