//! Wire formats for remote service requests and cluster control traffic.
//!
//! Point-to-point *data* bodies are opaque user bytes — Chant never reads
//! them (that is the zero-copy discipline of §3.1). RSR bodies, in
//! contrast, are Chant's own protocol: "message = receive(args); handler
//! = unpack(message)" (paper Figure 7). This module is that `unpack`.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::ChantError;
use crate::id::ChanterId;

/// Little-endian reader over a message body.
///
/// Public so companion crates (e.g. `chant-rma`) can decode their own
/// RSR argument envelopes with the same totality discipline as the
/// built-ins: every accessor returns [`ChantError::Wire`] on truncated
/// or malformed input, never panics.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn need(&self, n: usize) -> Result<(), ChantError> {
        if self.buf.len() < n {
            Err(ChantError::Wire(format!(
                "truncated message: need {n} more bytes, have {}",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, ChantError> {
        self.need(1)?;
        let v = self.buf[0];
        self.buf = &self.buf[1..];
        Ok(v)
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ChantError> {
        self.need(4)?;
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ChantError> {
        self.need(8)?;
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    /// Consume a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], ChantError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }

    /// Consume a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, ChantError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| ChantError::Wire(format!("invalid utf-8: {e}")))
    }

    /// Everything not yet consumed.
    pub fn rest(self) -> &'a [u8] {
        self.buf
    }
}

/// Little-endian writer building a message body (the [`Reader`]'s
/// encoding side; see its docs for why this is public).
pub struct Writer {
    buf: BytesMut,
}

impl Default for Writer {
    fn default() -> Writer {
        Writer::new()
    }
}

impl Writer {
    /// Start an empty body.
    pub fn new() -> Writer {
        Writer {
            buf: BytesMut::with_capacity(64),
        }
    }

    /// Append one byte.
    pub fn u8(mut self, v: u8) -> Writer {
        self.buf.put_u8(v);
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(mut self, v: u32) -> Writer {
        self.buf.put_u32_le(v);
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(mut self, v: u64) -> Writer {
        self.buf.put_u64_le(v);
        self
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(mut self, v: &[u8]) -> Writer {
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(self, v: &str) -> Writer {
        self.bytes(v.as_bytes())
    }

    /// Append raw trailing bytes (readable via [`Reader::rest`]).
    pub fn raw(mut self, v: &[u8]) -> Writer {
        self.buf.put_slice(v);
        self
    }

    /// Freeze the body.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

// ---------------------------------------------------------------------
// RSR envelopes
// ---------------------------------------------------------------------

/// Decoded header of an RSR request body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RsrEnvelope {
    pub fn_id: u32,
    /// Reply token; 0 means fire-and-forget (no reply expected).
    pub reply_token: u32,
    /// Who asked (so deferred repliers know where to send).
    pub from: ChanterId,
    /// Per-client-node request sequence number. Retransmissions of the
    /// same logical request reuse the same `seq`, so the server's dedup
    /// table can recognise (and not re-execute) duplicates.
    pub seq: u64,
    /// The client node's floor: the oldest seq it still awaited a reply
    /// for when it sent this request (≤ `seq`). Every lower seq is
    /// settled, so the server forgets and refuses them.
    pub low: u64,
    pub args: Bytes,
}

pub(crate) fn encode_rsr(
    fn_id: u32,
    reply_token: u32,
    from: ChanterId,
    seq: u64,
    low: u64,
    args: &[u8],
) -> Bytes {
    Writer::new()
        .u32(fn_id)
        .u32(reply_token)
        .u32(from.pe)
        .u32(from.process)
        .u32(from.thread)
        .u64(seq)
        .u64(low)
        .raw(args)
        .finish()
}

pub(crate) fn decode_rsr(body: &Bytes) -> Result<RsrEnvelope, ChantError> {
    let mut r = Reader::new(body);
    let fn_id = r.u32()?;
    let reply_token = r.u32()?;
    let pe = r.u32()?;
    let process = r.u32()?;
    let thread = r.u32()?;
    let seq = r.u64()?;
    let low = r.u64()?;
    let args = body.slice(body.len() - r.rest().len()..);
    Ok(RsrEnvelope {
        fn_id,
        reply_token,
        from: ChanterId::new(pe, process, thread),
        seq,
        low,
        args,
    })
}

// ---------------------------------------------------------------------
// RSR replies: status byte + seq echo + payload
// ---------------------------------------------------------------------

pub(crate) const REPLY_OK: u8 = 0;
pub(crate) const REPLY_ERR: u8 = 1;

/// Error discriminants inside an ERR reply. Most remote failures travel
/// as their display string (`ERR_REMOTE`); the one-sided memory errors
/// carry their fields so the client sees the same typed error a local
/// operation would produce.
const ERR_REMOTE: u8 = 0;
const ERR_NO_SEGMENT: u8 = 1;
const ERR_RMA_BOUNDS: u8 = 2;
const ERR_RMA_ALIGN: u8 = 3;

pub(crate) fn encode_reply(seq: u64, result: &Result<Bytes, ChantError>) -> Bytes {
    let w = Writer::new();
    match result {
        Ok(payload) => w.u8(REPLY_OK).u64(seq).raw(payload).finish(),
        Err(e) => {
            let w = w.u8(REPLY_ERR).u64(seq);
            match e {
                ChantError::NoSuchSegment(seg) => w.u8(ERR_NO_SEGMENT).u32(*seg),
                ChantError::RmaOutOfBounds {
                    seg,
                    offset,
                    len,
                    size,
                } => w
                    .u8(ERR_RMA_BOUNDS)
                    .u32(*seg)
                    .u64(*offset)
                    .u64(*len)
                    .u64(*size),
                ChantError::RmaMisaligned { offset } => w.u8(ERR_RMA_ALIGN).u64(*offset),
                other => w.u8(ERR_REMOTE).str(&other.to_string()),
            }
            .finish()
        }
    }
}

/// Decode a reply: outer `Err` is wire malformation, inner is the remote
/// status. The echoed `seq` lets retrying callers discard stale replies
/// after the 16-bit reply-token space wraps.
pub(crate) fn decode_reply(body: &Bytes) -> Result<(u64, Result<Bytes, ChantError>), ChantError> {
    let mut r = Reader::new(body);
    let status = r.u8()?;
    let seq = r.u64()?;
    match status {
        REPLY_OK => Ok((seq, Ok(Bytes::copy_from_slice(r.rest())))),
        REPLY_ERR => {
            let err = match r.u8()? {
                ERR_NO_SEGMENT => ChantError::NoSuchSegment(r.u32()?),
                ERR_RMA_BOUNDS => ChantError::RmaOutOfBounds {
                    seg: r.u32()?,
                    offset: r.u64()?,
                    len: r.u64()?,
                    size: r.u64()?,
                },
                ERR_RMA_ALIGN => ChantError::RmaMisaligned { offset: r.u64()? },
                // ERR_REMOTE and any future discriminant: the string form.
                _ => ChantError::Remote(r.str()?.to_string()),
            };
            Ok((seq, Err(err)))
        }
        other => Err(ChantError::Wire(format!("bad reply status {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_writer_roundtrip() {
        let b = Writer::new()
            .u8(7)
            .u32(0xDEAD_BEEF)
            .u64(0x0123_4567_89AB_CDEF)
            .str("hello")
            .bytes(&[1, 2, 3])
            .raw(b"tail")
            .finish();
        let mut r = Reader::new(&b);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.rest(), b"tail");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let b = Writer::new().u32(5).finish(); // claims 5 bytes, has none
        let mut r = Reader::new(&b);
        assert!(matches!(r.bytes(), Err(ChantError::Wire(_))));
    }

    #[test]
    fn rsr_envelope_roundtrip() {
        let from = ChanterId::new(1, 0, 9);
        let body = encode_rsr(42, 7, from, 11, 8, b"argbytes");
        let env = decode_rsr(&body).unwrap();
        assert_eq!(env.fn_id, 42);
        assert_eq!(env.reply_token, 7);
        assert_eq!(env.from, from);
        assert_eq!(env.seq, 11);
        assert_eq!(env.low, 8);
        assert_eq!(&env.args[..], b"argbytes");
    }

    #[test]
    fn reply_roundtrip_ok_and_err() {
        let ok = encode_reply(3, &Ok(Bytes::from_static(b"value")));
        let (seq, result) = decode_reply(&ok).unwrap();
        assert_eq!(seq, 3);
        assert_eq!(&result.unwrap()[..], b"value");

        let err = encode_reply(4, &Err(ChantError::ThreadCancelled));
        match decode_reply(&err) {
            Ok((4, Err(ChantError::Remote(msg)))) => assert!(msg.contains("cancelled")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rma_errors_roundtrip_typed() {
        let bounds = ChantError::RmaOutOfBounds {
            seg: 3,
            offset: 40,
            len: 16,
            size: 48,
        };
        for e in [
            ChantError::NoSuchSegment(9),
            bounds,
            ChantError::RmaMisaligned { offset: 13 },
        ] {
            let body = encode_reply(5, &Err(e.clone()));
            let (seq, result) = decode_reply(&body).unwrap();
            assert_eq!(seq, 5);
            assert_eq!(result.unwrap_err(), e, "typed error lost on the wire");
        }
    }

    #[test]
    fn invalid_utf8_is_a_wire_error() {
        let b = Writer::new().bytes(&[0xFF, 0xFE]).finish();
        let mut r = Reader::new(&b);
        assert!(matches!(r.str(), Err(ChantError::Wire(_))));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
            proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
        }

        fn arb_rsr() -> impl Strategy<Value = RsrEnvelope> {
            let from = (any::<u32>(), any::<u32>(), any::<u32>());
            let seqs = (any::<u64>(), any::<u64>());
            (any::<u32>(), any::<u32>(), from, seqs, arb_bytes(256)).prop_map(
                |(fn_id, reply_token, (pe, process, thread), (seq, low), args)| RsrEnvelope {
                    fn_id,
                    reply_token,
                    from: ChanterId::new(pe, process, thread),
                    seq,
                    low,
                    args,
                },
            )
        }

        // The arguments are "the rest" of the body, so only a cut into
        // the 36-byte fixed part (4+4+12+8+8) can be told from a shorter
        // request.
        chant_comm::codec_props!(
            rsr: arb_rsr(),
            |e: &RsrEnvelope| encode_rsr(e.fn_id, e.reply_token, e.from, e.seq, e.low, &e.args),
            |raw: &[u8]| decode_rsr(&Bytes::copy_from_slice(raw)),
            rejects_prefixes_below = 36,
            every_byte_matters = true,
        );

        // OK replies; the seq echo is what lets retrying callers discard
        // stale replies. (Error replies do not round-trip by design: all
        // but the typed RMA errors arrive as `Remote(display string)`.)
        // A corrupted status byte is rejected or flips the reply into a
        // visibly different ERR.
        chant_comm::codec_props!(
            reply: (any::<u64>(), arb_bytes(256)).prop_map(|(seq, payload)| (seq, Ok(payload))),
            |(seq, result): &(u64, Result<Bytes, ChantError>)| encode_reply(*seq, result),
            |raw: &[u8]| decode_reply(&Bytes::copy_from_slice(raw)),
            rejects_prefixes_below = 9,
            every_byte_matters = true,
        );
    }
}
