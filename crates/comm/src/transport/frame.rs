//! The on-the-wire frame codec shared by all byte-stream transports.
//!
//! The paper's delivery argument (§3.1) hinges on the destination
//! thread's name travelling in the message **header**, not the body, so
//! the receiving side can route without touching user bytes. This codec
//! makes that layout an actual wire contract: every frame starts with a
//! fixed-size header carrying the full `(pe, process)` source and
//! destination, the tag, the context word (where the thread id rides in
//! `Communicator` naming), the kind, and the body length — followed by
//! the opaque body.
//!
//! Layout (everything little-endian):
//!
//! ```text
//! u32  frame length  (bytes after this field: FRAME_HEADER_LEN + body)
//! [u8;4] magic "CHT2" (format + version in one)
//! u8   kind
//! i32  tag           (>= 0; wildcards are receive-side only)
//! u64  ctx
//! u32  src.pe   u32 src.process
//! u32  dst.pe   u32 dst.process
//! u32  body length   (must equal frame length - FRAME_HEADER_LEN)
//! u64  trace id      (0 when the sender was not tracing)
//! [..] body
//! ```
//!
//! There is one layout, whether or not either end traces: an untraced
//! sender writes a zero trace id, so traced and untraced ranks share a
//! cluster. The golden layout test below pins it.
//!
//! Decoding is total: malformed input yields a [`FrameError`], never a
//! panic — the same rule PR 3 imposed on malformed RSR envelopes. A
//! decoder error on a live connection is unrecoverable (the stream has
//! lost framing), so transports count it and drop the connection.

use bytes::Bytes;

use crate::header::{Address, Header};

/// Magic + version tag opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CHT2";

/// Fixed bytes between the length prefix and the body.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 4 + 8 + 16 + 4 + 8;

/// Hard ceiling on one frame's post-prefix length; anything larger is
/// treated as framing corruption rather than an allocation request.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The magic/version bytes were wrong.
    BadMagic([u8; 4]),
    /// The buffer ended before the fixed header (or declared body) did.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The declared frame length exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The tag was negative (wildcards are receive-side only).
    BadTag(i32),
    /// The header's body length disagrees with the frame length.
    LengthMismatch {
        /// Body length declared in the header.
        declared: u32,
        /// Body bytes actually present.
        actual: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            FrameError::BadTag(t) => write!(f, "negative tag {t} on the wire"),
            FrameError::LengthMismatch { declared, actual } => {
                write!(f, "body length mismatch: header says {declared}, frame has {actual}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one message as a length-prefixed frame ready for a single
/// stream write (prefix included).
pub fn encode_frame(header: &Header, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + FRAME_HEADER_LEN + body.len());
    encode_frame_into(header, body, &mut out);
    out
}

/// Encode one message as a length-prefixed frame, appending to `out` —
/// the allocation-free form of [`encode_frame`]. A transport that keeps
/// one send buffer per peer encodes straight onto its end, and pays an
/// allocation only when the buffer grows.
pub fn encode_frame_into(header: &Header, body: &[u8], out: &mut Vec<u8>) {
    debug_assert_eq!(header.len as usize, body.len(), "header.len out of sync");
    let frame_len = (FRAME_HEADER_LEN + body.len()) as u32;
    out.reserve(4 + frame_len as usize);
    out.extend_from_slice(&frame_len.to_le_bytes());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(header.kind);
    out.extend_from_slice(&header.tag.to_le_bytes());
    out.extend_from_slice(&header.ctx.to_le_bytes());
    out.extend_from_slice(&header.src.pe.to_le_bytes());
    out.extend_from_slice(&header.src.process.to_le_bytes());
    out.extend_from_slice(&header.dst.pe.to_le_bytes());
    out.extend_from_slice(&header.dst.process.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&header.trace.to_le_bytes());
    out.extend_from_slice(body);
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

/// Decode the post-prefix payload of one frame.
///
/// Total over arbitrary input: every malformation maps to a
/// [`FrameError`]; nothing panics.
pub fn decode_frame(payload: &[u8]) -> Result<(Header, Bytes), FrameError> {
    if payload.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated {
            need: FRAME_HEADER_LEN,
            have: payload.len(),
        });
    }
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(FrameError::TooLarge(payload.len() as u32));
    }
    if payload[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic(
            payload[0..4].try_into().expect("4 bytes"),
        ));
    }
    let kind = payload[4];
    let tag = i32::from_le_bytes(payload[5..9].try_into().expect("4 bytes"));
    if tag < 0 {
        return Err(FrameError::BadTag(tag));
    }
    let ctx = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
    let src = Address::new(read_u32(payload, 17), read_u32(payload, 21));
    let dst = Address::new(read_u32(payload, 25), read_u32(payload, 29));
    let len = read_u32(payload, 33);
    let trace = u64::from_le_bytes(payload[37..45].try_into().expect("8 bytes"));
    let body = &payload[FRAME_HEADER_LEN..];
    if len as usize != body.len() {
        return Err(FrameError::LengthMismatch {
            declared: len,
            actual: body.len(),
        });
    }
    Ok((
        Header {
            src,
            dst,
            tag,
            ctx,
            kind,
            len,
            trace,
        },
        Bytes::from(body.to_vec()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn header(tag: i32, ctx: u64, kind: u8, len: u32) -> Header {
        Header {
            src: Address::new(1, 2),
            dst: Address::new(3, 4),
            tag,
            ctx,
            kind,
            len,
            trace: ctx.wrapping_add(0x77),
        }
    }

    #[test]
    fn roundtrip_preserves_header_and_body() {
        let h = header(7, 0xDEAD_BEEF_0123_4567, 1, 5);
        let frame = encode_frame(&h, b"hello");
        // Strip the 4-byte length prefix, as a stream reader would.
        let declared = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(declared, frame.len() - 4);
        let (h2, body) = decode_frame(&frame[4..]).unwrap();
        assert_eq!(h2, h);
        assert_eq!(&body[..], b"hello");
    }

    #[test]
    fn empty_body_roundtrips() {
        let h = header(0, 0, 0, 0);
        let frame = encode_frame(&h, b"");
        let (h2, body) = decode_frame(&frame[4..]).unwrap();
        assert_eq!(h2, h);
        assert!(body.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let h = header(1, 0, 0, 0);
        let mut frame = encode_frame(&h, b"");
        frame[4] ^= 0xFF;
        assert!(matches!(
            decode_frame(&frame[4..]),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn negative_tag_is_rejected() {
        // Hand-build a frame with tag = -1 (ANY_TAG must never travel).
        let h = header(0, 0, 0, 0);
        let mut frame = encode_frame(&h, b"");
        frame[9..13].copy_from_slice(&(-1i32).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame[4..]),
            Err(FrameError::BadTag(-1))
        ));
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let h = header(3, 9, 2, 4);
        let mut frame = encode_frame(&h, b"body");
        // Claim 3 body bytes while 4 are present.
        frame[37..41].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame[4..]),
            Err(FrameError::LengthMismatch { .. })
        ));
    }

    /// Pins the one wire format byte for byte: length prefix, "CHT2",
    /// kind, tag, ctx, src, dst, body length, trace id, body. The trace
    /// id sits after the body-length field, at offset 41 of the frame
    /// (37 of the payload), and is written whether or not it is 0.
    #[test]
    fn golden_layout_is_pinned() {
        assert_eq!(FRAME_HEADER_LEN, 45);
        let h = Header {
            src: Address::new(0x0102_0304, 0x0506_0708),
            dst: Address::new(0x090A_0B0C, 0x0D0E_0F10),
            tag: 0x1122_3344,
            ctx: 0xA1B2_C3D4_E5F6_0718,
            kind: 2,
            len: 3,
            trace: 0x0001_0000_0000_002A, // pe 1, seq 42
        };
        let frame = encode_frame(&h, b"abc");
        let mut expect = Vec::new();
        expect.extend_from_slice(&(45u32 + 3).to_le_bytes());
        expect.extend_from_slice(b"CHT2");
        expect.push(2);
        expect.extend_from_slice(&0x1122_3344i32.to_le_bytes());
        expect.extend_from_slice(&0xA1B2_C3D4_E5F6_0718u64.to_le_bytes());
        expect.extend_from_slice(&0x0102_0304u32.to_le_bytes());
        expect.extend_from_slice(&0x0506_0708u32.to_le_bytes());
        expect.extend_from_slice(&0x090A_0B0Cu32.to_le_bytes());
        expect.extend_from_slice(&0x0D0E_0F10u32.to_le_bytes());
        expect.extend_from_slice(&3u32.to_le_bytes());
        expect.extend_from_slice(&0x0001_0000_0000_002Au64.to_le_bytes());
        expect.extend_from_slice(b"abc");
        assert_eq!(frame, expect);
        assert_eq!(
            u64::from_le_bytes(frame[41..49].try_into().unwrap()),
            h.trace
        );
        assert_eq!(decode_frame(&frame[4..]).unwrap().0, h);
    }

    fn arb_frame() -> impl Strategy<Value = (Header, Vec<u8>)> {
        let body = proptest::collection::vec(any::<u8>(), 0..256);
        (0i32..i32::MAX, any::<u64>(), any::<u8>(), any::<u64>(), any::<u64>(), body).prop_map(
            |(tag, ctx, kind, src, dst, body)| {
                let h = Header {
                    src: Address::new((src >> 32) as u32, src as u32),
                    dst: Address::new((dst >> 32) as u32, dst as u32),
                    tag,
                    ctx,
                    kind,
                    len: body.len() as u32,
                    trace: ctx.rotate_left(7) ^ dst,
                };
                (h, body)
            },
        )
    }

    // The codec under test is the payload after the 4-byte length
    // prefix, as a stream reader hands it over. A flipped byte either
    // fails to decode or decodes to a different well-formed message.
    crate::codec_props!(
        frame: arb_frame(),
        |(h, body): &(Header, Vec<u8>)| encode_frame(h, body)[4..].to_vec(),
        |raw: &[u8]| decode_frame(raw).map(|(h, body)| (h, body.to_vec())),
        rejects_prefixes_below = usize::MAX,
        every_byte_matters = true,
    );

    proptest! {
        /// `encode_frame_into` onto a dirty, pre-sized reused buffer is
        /// byte-identical to a fresh `encode_frame`, and the appended
        /// frame round-trips through `decode_frame` unchanged.
        #[test]
        fn prop_encode_into_matches_encode(
            frame in arb_frame(),
            residue in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let (h, body) = frame;
            let fresh = encode_frame(&h, &body);
            // A reused buffer arrives with stale capacity, cleared.
            let mut reused = residue;
            reused.clear();
            encode_frame_into(&h, &body, &mut reused);
            prop_assert_eq!(&reused, &fresh);
            let (h2, b2) = decode_frame(&reused[4..]).unwrap();
            prop_assert_eq!(h2, h);
            prop_assert_eq!(&b2[..], &body[..]);
        }
    }
}
