//! Argument envelopes for the RMA remote service requests.
//!
//! These ride inside the core RSR envelope (`encode_rsr`'s `args`
//! bytes), built with the same little-endian [`Writer`]/[`Reader`]
//! discipline as the built-in operations: decoding is *total* — any
//! byte string yields `Ok` or [`ChantError::Wire`], never a panic —
//! because argument bytes can arrive off a real socket.

use bytes::Bytes;
use chant_core::wire::{Reader, Writer};
use chant_core::ChantError;

/// Arguments of a one-sided read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetArgs {
    /// Target segment id.
    pub seg: u32,
    /// Starting byte offset.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
}

/// Arguments of a one-sided write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PutArgs {
    /// Target segment id.
    pub seg: u32,
    /// Starting byte offset.
    pub offset: u64,
    /// Bytes to write.
    pub data: Bytes,
}

/// Arguments of a one-sided fetch-and-add.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchAddArgs {
    /// Target segment id.
    pub seg: u32,
    /// Cell offset (8-byte aligned).
    pub offset: u64,
    /// Addend (wrapping).
    pub delta: u64,
}

/// Arguments of a one-sided compare-and-swap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompareSwapArgs {
    /// Target segment id.
    pub seg: u32,
    /// Cell offset (8-byte aligned).
    pub offset: u64,
    /// Value the cell must hold for the swap to happen.
    pub expected: u64,
    /// Replacement value.
    pub new: u64,
}

/// Encode [`GetArgs`].
pub fn encode_get(a: &GetArgs) -> Bytes {
    Writer::new().u32(a.seg).u64(a.offset).u64(a.len).finish()
}

/// Decode [`GetArgs`].
pub fn decode_get(body: &[u8]) -> Result<GetArgs, ChantError> {
    let mut r = Reader::new(body);
    Ok(GetArgs {
        seg: r.u32()?,
        offset: r.u64()?,
        len: r.u64()?,
    })
}

/// Encode [`PutArgs`].
pub fn encode_put(a: &PutArgs) -> Bytes {
    Writer::new()
        .u32(a.seg)
        .u64(a.offset)
        .bytes(&a.data)
        .finish()
}

/// Decode [`PutArgs`].
pub fn decode_put(body: &[u8]) -> Result<PutArgs, ChantError> {
    let mut r = Reader::new(body);
    Ok(PutArgs {
        seg: r.u32()?,
        offset: r.u64()?,
        data: Bytes::copy_from_slice(r.bytes()?),
    })
}

/// Encode [`FetchAddArgs`].
pub fn encode_fetch_add(a: &FetchAddArgs) -> Bytes {
    Writer::new().u32(a.seg).u64(a.offset).u64(a.delta).finish()
}

/// Decode [`FetchAddArgs`].
pub fn decode_fetch_add(body: &[u8]) -> Result<FetchAddArgs, ChantError> {
    let mut r = Reader::new(body);
    Ok(FetchAddArgs {
        seg: r.u32()?,
        offset: r.u64()?,
        delta: r.u64()?,
    })
}

/// Encode [`CompareSwapArgs`].
pub fn encode_compare_swap(a: &CompareSwapArgs) -> Bytes {
    Writer::new()
        .u32(a.seg)
        .u64(a.offset)
        .u64(a.expected)
        .u64(a.new)
        .finish()
}

/// Decode [`CompareSwapArgs`].
pub fn decode_compare_swap(body: &[u8]) -> Result<CompareSwapArgs, ChantError> {
    let mut r = Reader::new(body);
    Ok(CompareSwapArgs {
        seg: r.u32()?,
        offset: r.u64()?,
        expected: r.u64()?,
        new: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Three fixed-size envelopes and one (put) whose data is
    // length-prefixed: none has a decodable strict prefix.
    chant_comm::codec_props!(
        get: (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(seg, offset, len)| GetArgs { seg, offset, len }),
        encode_get, decode_get,
        rejects_prefixes_below = usize::MAX, every_byte_matters = true,
    );
    chant_comm::codec_props!(
        put: (any::<u32>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(seg, offset, data)| PutArgs { seg, offset, data: Bytes::from(data) }),
        encode_put, decode_put,
        rejects_prefixes_below = usize::MAX, every_byte_matters = true,
    );
    chant_comm::codec_props!(
        fetch_add: (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(seg, offset, delta)| FetchAddArgs { seg, offset, delta }),
        encode_fetch_add, decode_fetch_add,
        rejects_prefixes_below = usize::MAX, every_byte_matters = true,
    );
    chant_comm::codec_props!(
        compare_swap: (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(seg, offset, expected, new)| CompareSwapArgs { seg, offset, expected, new }),
        encode_compare_swap, decode_compare_swap,
        rejects_prefixes_below = usize::MAX, every_byte_matters = true,
    );

    proptest! {
        /// Corrupting a put envelope's length prefix beyond the
        /// available bytes is a wire error, not a panic or a read of
        /// someone else's bytes.
        #[test]
        fn prop_put_length_corruption_contained(
            data in proptest::collection::vec(any::<u8>(), 0..64),
            claimed in any::<u32>(),
        ) {
            let mut raw = encode_put(&PutArgs {
                seg: 1,
                offset: 0,
                data: Bytes::from(data.clone()),
            }).to_vec();
            // The data length prefix lives right after seg + offset.
            raw[12..16].copy_from_slice(&claimed.to_le_bytes());
            match decode_put(&raw) {
                Ok(p) => prop_assert_eq!(p.data.len(), claimed as usize),
                Err(ChantError::Wire(_)) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
            }
        }
    }
}
