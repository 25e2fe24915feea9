//! Header encoding of global thread names — "the delivery issue".
//!
//! "In order to ensure proper delivery of messages to threads, and
//! without having to make intermediate copies, the entire global thread
//! name (pe, process, thread) must appear in the message header" (paper
//! §3.1). The `(pe, process)` part is the comm layer's destination
//! address; this module decides where the *thread* part goes:
//!
//! * [`NamingMode::Communicator`] — the MPI approach: the header's
//!   context field carries `(dst_thread << 32) | src_thread`, leaving
//!   the full tag space to the user and allowing receives to select by
//!   source thread.
//! * [`NamingMode::TagOverload`] — the NX approach: "we must overload
//!   one of the existing fields: typically the user-defined tag field.
//!   This approach has the disadvantage of reducing the number of tags
//!   allowed, typically to half the number of bits". The destination
//!   thread id takes the upper 15 bits of the 31-bit non-negative tag;
//!   the user tag keeps the lower 16. The source thread id does not
//!   travel at all, so wildcard-tag and source-thread-selective receives
//!   are unsupported — exactly the fidelity cost the paper describes.
//!
//! Placing the thread id in the message *body* is rejected outright, as
//! in the paper: it would force an intermediate receive-decode-forward
//! thread and a copy on both sides.

use chant_comm::{CtxMatch, RecvSpec};
use chant_ult::Tid;

use crate::error::ChantError;

/// How the destination thread's name is carried in the message header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NamingMode {
    /// MPI-style: thread ids in the context (communicator) field.
    #[default]
    Communicator,
    /// NX-style: destination thread id packed into the tag field.
    TagOverload,
}

/// Inclusive maximum user tag in `TagOverload` mode (16 bits).
pub const TAG_OVERLOAD_MAX_TAG: i32 = 0xFFFF;
/// Inclusive maximum user tag in `Communicator` mode (30 bits; the sign
/// bit is reserved for `ANY_TAG` and the top bit for runtime-internal
/// traffic).
pub const COMMUNICATOR_MAX_TAG: i32 = 0x3FFF_FFFF;
/// Inclusive maximum thread id packable into a tag (15 bits, keeping the
/// wire tag non-negative).
pub const TAG_OVERLOAD_MAX_THREAD: Tid = 0x7FFE;

/// A wire-ready encoding of one send: what to put in the tag and context
/// header fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireAddress {
    /// Value for the header tag field.
    pub tag: i32,
    /// Value for the header context field.
    pub ctx: u64,
}

impl NamingMode {
    /// Largest user tag this mode can carry.
    pub fn max_tag(self) -> i32 {
        match self {
            NamingMode::Communicator => COMMUNICATOR_MAX_TAG,
            NamingMode::TagOverload => TAG_OVERLOAD_MAX_TAG,
        }
    }

    /// Encode a send from `src_thread` to `dst_thread` with `tag`.
    pub fn encode(
        self,
        src_thread: Tid,
        dst_thread: Tid,
        tag: i32,
    ) -> Result<WireAddress, ChantError> {
        if tag < 0 || tag > self.max_tag() {
            return Err(ChantError::TagOutOfRange {
                tag,
                max: self.max_tag(),
            });
        }
        match self {
            NamingMode::Communicator => Ok(WireAddress {
                tag,
                ctx: (u64::from(dst_thread) << 32) | u64::from(src_thread),
            }),
            NamingMode::TagOverload => {
                if dst_thread > TAG_OVERLOAD_MAX_THREAD {
                    return Err(ChantError::ThreadIdOutOfRange { thread: dst_thread });
                }
                Ok(WireAddress {
                    tag: ((dst_thread as i32) << 16) | tag,
                    ctx: 0,
                })
            }
        }
    }

    /// Decode a received header back into `(src_thread, dst_thread, tag)`.
    /// The source thread is `None` in `TagOverload` mode — it is simply
    /// not in the header.
    pub fn decode(self, wire_tag: i32, ctx: u64) -> (Option<Tid>, Tid, i32) {
        match self {
            NamingMode::Communicator => {
                let dst = (ctx >> 32) as Tid;
                let src = (ctx & 0xFFFF_FFFF) as Tid;
                (Some(src), dst, wire_tag)
            }
            NamingMode::TagOverload => {
                let dst = (wire_tag >> 16) as Tid;
                let tag = wire_tag & 0xFFFF;
                (None, dst, tag)
            }
        }
    }

    /// Build the comm-layer matching spec for a receive by thread
    /// `my_thread`, optionally from a specific source thread, with a
    /// specific or wildcard user tag. `base` supplies the non-naming
    /// parts of the spec (source address, message kind).
    pub fn recv_spec(
        self,
        base: RecvSpec,
        my_thread: Tid,
        src_thread: Option<Tid>,
        tag: Option<i32>,
    ) -> Result<RecvSpec, ChantError> {
        if let Some(t) = tag {
            if t < 0 || t > self.max_tag() {
                return Err(ChantError::TagOutOfRange {
                    tag: t,
                    max: self.max_tag(),
                });
            }
        }
        match self {
            NamingMode::Communicator => {
                let mut spec = base;
                spec.tag = tag.unwrap_or(chant_comm::ANY_TAG);
                spec.ctx = match src_thread {
                    // Match both halves of the context word.
                    Some(s) => CtxMatch::exact((u64::from(my_thread) << 32) | u64::from(s)),
                    // Match only the destination half.
                    None => CtxMatch::masked(u64::from(my_thread) << 32, 0xFFFF_FFFF_0000_0000),
                };
                Ok(spec)
            }
            NamingMode::TagOverload => {
                if src_thread.is_some() {
                    return Err(ChantError::SrcThreadSelectionUnsupported);
                }
                let Some(tag) = tag else {
                    return Err(ChantError::AnyTagUnsupported);
                };
                if my_thread > TAG_OVERLOAD_MAX_THREAD {
                    return Err(ChantError::ThreadIdOutOfRange { thread: my_thread });
                }
                let mut spec = base;
                spec.tag = ((my_thread as i32) << 16) | tag;
                spec.ctx = CtxMatch::Any;
                Ok(spec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chant_comm::{kind, Address, Header};

    fn header_for(mode: NamingMode, src_t: Tid, dst_t: Tid, tag: i32) -> Header {
        let w = mode.encode(src_t, dst_t, tag).unwrap();
        Header {
            src: Address::new(0, 0),
            dst: Address::new(1, 0),
            tag: w.tag,
            ctx: w.ctx,
            kind: kind::DATA,
            len: 0,
            trace: 0,
        }
    }

    #[test]
    fn communicator_roundtrip_preserves_everything() {
        let m = NamingMode::Communicator;
        let w = m.encode(7, 9, 12345).unwrap();
        let (src, dst, tag) = m.decode(w.tag, w.ctx);
        assert_eq!(src, Some(7));
        assert_eq!(dst, 9);
        assert_eq!(tag, 12345);
    }

    #[test]
    fn tag_overload_roundtrip_loses_source_thread() {
        let m = NamingMode::TagOverload;
        let w = m.encode(7, 9, 345).unwrap();
        let (src, dst, tag) = m.decode(w.tag, w.ctx);
        assert_eq!(src, None, "NX overloading cannot carry the source thread");
        assert_eq!(dst, 9);
        assert_eq!(tag, 345);
    }

    #[test]
    fn tag_overload_halves_the_tag_space() {
        let m = NamingMode::TagOverload;
        assert!(m.encode(1, 1, TAG_OVERLOAD_MAX_TAG).is_ok());
        assert!(matches!(
            m.encode(1, 1, TAG_OVERLOAD_MAX_TAG + 1),
            Err(ChantError::TagOutOfRange { .. })
        ));
        // Communicator mode accepts the same tag fine.
        assert!(NamingMode::Communicator
            .encode(1, 1, TAG_OVERLOAD_MAX_TAG + 1)
            .is_ok());
    }

    #[test]
    fn tag_overload_limits_thread_ids() {
        let m = NamingMode::TagOverload;
        assert!(m.encode(1, TAG_OVERLOAD_MAX_THREAD, 0).is_ok());
        assert!(matches!(
            m.encode(1, TAG_OVERLOAD_MAX_THREAD + 1, 0),
            Err(ChantError::ThreadIdOutOfRange { .. })
        ));
    }

    #[test]
    fn negative_tags_rejected_in_both_modes() {
        for m in [NamingMode::Communicator, NamingMode::TagOverload] {
            assert!(matches!(
                m.encode(1, 1, -5),
                Err(ChantError::TagOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn recv_spec_matches_only_my_thread() {
        for m in [NamingMode::Communicator, NamingMode::TagOverload] {
            let spec = m
                .recv_spec(RecvSpec::any(), 5, None, Some(3))
                .unwrap();
            assert!(spec.matches(&header_for(m, 1, 5, 3)), "{m:?}");
            assert!(!spec.matches(&header_for(m, 1, 6, 3)), "{m:?}: wrong dst");
            assert!(!spec.matches(&header_for(m, 1, 5, 4)), "{m:?}: wrong tag");
        }
    }

    #[test]
    fn communicator_selects_by_source_thread() {
        let m = NamingMode::Communicator;
        let spec = m.recv_spec(RecvSpec::any(), 5, Some(2), Some(3)).unwrap();
        assert!(spec.matches(&header_for(m, 2, 5, 3)));
        assert!(!spec.matches(&header_for(m, 1, 5, 3)));
    }

    #[test]
    fn communicator_wildcard_tag_still_selects_thread() {
        let m = NamingMode::Communicator;
        let spec = m.recv_spec(RecvSpec::any(), 5, None, None).unwrap();
        assert!(spec.matches(&header_for(m, 1, 5, 0)));
        assert!(spec.matches(&header_for(m, 9, 5, 777)));
        assert!(!spec.matches(&header_for(m, 1, 4, 0)));
    }

    #[test]
    fn tag_overload_rejects_wildcards_and_src_threads() {
        let m = NamingMode::TagOverload;
        assert!(matches!(
            m.recv_spec(RecvSpec::any(), 5, None, None),
            Err(ChantError::AnyTagUnsupported)
        ));
        assert!(matches!(
            m.recv_spec(RecvSpec::any(), 5, Some(1), Some(0)),
            Err(ChantError::SrcThreadSelectionUnsupported)
        ));
    }
}
