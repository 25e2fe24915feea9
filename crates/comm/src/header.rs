//! Message headers and receive-matching specifications.
//!
//! "All message passing systems ... support the notion of a message
//! header, which is used by the operating system as a signature for
//! delivering messages to the proper location" (paper §3.1). The header
//! modelled here carries everything NX does — source processor/process,
//! user tag, length — plus an MPI-communicator-like *context* field
//! ([`Header::ctx`]) that can name entities *within* a process, which is
//! the capability the paper uses MPI's communicator for.

/// The `(processing element, process)` address of one endpoint.
///
/// These are the first two components of Chant's global-thread 3-tuple;
/// the third (the local thread id) travels in [`Header::tag`] or
/// [`Header::ctx`] depending on the Chant naming mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address {
    /// Processing element (node) identifier.
    pub pe: u32,
    /// Process identifier within the PE.
    pub process: u32,
}

impl Address {
    /// Shorthand constructor.
    pub fn new(pe: u32, process: u32) -> Address {
        Address { pe, process }
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.pe, self.process)
    }
}

/// Wildcard user tag for receives (NX's `-1`, MPI's `MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -1;

/// Message classes understood by the Chant layers above.
///
/// The comm layer matches `kind` exactly but assigns it no meaning; Chant
/// uses it to separate expected point-to-point traffic from unannounced
/// remote service requests (paper §3.2).
pub mod kind {
    /// Ordinary point-to-point data between threads.
    pub const DATA: u8 = 0;
    /// A remote service request addressed to the server thread.
    pub const RSR: u8 = 1;
    /// A reply to a remote service request.
    pub const RSR_REPLY: u8 = 2;
    /// A pub-sub data or acknowledgement frame (`chant-pubsub`),
    /// addressed to a node's relay daemon rather than to a particular
    /// thread. A distinct kind keeps relay traffic out of the ordinary
    /// `DATA` matching tables, the same separation the server thread
    /// gets via `RSR`.
    pub const PUBSUB: u8 = 3;
}

/// The signature delivered ahead of every message body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Sending endpoint.
    pub src: Address,
    /// Destination endpoint.
    pub dst: Address,
    /// User tag (non-negative; `ANY_TAG` is only legal in receive specs).
    pub tag: i32,
    /// Context field, usable like an MPI communicator to address entities
    /// within a process. `0` means "process level".
    pub ctx: u64,
    /// Message class (see [`kind`]).
    pub kind: u8,
    /// Body length in bytes.
    pub len: u32,
    /// Wire-level trace id: `(origin_pe, seq)` packed per
    /// `chant_obs::trace_id`, allocated at `isend` and carried through
    /// every hop (frame codec included) so the per-process traces of a
    /// cluster can be causally stitched. `0` means untraced (no tracer
    /// installed when the message was sent). Every frame carries it.
    pub trace: u64,
}

/// How a receive spec constrains the header's context field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtxMatch {
    /// Match any context value.
    Any,
    /// Match iff `header.ctx & mask == value`. A full-field exact match
    /// is `masked(v, u64::MAX)`; partial masks let a receiver match "any
    /// message addressed to thread T, from any source thread" when both
    /// ids are packed into the context word.
    Masked {
        /// Required value of the masked bits.
        value: u64,
        /// Which bits of `ctx` participate in the comparison.
        mask: u64,
    },
}

impl CtxMatch {
    /// Exact full-field match.
    pub fn exact(value: u64) -> CtxMatch {
        CtxMatch::Masked {
            value,
            mask: u64::MAX,
        }
    }

    /// Masked match (see [`CtxMatch::Masked`]).
    pub fn masked(value: u64, mask: u64) -> CtxMatch {
        CtxMatch::Masked {
            value: value & mask,
            mask,
        }
    }

    /// Does a header's context field satisfy this constraint?
    pub fn matches(&self, ctx: u64) -> bool {
        match *self {
            CtxMatch::Any => true,
            CtxMatch::Masked { value, mask } => ctx & mask == value,
        }
    }
}

/// A receive-matching specification: which incoming messages a posted
/// receive is willing to accept (NX `crecv(typesel, ...)` generalized
/// with MPI-style source and context selection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvSpec {
    /// Required source endpoint, or `None` for any source.
    pub src: Option<Address>,
    /// Required user tag, or `ANY_TAG` for any.
    pub tag: i32,
    /// Context constraint.
    pub ctx: CtxMatch,
    /// Required message class.
    pub kind: u8,
}

impl RecvSpec {
    /// A spec matching any DATA message.
    pub fn any() -> RecvSpec {
        RecvSpec {
            src: None,
            tag: ANY_TAG,
            ctx: CtxMatch::Any,
            kind: kind::DATA,
        }
    }

    /// A spec matching a specific tag from any source (NX style).
    pub fn tag(tag: i32) -> RecvSpec {
        RecvSpec {
            tag,
            ..RecvSpec::any()
        }
    }

    /// Restrict to a specific source endpoint.
    pub fn from(mut self, src: Address) -> RecvSpec {
        self.src = Some(src);
        self
    }

    /// Restrict the context field.
    pub fn ctx(mut self, ctx: CtxMatch) -> RecvSpec {
        self.ctx = ctx;
        self
    }

    /// Restrict the message class.
    pub fn kind(mut self, kind: u8) -> RecvSpec {
        self.kind = kind;
        self
    }

    /// Does this spec accept a message with the given header?
    pub fn matches(&self, h: &Header) -> bool {
        if self.kind != h.kind {
            return false;
        }
        if let Some(src) = self.src {
            if src != h.src {
                return false;
            }
        }
        if self.tag != ANY_TAG && self.tag != h.tag {
            return false;
        }
        self.ctx.matches(h.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(src: Address, tag: i32, ctx: u64, k: u8) -> Header {
        Header {
            src,
            dst: Address::new(9, 9),
            tag,
            ctx,
            kind: k,
            len: 0,
            trace: 0,
        }
    }

    #[test]
    fn any_spec_matches_any_data() {
        let h = header(Address::new(0, 0), 17, 99, kind::DATA);
        assert!(RecvSpec::any().matches(&h));
    }

    #[test]
    fn kind_is_matched_exactly() {
        let h = header(Address::new(0, 0), 17, 0, kind::RSR);
        assert!(!RecvSpec::any().matches(&h));
        assert!(RecvSpec::any().kind(kind::RSR).matches(&h));
    }

    #[test]
    fn tag_wildcard_and_exact() {
        let h = header(Address::new(0, 0), 5, 0, kind::DATA);
        assert!(RecvSpec::tag(5).matches(&h));
        assert!(!RecvSpec::tag(6).matches(&h));
        assert!(RecvSpec::tag(ANY_TAG).matches(&h));
    }

    #[test]
    fn source_selection() {
        let a = Address::new(1, 0);
        let b = Address::new(2, 0);
        let h = header(a, 5, 0, kind::DATA);
        assert!(RecvSpec::any().from(a).matches(&h));
        assert!(!RecvSpec::any().from(b).matches(&h));
    }

    #[test]
    fn ctx_exact_and_masked() {
        let h = header(Address::new(0, 0), 0, 0xAABB_0000_0000_CCDD, kind::DATA);
        assert!(RecvSpec::any()
            .ctx(CtxMatch::exact(0xAABB_0000_0000_CCDD))
            .matches(&h));
        assert!(!RecvSpec::any().ctx(CtxMatch::exact(1)).matches(&h));
        // Match only the low 16 bits (e.g. "destination thread" half).
        assert!(RecvSpec::any()
            .ctx(CtxMatch::masked(0xCCDD, 0xFFFF))
            .matches(&h));
        assert!(!RecvSpec::any()
            .ctx(CtxMatch::masked(0xCCDE, 0xFFFF))
            .matches(&h));
    }

    #[test]
    fn masked_constructor_normalizes_value() {
        // Bits outside the mask in `value` are ignored.
        let m = CtxMatch::masked(0xFF12, 0x00FF);
        assert_eq!(
            m,
            CtxMatch::Masked {
                value: 0x12,
                mask: 0xFF
            }
        );
    }

    #[test]
    fn address_display() {
        assert_eq!(Address::new(3, 1).to_string(), "(3,1)");
    }
}
