//! # chant-comm: an NX/MPI-style message-passing layer
//!
//! This crate is the *communication library* substrate of the Chant
//! reproduction (Haines, Cronk & Mehrotra, SC'94). The paper abstracts
//! the communication system as a "black box" with the capabilities of its
//! Figure 3, all of which are provided here:
//!
//! * **process management** — a process group of `(pe, process)`
//!   endpoints ([`CommWorld`]);
//! * **point-to-point** — blocking and nonblocking send/receive plus
//!   message polling ([`Endpoint::isend`], [`Endpoint::irecv`],
//!   [`RecvHandle::msgtest`], [`Endpoint::iprobe`], modelled on Intel
//!   NX's `csend/crecv/isend/irecv/msgtest/iprobe`);
//! * **message header** — processor, process, size, user tag, and a
//!   *context* field usable like an MPI communicator, which is how Chant
//!   carries the destination thread's name in the header rather than the
//!   body (paper §3.1, "the delivery issue");
//! * **information** — per-endpoint statistics ([`CommStats`]),
//!   including counters that let tests assert the paper's zero-copy
//!   claim (a message that finds a posted receive is delivered into the
//!   receiver's buffer without intermediate buffering).
//!
//! Two capabilities the paper calls out as *differing* between real
//! systems are both modelled:
//!
//! * NX lacks `MPI_TEST_ANY`; MPI has it. [`testany`] provides the MPI
//!   behaviour so the paper's §4.2 hypothesis (WQ polling with a single
//!   `msgtestany` call) can be evaluated.
//! * NX has no spare header field for a thread id, forcing Chant to
//!   overload the user tag; MPI's communicator can carry it. The header
//!   here has both a [`Header::tag`] and a [`Header::ctx`] field, and the
//!   Chant layer chooses which to use (its `NamingMode`).
//!
//! ## Blocking calls and threads
//!
//! Blocking operations ([`Endpoint::csend`], [`Endpoint::crecv`],
//! [`RecvHandle::msgwait`]) park the calling **OS thread** — over the
//! socket transport, which has no thread of its own, by running its
//! event loop until the receive completes. Chant's rule
//! is that "only nonblocking communication primitives from the underlying
//! communication system are utilized" from user-level thread context
//! (paper §3.1); [`set_blocking_guard`] lets a thread runtime install a
//! check that turns a violation into a panic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec_props;
mod endpoint;
mod fault;
mod guard;
mod handle;
mod header;
mod obs;
mod profile;
mod stats;
mod testany;
mod transport;
mod world;

pub use endpoint::Endpoint;
pub use fault::{FaultConfig, FaultStats, FaultStatsSnapshot, CONTROL_TAG_BASE, CONTROL_TAG_END};
pub use guard::set_blocking_guard;
pub use handle::{RecvHandle, SendHandle};
pub use testany::{testany, CompletionSet};
pub use header::{kind, Address, CtxMatch, Header, RecvSpec, ANY_TAG};
pub use profile::CommProfile;
pub use stats::{CommStats, CommStatsSnapshot};
pub use transport::{
    decode_frame, encode_frame, encode_frame_into, DeliverError, DeliverySink, FrameError,
    Progress, TcpOptions, Transport,
    TransportConfig, TransportStatsSnapshot, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN,
};
pub use world::CommWorld;

#[cfg(test)]
mod tests;
