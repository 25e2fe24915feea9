//! # chant-rma: one-sided remote memory for talking threads
//!
//! The Chant paper's threads *talk* — every transfer needs a sender and
//! a matching receiver. This crate adds the complementary one-sided
//! model on top of the same machinery: a node registers a memory
//! **segment** ([`RmaSegment`]), and any thread on any node may then
//! `get`, `put`, `fetch_add`, or `compare_swap` against it *without any
//! thread on the owning node participating*. The paper's own remote
//! service requests make this a natural extension — an RMA access is
//! exactly the kind of message that "arrives unannounced" (§3.2), so
//! each operation travels as a new RSR function code served by the
//! existing per-node server thread, and inherits the whole robustness
//! stack untouched:
//!
//! * **polling, not interrupts** — clients wait for RMA completion
//!   through the node's [`chant_core::PollingPolicy`], and the server
//!   answers at boosted priority like any other RSR;
//! * **retry/backoff** — with a [`chant_core::RetryPolicy`] installed,
//!   lost requests and replies retransmit with the same sequence
//!   number;
//! * **exactly-once** — the server's dedup table recognises those
//!   retransmissions, so a `fetch_add` is applied once no matter how
//!   often the transport duplicates it; the table needs no sizing, as
//!   each request tells the server the oldest call its node still
//!   awaits;
//! * **transport independence** — in-process and TCP clusters run the
//!   same code.
//!
//! ## Shape of the API
//!
//! Build the cluster through [`with_rma`], which registers the server
//! handlers; bring [`RmaNode`] into scope for the per-node methods.
//! Blocking calls (`rma_get`, ...) block only the calling thread;
//! nonblocking ones (`rma_iget`, ...) return an [`RmaHandle`] with
//! `test`/`wait`/`wait_timeout`, completing through the same engine as
//! an ordinary receive.
//!
//! ```
//! use chant_rma::{with_rma, RmaNode};
//!
//! let cluster = with_rma(chant_core::ChantCluster::builder().pes(2)).build();
//! cluster.run(|node| {
//!     // Everyone registers a 64-byte segment 1, then synchronises so
//!     // no access can race a registration.
//!     node.rma_register(1, 64);
//!     let me = node.self_id();
//!     let all: Vec<_> = (0..2).map(|pe| chant_core::ChanterId::new(pe, 0, me.thread)).collect();
//!     let group = chant_core::ChantGroup::new(node, all, 0).unwrap();
//!     group.barrier(node).unwrap();
//!
//!     // Each PE bumps a counter on PE 0 — one-sided, no receiver code.
//!     let home = chant_comm::Address::new(0, 0);
//!     node.rma_fetch_add(home, 1, 0, 1).unwrap();
//!     group.barrier(node).unwrap();
//!     if me.pe == 0 {
//!         assert_eq!(node.rma_segment(1).unwrap().load(0).unwrap(), 2);
//!     }
//! });
//! ```
//!
//! Atomics operate on little-endian `u64` cells at 8-byte-aligned
//! offsets; every access is bounds-checked against the registered size,
//! and the typed errors ([`chant_core::ChantError::NoSuchSegment`],
//! [`chant_core::ChantError::RmaOutOfBounds`],
//! [`chant_core::ChantError::RmaMisaligned`]) survive the wire intact.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod handle;
mod node;
mod segment;
pub mod wire;

pub use handle::{RmaHandle, RmaResult};
pub use node::{with_rma, RmaNode};
pub use segment::RmaSegment;
