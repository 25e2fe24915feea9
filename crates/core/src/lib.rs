//! # chant-core: the Chant talking-threads runtime
//!
//! A Rust reproduction of the runtime described in Haines, Cronk &
//! Mehrotra, *"On the Design of Chant: A Talking Threads Package"*,
//! SC'94. *Talking threads* are lightweight threads that can communicate
//! directly with threads in other address spaces; Chant builds them from
//! a standard lightweight thread package ([`chant_ult`]) and a standard
//! message-passing library ([`chant_comm`]), in the paper's three layers:
//!
//! 1. **Point-to-point message passing among threads** ([`ChantNode::send`],
//!    [`ChantNode::recv`], [`ChantNode::irecv`], ...): global thread names
//!    are `(pe, process, thread)` 3-tuples ([`ChanterId`]); the destination
//!    thread travels in the *message header* — either overloaded into the
//!    user tag (the NX approach) or in a communicator-style context field
//!    (the MPI approach), selectable via [`NamingMode`]. Blocking receives
//!    never block the processor: they poll under one of the paper's three
//!    [`PollingPolicy`] algorithms.
//! 2. **Remote service requests** ([`ChantNode::rsr_call`],
//!    [`ChantNode::rsr_post`]): unannounced messages handled by a per-node
//!    *server thread* that waits with the same polling machinery and is
//!    priority-boosted while a request is in hand (paper §3.2, Figure 7).
//! 3. **Global thread operations** ([`ChantNode::remote_spawn`],
//!    [`ChantNode::remote_join`], [`ChantNode::remote_cancel`], ...):
//!    built on remote service requests, exactly as the paper builds
//!    remote thread creation on its RPC mechanism (§3.3).
//!
//! The paper's Appendix-A interface (`pthread_chanter_*`) is mirrored in
//! [`api`].
//!
//! ## Quick example
//!
//! ```
//! use chant_core::{ChantCluster, ChanterId, PollingPolicy};
//!
//! let cluster = ChantCluster::builder()
//!     .pes(2)
//!     .policy(PollingPolicy::SchedulerPollsPs)
//!     .build();
//! cluster.run(|node| {
//!     let me = node.self_id();
//!     let peer = ChanterId::new(1 - me.pe, 0, me.thread);
//!     if me.pe == 0 {
//!         node.send(peer, 7, b"hello, talking thread").unwrap();
//!     } else {
//!         let (info, body) = node.recv_from_thread(peer, 7).unwrap();
//!         assert_eq!(&body[..], b"hello, talking thread");
//!         assert_eq!(info.src, peer.address());
//!     }
//! });
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
mod cluster;
mod collective;
mod error;
pub mod flight;
mod id;
mod naming;
mod node;
pub(crate) mod ops;
mod poll;
pub mod ranges;
mod rsr;
pub mod telemetry;
pub mod wire;

pub use cluster::{ChantCluster, ClusterBuilder, ClusterReport, NodeReport};
pub use collective::ChantGroup;
pub use error::ChantError;
pub use id::ChanterId;
pub use naming::NamingMode;
pub use node::{ChantNode, ChantRecvHandle, MsgInfo, RecvSrc};
pub use ops::RemoteSpawnOptions;
pub use poll::PollingPolicy;
pub use rsr::{RetryPolicy, RsrCallHandle, RsrRequest, RsrStatsSnapshot, SERVER_FN_USER_BASE};

// Fault-injection and transport configuration, re-exported so cluster
// users can build lossy or multi-process worlds without depending on
// `chant_comm` directly.
pub use chant_comm::{
    FaultConfig, FaultStats, FaultStatsSnapshot, TcpOptions, TransportConfig,
    TransportStatsSnapshot,
};

#[cfg(test)]
mod tests;
