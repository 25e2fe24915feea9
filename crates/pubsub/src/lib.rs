//! Topic-based publish/subscribe for Chant.
//!
//! The paper's threads talk point to point; a runtime substrate also
//! needs one-to-many delivery (the gap the AMT-communication literature
//! flags between a message library and a runtime). This crate adds it
//! without touching the core wire format: a **topic** is a `u64`; its
//! **home node** is a deterministic function of the topic id; and every
//! publish travels as a [`chant_comm::kind::PUBSUB`] frame — first to
//! the home, then down a k-ary **fan-out tree** over the topic's
//! subscriber nodes, so each inter-process link carries the publish
//! once and the last hop fans out locally to however many subscriber
//! threads the node hosts.
//!
//! Three reliability regimes coexist, mirroring atm0s-sdn's
//! relay/Publisher/Consumer design:
//!
//! * **Control is exactly-once**: subscribe/unsubscribe ride
//!   [`ChantNode::rsr_call`](chant_core::ChantNode::rsr_call) (retried,
//!   deduplicated server-side), and the updates themselves are
//!   idempotent — a node asserts its *absolute* subscriber count with a
//!   monotonic version, so replays and reorders cannot corrupt the
//!   registry.
//! * **Data is at-least-once, deduplicated**: every tree edge is
//!   acknowledged hop by hop and retransmitted on timeout; each node
//!   checks every data frame once, against a replay window per
//!   `(topic, origin)` (the highest seq seen plus a bitmap of the 1 024
//!   below it), before it delivers or forwards, so the seeded fault
//!   shim's drops/dups/reorders are absorbed. A frame older than the
//!   window is dropped and counted (`pubsub.stale_dropped`). A local
//!   subscriber is a queue and a waiter slot under the node's lock: a
//!   delivery pushes the message and wakes the waiting thread.
//! * **Membership self-heals**: each node's relay daemon periodically
//!   re-asserts its counts to every home (à la
//!   `PUBSUB_CHANNEL_RESYNC_MS`), and homes expire registrants they
//!   have not heard from, so lost unsubscribes and crashed nodes age
//!   out.
//!
//! Build the service into a cluster with [`with_pubsub`] (or
//! [`with_pubsub_config`]), then use the [`PubsubNode`] extension trait
//! from any node:
//!
//! ```
//! use chant_core::{ChantGroup, ChanterId};
//! use chant_pubsub::{with_pubsub, PubsubNode};
//!
//! let cluster = with_pubsub(chant_core::ChantCluster::builder().pes(2)).build();
//! cluster.run(|node| {
//!     // Rendezvous after subscribing, so the publish cannot race the
//!     // subscription (registration is not globally synchronous,
//!     // exactly like RMA segment registration).
//!     let sub = (node.pe() == 1).then(|| node.subscribe(7).unwrap());
//!     let me = node.self_id();
//!     let members = (0..2).map(|pe| ChanterId::new(pe, 0, me.thread)).collect();
//!     ChantGroup::new(node, members, 0).unwrap().barrier(node).unwrap();
//!     if let Some(sub) = sub {
//!         let msg = sub.recv().unwrap();
//!         assert_eq!(&msg.payload[..], b"hello");
//!     } else {
//!         node.publish_str(7, "hello").unwrap();
//!     }
//! });
//! ```

mod node;
mod state;
pub mod tree;
pub mod wire;

pub use node::{home_of, with_pubsub, with_pubsub_config, PubsubNode, Subscriber};
pub use state::{PubsubConfig, PubsubMsg, PubsubStatsSnapshot};
pub use wire::topic_tag;
