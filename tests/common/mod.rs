//! Shared test support: the backend × seed × `CHANT_VPS` matrix in one
//! place.
//!
//! Every integration-test binary that wants the matrix declares
//! `mod common;` and pulls what it needs. The pieces:
//!
//! * [`Backend`] — the transports under test, each a one-line
//!   [`TransportConfig`] away;
//! * [`for_each_transport!`] — expands one scenario into a `#[test]`
//!   per backend, so a failure names the backend that diverged;
//! * [`fault_seed`] — the `CHANT_FAULT_SEED` knob CI's fault matrix
//!   pins;
//! * [`seeds`] — the `CHANT_VPS_SEED` sweep (default 1/7/42) the
//!   multi-VP and chaos suites iterate;
//! * [`main_group`] — the all-PEs barrier rendezvous used to fence
//!   setup (subscription, registration) from traffic.
//!
//! Each test binary compiles its own copy of this module and uses a
//! subset of it, hence the per-item `allow(dead_code)`.

use std::sync::Arc;

use chant::chant::{ChantGroup, ChantNode, ChanterId, TransportConfig};

/// The backends under test. `config()` is the only thing a test may
/// vary: everything observable above the transport must come out the
/// same.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(dead_code)]
pub enum Backend {
    InProcess,
    /// The socket backend (linux-only): every message through a real
    /// loopback socket, read by the scheduler lanes themselves.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    TcpEventLoopback,
}

impl Backend {
    #[allow(dead_code)]
    pub fn config(self) -> TransportConfig {
        match self {
            Backend::InProcess => TransportConfig::InProcess,
            Backend::TcpEventLoopback => TransportConfig::tcp_event_loopback(),
        }
    }
}

/// Fault-shim seed: `CHANT_FAULT_SEED` pins one (for the CI matrix),
/// else the test's default.
#[allow(dead_code)]
pub fn fault_seed(default: u64) -> u64 {
    std::env::var("CHANT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Seeds to sweep: `CHANT_VPS_SEED` pins one (for the CI matrix), else
/// the standard trio.
#[allow(dead_code)]
pub fn seeds() -> Vec<u64> {
    match std::env::var("CHANT_VPS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(s) => vec![s],
        None => vec![1, 7, 42],
    }
}

/// A group of every PE's main thread (process 0), already barriered:
/// the standard fence between per-node setup and the traffic that
/// assumes it (segment registration, topic subscription, …).
#[allow(dead_code)]
pub fn main_group(node: &Arc<ChantNode>, color: u8) -> ChantGroup {
    let me = node.self_id();
    let pes = node.world().pes();
    let members: Vec<_> = (0..pes).map(|pe| ChanterId::new(pe, 0, me.thread)).collect();
    let group = ChantGroup::new(node, members, color).unwrap();
    group.barrier(node).unwrap();
    group
}

/// Expand one conformance scenario into a `#[test]` per backend.
///
/// The body is any `Fn(Backend)`; the expansion lives in a module named
/// `$name`, so `cargo test $name::tcp_event` runs one backend of one
/// scenario.
#[allow(unused_macros)]
macro_rules! for_each_transport {
    ($name:ident, $body:expr) => {
        mod $name {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn inproc() {
                ($body)(crate::common::Backend::InProcess);
            }

            #[cfg(target_os = "linux")]
            #[test]
            fn tcp_event() {
                ($body)(crate::common::Backend::TcpEventLoopback);
            }
        }
    };
}
#[allow(unused_imports)]
pub(crate) use for_each_transport;
