//! One-sided remote memory: behavioural tests.
//!
//! The RMA layer rides the remote-service-request machinery, so these
//! tests exercise the properties that layering must preserve: typed
//! errors crossing the wire, blocking completion through every polling
//! policy without monopolising the processor, nonblocking handles with
//! bounded waits, and atomicity of concurrent `fetch_add` streams
//! (verified by a sum-and-permutation check on the returned old
//! values). The stateless suites expand through `for_each_transport!`
//! so every backend carries one-sided traffic, not just the in-process
//! oracle.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chant::chant::{ChantCluster, ChantError, ChantGroup, ChantNode, PollingPolicy};
use chant::comm::{Address, FaultConfig};
use chant::rma::{with_rma, RmaNode, RmaResult};
use chant::ult::SpawnAttr;
use common::{for_each_transport, Backend};

/// Every message held for `ms` milliseconds: a constant hold, so each
/// link stays FIFO.
fn flight_time(ms: u64) -> FaultConfig {
    let mut config = FaultConfig::new(1).delay_p(1.0);
    config.delay_ns = (ms * 1_000_000, ms * 1_000_000);
    config
}

/// Everyone registers `seg` at `size` bytes, then synchronises so no
/// access can race a registration (segment ids are agreed out of band,
/// like MPI window handles).
fn register_all(node: &Arc<ChantNode>, seg: u32, size: usize, color: u8) -> ChantGroup {
    node.rma_register(seg, size);
    common::main_group(node, color)
}

// ---------------------------------------------------------------------
// Get/put roundtrip, remote and local fast path
// ---------------------------------------------------------------------

for_each_transport!(get_put_roundtrip_remote_and_local, |backend: Backend| {
    let cluster = with_rma(ChantCluster::builder().pes(2).transport(backend.config())).build();
    cluster.run(|node| {
        let group = register_all(node, 1, 64, 0);
        let me = node.self_id();
        if me.pe == 0 {
            let peer = Address::new(1, 0);
            // Remote put, then read it back remotely and locally-on-peer.
            node.rma_put(peer, 1, 8, b"one-sided").unwrap();
            assert_eq!(&node.rma_get(peer, 1, 8, 9).unwrap()[..], b"one-sided");
            // Untouched bytes stay zero-initialised.
            assert_eq!(&node.rma_get(peer, 1, 0, 8).unwrap()[..], &[0u8; 8]);

            // Local fast path: same API against this node's own address.
            node.rma_put(node.address(), 1, 0, b"local").unwrap();
            assert_eq!(&node.rma_get(node.address(), 1, 0, 5).unwrap()[..], b"local");
        }
        group.barrier(node).unwrap();
        if me.pe == 1 {
            // The owner observes the remote put through its own segment.
            let seg = node.rma_segment(1).unwrap();
            assert_eq!(&seg.read(8, 9).unwrap()[..], b"one-sided");
        }
    });
});

// ---------------------------------------------------------------------
// Typed errors survive the wire
// ---------------------------------------------------------------------

#[test]
fn rma_errors_cross_the_wire_typed() {
    let cluster = with_rma(ChantCluster::builder().pes(2)).build();
    cluster.run(|node| {
        let group = register_all(node, 2, 16, 0);
        if node.self_id().pe == 0 {
            let peer = Address::new(1, 0);
            // Never-registered segment id.
            assert_eq!(
                node.rma_get(peer, 99, 0, 1).unwrap_err(),
                ChantError::NoSuchSegment(99)
            );
            // Out of bounds, with the remote segment's actual size.
            assert_eq!(
                node.rma_get(peer, 2, 8, 16).unwrap_err(),
                ChantError::RmaOutOfBounds {
                    seg: 2,
                    offset: 8,
                    len: 16,
                    size: 16
                }
            );
            assert_eq!(
                node.rma_put(peer, 2, 17, b"x").unwrap_err(),
                ChantError::RmaOutOfBounds {
                    seg: 2,
                    offset: 17,
                    len: 1,
                    size: 16
                }
            );
            // Misaligned atomic.
            assert_eq!(
                node.rma_fetch_add(peer, 2, 3, 1).unwrap_err(),
                ChantError::RmaMisaligned { offset: 3 }
            );
            // A failed op must leave the segment untouched.
            assert_eq!(&node.rma_get(peer, 2, 0, 16).unwrap()[..], &[0u8; 16]);
        }
        group.barrier(node).unwrap();
    });
}

// ---------------------------------------------------------------------
// Blocking RMA under every polling policy
// ---------------------------------------------------------------------

/// A blocking RMA wait must block only the calling thread: with message
/// flight time imposed, a compute thread sharing the VP has to make
/// progress while the RMA is in the air — under all four policies.
#[test]
fn blocking_rma_shares_the_processor_under_all_policies() {
    for policy in PollingPolicy::ALL {
        let cluster = with_rma(
            ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .faults(flight_time(3)), // 3 ms each way
        )
        .build();
        cluster.run(move |node| {
            let group = register_all(node, 3, 32, 0);
            if node.self_id().pe == 0 {
                let peer = Address::new(1, 0);
                let progressed = Arc::new(AtomicU64::new(0));
                let stop = Arc::new(AtomicBool::new(false));
                let (p2, s2) = (Arc::clone(&progressed), Arc::clone(&stop));
                node.spawn(SpawnAttr::new().name("compute"), move |n| {
                    while !s2.load(Ordering::SeqCst) {
                        p2.fetch_add(1, Ordering::SeqCst);
                        n.yield_now();
                    }
                });

                node.rma_put(peer, 3, 0, &7u64.to_le_bytes()).unwrap();
                assert_eq!(node.rma_fetch_add(peer, 3, 0, 5).unwrap(), 7);
                assert_eq!(node.rma_compare_swap(peer, 3, 0, 12, 100).unwrap(), 12);
                assert_eq!(
                    &node.rma_get(peer, 3, 0, 8).unwrap()[..],
                    &100u64.to_le_bytes()
                );

                stop.store(true, Ordering::SeqCst);
                assert!(
                    progressed.load(Ordering::SeqCst) > 0,
                    "[{policy:?}] compute thread starved during blocking RMA"
                );
            }
            group.barrier(node).unwrap();
        });
    }
}

// ---------------------------------------------------------------------
// Nonblocking handles: test / wait_timeout / wait
// ---------------------------------------------------------------------

#[test]
fn nonblocking_handles_and_wait_timeout_under_all_policies() {
    for policy in PollingPolicy::ALL {
        let cluster = with_rma(
            ChantCluster::builder()
                .pes(2)
                .policy(policy)
                // 25 ms each way: a 5 ms bounded wait must expire well
                // before the reply can possibly be back.
                .faults(flight_time(25)),
        )
        .build();
        cluster.run(move |node| {
            let group = register_all(node, 4, 16, 0);
            if node.self_id().pe == 0 {
                let peer = Address::new(1, 0);
                let h = node.rma_ifetch_add(peer, 4, 0, 9).unwrap();
                assert!(h.take().is_none(), "[{policy:?}] completed with 50ms in flight");
                match h.wait_timeout(node, Duration::from_millis(5)) {
                    Err(ChantError::Timeout) => {}
                    other => panic!("[{policy:?}] expected Timeout, got {other:?}"),
                }
                // The handle survives the timeout: a full wait completes.
                assert_eq!(h.wait(node).unwrap(), RmaResult::Old(0));
                assert!(h.test(node), "[{policy:?}] complete after wait");
                assert_eq!(h.take().unwrap().unwrap(), RmaResult::Old(0));
                // A wait on an already-complete handle is immediate.
                assert_eq!(h.wait_timeout(node, Duration::ZERO), Ok(()));

                // Overlap: several gets in flight at once, harvested by
                // polling `test` like a set of ordinary receives.
                node.rma_put(peer, 4, 8, b"overlap!").unwrap();
                let handles: Vec<_> = (0..4u64)
                    .map(|i| node.rma_iget(peer, 4, 8 + i, 1).unwrap())
                    .collect();
                let mut done = vec![false; handles.len()];
                while !done.iter().all(|d| *d) {
                    for (i, h) in handles.iter().enumerate() {
                        if !done[i] && h.test(node) {
                            let got = h.take().unwrap().unwrap().into_bytes();
                            assert_eq!(got[0], b"overlap!"[i]);
                            done[i] = true;
                        }
                    }
                    node.yield_now();
                }
            }
            group.barrier(node).unwrap();
        });
    }
}

// ---------------------------------------------------------------------
// Atomicity: concurrent fetch_add streams
// ---------------------------------------------------------------------

// Clients on both nodes hammer one cell with `fetch_add(1)`. Atomicity
// and exactly-once execution mean the returned "old" values, pooled
// across all clients, are a permutation of `0..N` — any lost, doubled,
// or torn update breaks the permutation — and the final cell value is
// exactly `N`.
for_each_transport!(concurrent_fetch_add_is_a_permutation, |backend: Backend| {
    const CLIENTS_PER_NODE: usize = 3;
    const ADDS_PER_CLIENT: u64 = 20;
    const TOTAL: u64 = 2 * CLIENTS_PER_NODE as u64 * ADDS_PER_CLIENT;

    let observed = Arc::new(Mutex::new(Vec::new()));
    let obs2 = Arc::clone(&observed);
    let cluster = with_rma(ChantCluster::builder().pes(2).transport(backend.config())).build();
    cluster.run(move |node| {
        let group = register_all(node, 5, 8, 0);
        let home = Address::new(0, 0);
        for _ in 0..CLIENTS_PER_NODE {
            let obs = Arc::clone(&obs2);
            node.spawn(SpawnAttr::new(), move |n| {
                let mut mine = Vec::with_capacity(ADDS_PER_CLIENT as usize);
                for _ in 0..ADDS_PER_CLIENT {
                    mine.push(n.rma_fetch_add(home, 5, 0, 1).unwrap());
                }
                obs.lock().unwrap().extend(mine);
            });
        }
        group.barrier(node).unwrap();
    });

    let mut olds = observed.lock().unwrap().clone();
    assert_eq!(olds.len() as u64, TOTAL);
    olds.sort_unstable();
    let expect: Vec<u64> = (0..TOTAL).collect();
    assert_eq!(
        olds, expect,
        "[{backend:?}] old values are not a permutation of 0..N"
    );
    assert_eq!(
        cluster
            .node(0, 0)
            .rma_segment(5)
            .unwrap()
            .load(0)
            .unwrap(),
        TOTAL
    );
});

// ---------------------------------------------------------------------
// compare_swap semantics
// ---------------------------------------------------------------------

for_each_transport!(compare_swap_success_and_failure, |backend: Backend| {
    let cluster = with_rma(ChantCluster::builder().pes(2).transport(backend.config())).build();
    cluster.run(|node| {
        let group = register_all(node, 6, 8, 0);
        if node.self_id().pe == 0 {
            let peer = Address::new(1, 0);
            assert_eq!(node.rma_compare_swap(peer, 6, 0, 0, 41).unwrap(), 0);
            // Mismatch: returns the current value, leaves it in place.
            assert_eq!(node.rma_compare_swap(peer, 6, 0, 7, 99).unwrap(), 41);
            assert_eq!(
                &node.rma_get(peer, 6, 0, 8).unwrap()[..],
                &41u64.to_le_bytes()
            );
        }
        group.barrier(node).unwrap();
    });
});

// ---------------------------------------------------------------------
// Unregistration
// ---------------------------------------------------------------------

for_each_transport!(unregistered_segment_rejects_later_ops, |backend: Backend| {
    let cluster = with_rma(ChantCluster::builder().pes(2).transport(backend.config())).build();
    cluster.run(|node| {
        let group = register_all(node, 7, 8, 0);
        let me = node.self_id();
        if me.pe == 0 {
            node.rma_put(Address::new(1, 0), 7, 0, b"x").unwrap();
        }
        group.barrier(node).unwrap();
        if me.pe == 1 {
            assert!(node.rma_unregister(7));
            assert!(!node.rma_unregister(7));
        }
        group.barrier(node).unwrap();
        if me.pe == 0 {
            assert_eq!(
                node.rma_get(Address::new(1, 0), 7, 0, 1).unwrap_err(),
                ChantError::NoSuchSegment(7)
            );
        }
        group.barrier(node).unwrap();
    });
});
