//! Cross-crate integration tests: whole-system scenarios that span the
//! thread package, the message layer, the Chant runtime, and (where
//! useful) the simulator — the kind of programs a Chant user would write.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use chant::chant::{api, ChantCluster, ChantError, ChanterId, NamingMode, PollingPolicy, RecvSrc};
use chant::comm::Address;
use chant::ult::SpawnAttr;

/// A four-node cluster where every node both serves RSRs and runs
/// computation threads that message across nodes — all layers at once.
#[test]
fn four_nodes_mixed_p2p_and_rsr() {
    const FN_ACC: u32 = 1000;
    let cluster = ChantCluster::builder()
        .pes(4)
        .policy(PollingPolicy::SchedulerPollsPs)
        .rsr_handler(FN_ACC, |node, req| {
            // Accumulate into the node-local store under a counter key.
            let add = u32::from_le_bytes(req.args[..4].try_into().unwrap());
            let old = node
                .local_fetch("acc")
                .map(|b| u32::from_le_bytes(b[..4].try_into().unwrap()))
                .unwrap_or(0);
            node.local_store("acc", &(old + add).to_le_bytes());
            Ok(Bytes::new())
        })
        .build();

    let sent = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&sent);
    cluster.run(move |node| {
        let me = node.self_id();
        let n_pes = node.world().pes();
        // Ring p2p: send to next PE's main, receive from previous.
        let next = ChanterId::new((me.pe + 1) % n_pes, 0, me.thread);
        node.send(next, 9, &me.pe.to_le_bytes()).unwrap();
        let (_, body) = node.recv_tag(9).unwrap();
        let from_pe = u32::from_le_bytes(body[..4].try_into().unwrap());
        assert_eq!(from_pe, (me.pe + n_pes - 1) % n_pes);

        // Every node pushes its pe+1 into node 0's accumulator via RSR.
        node.rsr_call(Address::new(0, 0), FN_ACC, &(me.pe + 1).to_le_bytes())
            .unwrap();
        s2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(sent.load(Ordering::Relaxed), 4);
    // 1+2+3+4 accumulated on node 0.
    let acc = cluster.node(0, 0).local_fetch("acc").unwrap();
    assert_eq!(u32::from_le_bytes(acc[..4].try_into().unwrap()), 10);
}

/// Remote-spawned workers fan out across all nodes, each messaging its
/// creator directly, and the creator joins all of them.
#[test]
fn remote_worker_fanout_and_join() {
    let cluster = ChantCluster::builder()
        .pes(3)
        .entry("worker", |node, arg| {
            let mut r = arg.to_vec();
            // arg = creator (pe, thread); send it our pe, return a value.
            let pe = u32::from_le_bytes(r[0..4].try_into().unwrap());
            let thread = u32::from_le_bytes(r[4..8].try_into().unwrap());
            let creator = ChanterId::new(pe, 0, thread);
            node.send(creator, 42, &node.pe().to_le_bytes()).unwrap();
            r.rotate_left(1);
            Bytes::from(r)
        })
        .build();

    cluster.run(|node| {
        if node.pe() != 0 {
            return;
        }
        let me = node.self_id();
        let mut arg = Vec::new();
        arg.extend_from_slice(&me.pe.to_le_bytes());
        arg.extend_from_slice(&me.thread.to_le_bytes());

        let mut ids = Vec::new();
        for pe in 0..3 {
            for _ in 0..2 {
                ids.push(
                    node.remote_spawn(Address::new(pe, 0), "worker", &arg)
                        .unwrap(),
                );
            }
        }
        // Six hellos arrive (any order), then six joins succeed.
        let mut seen = [0u32; 3];
        for _ in 0..6 {
            let (_, body) = node.recv_tag(42).unwrap();
            let pe = u32::from_le_bytes(body[..4].try_into().unwrap());
            seen[pe as usize] += 1;
        }
        assert_eq!(seen, [2, 2, 2]);
        for id in ids {
            let v = node.remote_join(id).unwrap();
            assert_eq!(v.len(), arg.len());
        }
    });
}

/// The same program must behave identically under both naming modes,
/// as long as it stays within TagOverload's restrictions.
#[test]
fn naming_modes_are_interchangeable_for_portable_programs() {
    for naming in [NamingMode::Communicator, NamingMode::TagOverload] {
        let total = Arc::new(AtomicU32::new(0));
        let t2 = Arc::clone(&total);
        let cluster = ChantCluster::builder()
            .pes(2)
            .naming(naming)
            .server(false)
            .build();
        cluster.run(move |node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            for round in 0..30u32 {
                // Portable subset: explicit tags, process-level sources.
                let tag = (round % 7 + 1) as i32;
                if me.pe == 0 {
                    node.send(peer, tag, &round.to_le_bytes()).unwrap();
                    let (_, b) = node.recv_tag(tag).unwrap();
                    assert_eq!(u32::from_le_bytes(b[..4].try_into().unwrap()), round + 1);
                } else {
                    let (_, b) = node.recv_tag(tag).unwrap();
                    let v = u32::from_le_bytes(b[..4].try_into().unwrap());
                    node.send(peer, tag, &(v + 1).to_le_bytes()).unwrap();
                    t2.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 30, "{naming:?}");
    }
}

/// Many-to-one: a sink thread receives from every thread of every node
/// with wildcard receives, while senders identify themselves in bodies.
#[test]
fn many_to_one_sink() {
    let cluster = ChantCluster::builder().pes(3).server(false).build();
    cluster.run(|node| {
        let me = node.self_id();
        let sink = ChanterId::new(0, 0, me.thread); // node 0's main
        if me.pe == 0 {
            let mut total = 0u32;
            for _ in 0..(2 * 5) {
                let (info, body) = node.recv(RecvSrc::Any, Some(5)).unwrap();
                assert!(info.src.pe > 0);
                total += u32::from_le_bytes(body[..4].try_into().unwrap());
            }
            assert_eq!(total, (1 + 2) * 5); // each pe sends its id 5 times
        } else {
            for _ in 0..5 {
                node.send(sink, 5, &me.pe.to_le_bytes()).unwrap();
            }
        }
    });
}

/// Cancellation across address spaces: a runaway remote thread is
/// cancelled and its joiner observes the cancellation.
#[test]
fn cross_node_cancellation() {
    let spun = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&spun);
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("runaway", move |node, _| {
            loop {
                s2.fetch_add(1, Ordering::Relaxed);
                node.yield_now();
            }
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let id = node
                .remote_spawn(Address::new(1, 0), "runaway", b"")
                .unwrap();
            // Let it spin a little, then kill it from across the cluster.
            for _ in 0..50 {
                node.yield_now();
            }
            node.remote_cancel(id).unwrap();
            match node.remote_join(id) {
                Err(ChantError::Remote(msg)) => assert!(msg.contains("cancelled")),
                other => panic!("expected cancellation, got {other:?}"),
            }
        }
    });
    assert!(spun.load(Ordering::Relaxed) > 0, "runaway must have run");
}

/// The Appendix-A API and the idiomatic API interoperate in one program.
#[test]
fn appendix_a_and_idiomatic_apis_mix() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(|node| {
        let me = api::pthread_chanter_self().unwrap();
        assert!(api::pthread_chanter_equal(&me, &node.self_id()));
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            api::pthread_chanter_send(3, b"mixed", &peer).unwrap();
            let (_, body) = node.recv_tag(4).unwrap(); // idiomatic recv
            assert_eq!(&body[..], b"styles");
        } else {
            let (_, body) = api::pthread_chanter_recv(3, None).unwrap();
            assert_eq!(&body[..], b"mixed");
            node.send(peer, 4, b"styles").unwrap(); // idiomatic send
        }
    });
}

/// Stress: 4 nodes x 8 threads x 20 iterations of all-pairs-ish traffic
/// under every policy; everything must complete and conserve messages.
#[test]
fn stress_all_policies() {
    for policy in PollingPolicy::ALL {
        let cluster = ChantCluster::builder()
            .pes(4)
            .policy(policy)
            .server(false)
            .build();
        let report = cluster.run(|node| {
            let mut ids = Vec::new();
            for i in 0..8u32 {
                ids.push(node.spawn(SpawnAttr::new(), move |n| {
                    let me = n.self_id();
                    let n_pes = n.world().pes();
                    for round in 0..20u32 {
                        let dst_pe = (me.pe + 1 + (round + i) % (n_pes - 1)) % n_pes;
                        let dst = ChanterId::new(dst_pe, 0, me.thread);
                        let tag = (i + 1) as i32;
                        n.send(dst, tag, &round.to_le_bytes()).unwrap();
                        let (_, body) = n.recv_tag(tag).unwrap();
                        assert_eq!(body.len(), 4);
                    }
                }));
            }
            for id in ids {
                node.remote_join(id).unwrap();
            }
        });
        let sends: u64 = report.nodes.iter().map(|n| n.comm.sends).sum();
        // 4 nodes x 8 threads x 20 rounds of data, plus the termination
        // barrier traffic.
        assert!(sends >= 640, "{policy:?}: sends = {sends}");
    }
}

/// Exit values propagate through pthread_chanter_exit, normal returns,
/// and panics, each distinguishable by the joiner.
#[test]
fn exit_value_variants() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("returns", |_n, _| Bytes::from_static(b"returned"))
        .entry("exits", |_n, _| api::pthread_chanter_exit(b"exited"))
        .entry("panics", |_n, _| panic!("exploded"))
        .build();
    cluster.run(|node| {
        if node.pe() != 0 {
            return;
        }
        let dst = Address::new(1, 0);
        let a = node.remote_spawn(dst, "returns", b"").unwrap();
        assert_eq!(&node.remote_join(a).unwrap()[..], b"returned");

        let b = node.remote_spawn(dst, "exits", b"").unwrap();
        assert_eq!(&node.remote_join(b).unwrap()[..], b"exited");

        let c = node.remote_spawn(dst, "panics", b"").unwrap();
        match node.remote_join(c) {
            Err(ChantError::Remote(msg)) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected panic report, got {other:?}"),
        }
    });
}

/// Simulator and live runtime agree on structural signatures: under the
/// WQ policy both attribute most message tests to the scheduler's scan.
#[test]
fn sim_and_live_agree_on_wq_signature() {
    // Live side.
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(PollingPolicy::SchedulerPollsWq)
        .server(false)
        .build();
    let live = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        for _ in 0..10 {
            if me.pe == 0 {
                for _ in 0..50 {
                    node.yield_now(); // delay so the peer's recv blocks
                }
                node.send(peer, 1, b"x").unwrap();
                node.recv_tag(2).unwrap();
            } else {
                node.recv_tag(1).unwrap();
                node.send(peer, 2, b"y").unwrap();
            }
        }
    });
    let live_tests: u64 = live.nodes.iter().map(|n| n.comm.msgtests).sum();
    let live_recvs: u64 = live.nodes.iter().map(|n| n.comm.recvs_posted).sum();
    assert!(
        live_tests > live_recvs,
        "WQ must test more than once per receive: {live_tests} vs {live_recvs}"
    );

    // Simulated side: same qualitative signature.
    let sim = chant::sim::experiments::polling_run(
        chant::sim::CostModel::paragon_polling(),
        PollingPolicy::SchedulerPollsWq,
        100,
        100,
        chant::sim::experiments::PollingConfig::default(),
    )
    .unwrap();
    assert!(sim.msgtest_attempted > sim.messages);
}

/// Live latency tolerance: with a wall-clock flight time on every
/// message, the same number of remote interactions completes much faster
/// when split over many threads — the paper's §1 motivation,
/// demonstrated on the real runtime rather than the simulator.
#[test]
fn live_latency_tolerance_overlaps_flight_time() {
    use chant::comm::FaultConfig;
    use std::time::Duration;

    fn run(threads: u32, per_thread: u32) -> Duration {
        let mut flight = FaultConfig::new(1).delay_p(1.0);
        flight.delay_ns = (3_000_000, 3_000_000); // 3 ms per message
        let cluster = ChantCluster::builder()
            .pes(2)
            .faults(flight)
            .server(false)
            .build();
        let report = cluster.run(move |node| {
            let mut ids = Vec::new();
            for i in 0..threads {
                ids.push(node.spawn(SpawnAttr::new(), move |n| {
                    let me = n.self_id();
                    let peer = ChanterId::new(1 - me.pe, 0, me.thread);
                    let tag = (i + 1) as i32;
                    for _ in 0..per_thread {
                        if me.pe == 0 {
                            n.send(peer, tag, b"req").unwrap();
                            n.recv_tag(tag).unwrap();
                        } else {
                            n.recv_tag(tag).unwrap();
                            n.send(peer, tag, b"rsp").unwrap();
                        }
                    }
                }));
            }
            for id in ids {
                node.remote_join(id).unwrap();
            }
        });
        report.elapsed
    }

    // Same total round trips (16), serial vs 8-way overlapped.
    let serial = run(1, 16);
    let overlapped = run(8, 2);
    assert!(
        overlapped < serial * 2 / 3,
        "8 threads must hide flight time: serial {serial:?}, overlapped {overlapped:?}"
    );
}
