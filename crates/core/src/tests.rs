//! Behavioural tests for the Chant runtime: point-to-point messaging
//! across nodes under every polling policy and naming mode, remote
//! service requests, and global thread operations.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use chant_ult::SpawnAttr;

use crate::{
    api, ChantCluster, ChantError, ChanterId, NamingMode, PollingPolicy, RecvSrc,
};

fn all_policies() -> [PollingPolicy; 4] {
    PollingPolicy::ALL
}

fn both_namings() -> [NamingMode; 2] {
    [NamingMode::Communicator, NamingMode::TagOverload]
}

// ---------------------------------------------------------------------
// Point-to-point among threads
// ---------------------------------------------------------------------

#[test]
fn pingpong_between_mains_all_policies_and_namings() {
    for policy in all_policies() {
        for naming in both_namings() {
            let cluster = ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .naming(naming)
                .server(false)
                .build();
            let hits = Arc::new(AtomicU32::new(0));
            let h2 = Arc::clone(&hits);
            cluster.run(move |node| {
                let me = node.self_id();
                let peer = ChanterId::new(1 - me.pe, 0, me.thread);
                for round in 0..20 {
                    if me.pe == 0 {
                        node.send(peer, 5, format!("msg{round}").as_bytes())
                            .unwrap();
                        let (_, body) = node.recv_tag(6).unwrap();
                        assert_eq!(&body[..], format!("ack{round}").as_bytes());
                    } else {
                        let (_, body) = node.recv_tag(5).unwrap();
                        assert_eq!(&body[..], format!("msg{round}").as_bytes());
                        node.send(peer, 6, format!("ack{round}").as_bytes())
                            .unwrap();
                        h2.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(
                hits.load(Ordering::Relaxed),
                20,
                "policy {policy:?}, naming {naming:?}"
            );
        }
    }
}

#[test]
fn many_threads_pairwise_exchange() {
    // The paper's Figure 9 shape: N threads per PE, each talking to its
    // partner on the other PE.
    for policy in all_policies() {
        let cluster = ChantCluster::builder()
            .pes(2)
            .policy(policy)
            .server(false)
            .build();
        let total = Arc::new(AtomicU64::new(0));
        let t2 = Arc::clone(&total);
        cluster.run(move |node| {
            let mut ids = Vec::new();
            for i in 0..6u32 {
                let t3 = Arc::clone(&t2);
                let id = node.spawn(SpawnAttr::new(), move |n| {
                    let me = n.self_id();
                    let peer = ChanterId::new(1 - me.pe, 0, me.thread);
                    for round in 0..10u32 {
                        let tag = (i + 1) as i32;
                        if me.pe == 0 {
                            n.send(peer, tag, &round.to_le_bytes()).unwrap();
                            let (_, body) = n.recv_tag(tag).unwrap();
                            let v = u32::from_le_bytes(body[..4].try_into().unwrap());
                            assert_eq!(v, round * 2);
                        } else {
                            let (_, body) = n.recv_tag(tag).unwrap();
                            let v = u32::from_le_bytes(body[..4].try_into().unwrap());
                            assert_eq!(v, round);
                            n.send(peer, tag, &(v * 2).to_le_bytes()).unwrap();
                        }
                        t3.fetch_add(1, Ordering::Relaxed);
                    }
                });
                ids.push(id);
            }
            for id in ids {
                node.remote_join(id).unwrap();
            }
        });
        // 2 PEs x 6 threads x 10 rounds
        assert_eq!(total.load(Ordering::Relaxed), 120, "policy {policy:?}");
    }
}

#[test]
fn thread_ids_partner_threads_do_not_cross_talk() {
    // Two threads on PE1 with the *same tag*; senders on PE0 address them
    // by thread id. Messages must reach exactly the named thread — the
    // paper's delivery requirement.
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(|node| {
        if node.pe() == 1 {
            let mut ids = Vec::new();
            for expect in [b"alpha".as_slice(), b"beta".as_slice()] {
                let expect = expect.to_vec();
                ids.push(node.spawn(SpawnAttr::new(), move |n| {
                    let (_, body) = n.recv_tag(9).unwrap();
                    assert_eq!(&body[..], &expect[..]);
                }));
            }
            node.send(
                ChanterId::new(0, 0, node.self_id().thread),
                100,
                &[ids[0].thread as u8, ids[1].thread as u8],
            )
            .unwrap();
            for id in ids {
                node.remote_join(id).unwrap();
            }
        } else {
            let (_, body) = node.recv_tag(100).unwrap();
            let t0 = ChanterId::new(1, 0, body[0] as u32);
            let t1 = ChanterId::new(1, 0, body[1] as u32);
            // Deliberately send to t1 first.
            node.send(t1, 9, b"beta").unwrap();
            node.send(t0, 9, b"alpha").unwrap();
        }
    });
}

#[test]
fn irecv_msgtest_msgwait_roundtrip() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            let handle = node.irecv(RecvSrc::Any, Some(3)).unwrap();
            assert!(!node.msgtest(&handle));
            node.send(peer, 2, b"go").unwrap();
            node.msgwait(&handle);
            let (info, body) = handle.take().unwrap();
            assert_eq!(&body[..], b"reply");
            assert_eq!(info.tag, 3);
            assert_eq!(info.src, peer.address());
        } else {
            let (_, body) = node.recv_tag(2).unwrap();
            assert_eq!(&body[..], b"go");
            node.send(peer, 3, b"reply").unwrap();
        }
    });
}

#[test]
fn communicator_mode_source_thread_selectivity() {
    // Two senders on PE0 send the same tag to one receiver on PE1, which
    // receives from each *specific* thread. Only Communicator naming can
    // do this (the source thread id is in the header).
    let cluster = ChantCluster::builder()
        .pes(2)
        .naming(NamingMode::Communicator)
        .server(false)
        .build();
    cluster.run(|node| {
        let main_peer = ChanterId::new(1 - node.pe(), 0, node.self_id().thread);
        if node.pe() == 0 {
            let a = node.spawn(SpawnAttr::new(), move |n| {
                let me = n.self_id();
                // Announce my id, then send my payload.
                n.send(main_peer, 50, &me.thread.to_le_bytes()).unwrap();
                n.send(main_peer, 7, b"from-a").unwrap();
            });
            let b = node.spawn(SpawnAttr::new(), move |n| {
                let me = n.self_id();
                n.send(main_peer, 51, &me.thread.to_le_bytes()).unwrap();
                n.send(main_peer, 7, b"from-b").unwrap();
            });
            node.remote_join(a).unwrap();
            node.remote_join(b).unwrap();
        } else {
            let (_, a_bytes) = node.recv_tag(50).unwrap();
            let (_, b_bytes) = node.recv_tag(51).unwrap();
            let a = ChanterId::new(0, 0, u32::from_le_bytes(a_bytes[..4].try_into().unwrap()));
            let b = ChanterId::new(0, 0, u32::from_le_bytes(b_bytes[..4].try_into().unwrap()));
            // Receive from B first even though A may have sent first.
            let (info_b, body_b) = node.recv_from_thread(b, 7).unwrap();
            assert_eq!(&body_b[..], b"from-b");
            assert_eq!(info_b.src_id(), Some(b));
            let (info_a, body_a) = node.recv_from_thread(a, 7).unwrap();
            assert_eq!(&body_a[..], b"from-a");
            assert_eq!(info_a.src_id(), Some(a));
        }
    });
}

#[test]
fn tag_overload_mode_rejects_unsupported_receives() {
    let cluster = ChantCluster::builder()
        .pes(1)
        .naming(NamingMode::TagOverload)
        .server(false)
        .build();
    cluster.run(|node| {
        // Wildcard tag: the tag field carries my thread id, NX matching
        // cannot say "upper bits mine, lower bits anything".
        match node.irecv(RecvSrc::Any, None) {
            Err(ChantError::AnyTagUnsupported) => {}
            other => panic!("expected AnyTagUnsupported, got {other:?}"),
        }
        // Source-thread selection: the source thread is not in the header.
        let some_thread = ChanterId::new(0, 0, 1);
        match node.irecv(RecvSrc::Thread(some_thread), Some(1)) {
            Err(ChantError::SrcThreadSelectionUnsupported) => {}
            other => panic!("expected SrcThreadSelectionUnsupported, got {other:?}"),
        }
        // Oversized tag: only half the tag space remains.
        match node.send(some_thread, 0x1_0000, b"") {
            Err(ChantError::TagOutOfRange { .. }) => {}
            other => panic!("expected TagOutOfRange, got {other:?}"),
        }
    });
}

#[test]
fn wildcard_tag_receive_in_communicator_mode() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            node.send(peer, 123, b"x").unwrap();
        } else {
            let (info, _) = node.recv(RecvSrc::Any, None).unwrap();
            assert_eq!(info.tag, 123);
        }
    });
}

#[test]
fn zero_copy_path_is_taken_for_posted_receives() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 1 {
            // Post the receive first, then ask for the message.
            let handle = node.irecv(RecvSrc::Any, Some(4)).unwrap();
            node.send(peer, 2, b"ready").unwrap();
            node.msgwait(&handle);
            handle.take().unwrap();
        } else {
            node.recv_tag(2).unwrap();
            node.send(peer, 4, b"payload").unwrap();
        }
    });
    let pe1 = &report.nodes[1];
    assert!(
        pe1.comm.posted_matches >= 1,
        "pre-posted receive must be matched on arrival: {:?}",
        pe1.comm
    );
}

// ---------------------------------------------------------------------
// Polling policies: observable scheduling behaviour
// ---------------------------------------------------------------------

#[test]
fn wq_policy_uses_scheduler_msgtests_while_threads_block() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(PollingPolicy::SchedulerPollsWq)
        .server(false)
        .build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            // Only send once PE1's compute thread is done, so PE1's
            // receiver stays blocked across all of its schedule points.
            node.recv_tag(3).unwrap();
            node.send(peer, 1, b"late").unwrap();
            node.recv_tag(2).unwrap();
        } else {
            // The scheduler polls "while other ready threads use the
            // processor" (§3.1): give PE1 one. (With nothing runnable
            // the lane sleeps and polls nothing.)
            node.spawn(SpawnAttr::new().name("compute"), move |n| {
                for _ in 0..200 {
                    n.yield_now();
                }
                n.send(peer, 3, b"computed").unwrap();
            });
            node.recv_tag(1).unwrap();
            node.send(peer, 2, b"ack").unwrap();
        }
    });
    let pe1 = &report.nodes[1];
    assert!(
        pe1.comm.msgtest_failures > 10,
        "scheduler should have polled many times: {:?}",
        pe1.comm
    );
}

#[test]
fn wq_testany_policy_counts_testany_not_msgtest() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(PollingPolicy::SchedulerPollsWqTestany)
        .server(false)
        .build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            node.recv_tag(3).unwrap();
            node.send(peer, 1, b"late").unwrap();
            node.recv_tag(2).unwrap();
        } else {
            // As above: polling happens at schedule points, and those
            // happen while something is runnable.
            node.spawn(SpawnAttr::new().name("compute"), move |n| {
                for _ in 0..200 {
                    n.yield_now();
                }
                n.send(peer, 3, b"computed").unwrap();
            });
            node.recv_tag(1).unwrap();
            node.send(peer, 2, b"ack").unwrap();
        }
    });
    let pe1 = &report.nodes[1];
    assert!(
        pe1.comm.testany_calls > 10,
        "testany must be the polling vehicle: {:?}",
        pe1.comm
    );
    // Only the initial eager msgtest per receive should appear.
    assert!(
        pe1.comm.msgtests <= 4,
        "per-request msgtests should be rare under testany: {:?}",
        pe1.comm
    );
}

#[test]
fn ps_policy_performs_partial_switches() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(PollingPolicy::SchedulerPollsPs)
        .server(false)
        .build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        // Two extra compute threads per node so the waiting TCB is
        // repeatedly examined and requeued.
        let mut ids = Vec::new();
        for _ in 0..2 {
            ids.push(node.spawn(SpawnAttr::new(), |n| {
                for _ in 0..200 {
                    n.yield_now();
                }
            }));
        }
        if me.pe == 0 {
            for _ in 0..500 {
                node.yield_now();
            }
            node.send(peer, 1, b"late").unwrap();
            node.recv_tag(2).unwrap();
        } else {
            node.recv_tag(1).unwrap();
            node.send(peer, 2, b"ack").unwrap();
        }
        for id in ids {
            node.remote_join(id).unwrap();
        }
    });
    assert!(
        report.counter("ult.partial_switches") > 0,
        "PS must requeue unready TCBs without full switches: {report:?}"
    );
}

#[test]
fn tp_policy_alone_on_node_self_redispatches() {
    // Paper §4.1: with a single thread per PE, TP's failed polls cost no
    // context switch — "the scheduler simply returns".
    let cluster = ChantCluster::builder()
        .pes(2)
        .policy(PollingPolicy::ThreadPolls)
        .server(false)
        .build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            for _ in 0..1000 {
                node.yield_now();
            }
            node.send(peer, 1, b"late").unwrap();
        } else {
            node.recv_tag(1).unwrap();
        }
    });
    let pe1 = &report.nodes[1];
    assert!(
        pe1.sched.self_redispatches > 10,
        "lone TP waiter must spin via self-redispatch: {:?}",
        pe1.sched
    );
}

// ---------------------------------------------------------------------
// Remote service requests
// ---------------------------------------------------------------------

#[test]
fn ping_round_trip() {
    let cluster = ChantCluster::builder().pes(2).build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let reply = node
                .ping(chant_comm::Address::new(1, 0), b"echo-me")
                .unwrap();
            assert_eq!(&reply[..], b"echo-me");
        }
    });
}

#[test]
fn remote_fetch_and_store() {
    let cluster = ChantCluster::builder().pes(2).build();
    cluster.run(|node| {
        let peer = chant_comm::Address::new(1 - node.pe(), 0);
        if node.pe() == 0 {
            node.local_store("local-key", b"on-pe0");
            // Store into the remote node, then read it back.
            node.remote_store(peer, "shared", b"written-by-pe0").unwrap();
            let v = node.remote_fetch(peer, "shared").unwrap();
            assert_eq!(&v[..], b"written-by-pe0");
            // Fetch of a missing key is a remote error.
            match node.remote_fetch(peer, "missing") {
                Err(ChantError::Remote(msg)) => assert!(msg.contains("missing")),
                other => panic!("expected Remote error, got {other:?}"),
            }
        }
    });
}

#[test]
fn custom_rsr_handler_runs_on_server_thread() {
    const FN_SUM: u32 = 1000;
    let cluster = ChantCluster::builder()
        .pes(2)
        .rsr_handler(FN_SUM, |_node, req| {
            let sum: u32 = req.args.iter().map(|b| *b as u32).sum();
            Ok(Bytes::copy_from_slice(&sum.to_le_bytes()))
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let reply = node
                .rsr_call(chant_comm::Address::new(1, 0), FN_SUM, &[1, 2, 3, 4])
                .unwrap();
            assert_eq!(u32::from_le_bytes(reply[..4].try_into().unwrap()), 10);
        }
    });
}

#[test]
fn unknown_rsr_function_reports_remote_error() {
    let cluster = ChantCluster::builder().pes(2).build();
    cluster.run(|node| {
        if node.pe() == 0 {
            match node.rsr_call(chant_comm::Address::new(1, 0), 9999, b"") {
                Err(ChantError::Remote(msg)) => assert!(msg.contains("9999")),
                other => panic!("expected remote error, got {other:?}"),
            }
        }
    });
}

#[test]
fn rsr_from_many_threads_concurrently() {
    const FN_DOUBLE: u32 = 1001;
    let cluster = ChantCluster::builder()
        .pes(2)
        .rsr_handler(FN_DOUBLE, |_n, req| {
            let v = u32::from_le_bytes(req.args[..4].try_into().unwrap());
            Ok(Bytes::copy_from_slice(&(v * 2).to_le_bytes()))
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let mut ids = Vec::new();
            for i in 0..8u32 {
                ids.push(node.spawn(SpawnAttr::new(), move |n| {
                    let reply = n
                        .rsr_call(chant_comm::Address::new(1, 0), FN_DOUBLE, &i.to_le_bytes())
                        .unwrap();
                    assert_eq!(
                        u32::from_le_bytes(reply[..4].try_into().unwrap()),
                        i * 2
                    );
                }));
            }
            for id in ids {
                node.remote_join(id).unwrap();
            }
        }
    });
}

// ---------------------------------------------------------------------
// Global thread operations
// ---------------------------------------------------------------------

#[test]
fn remote_spawn_and_join_returns_entry_value() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("square", |_node, arg| {
            let v = u32::from_le_bytes(arg[..4].try_into().unwrap());
            Bytes::copy_from_slice(&(v * v).to_le_bytes())
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let id = node
                .remote_spawn(chant_comm::Address::new(1, 0), "square", &7u32.to_le_bytes())
                .unwrap();
            assert_eq!(id.pe, 1);
            let value = node.remote_join(id).unwrap();
            assert_eq!(u32::from_le_bytes(value[..4].try_into().unwrap()), 49);
        }
    });
}

#[test]
fn remote_spawned_thread_can_talk_back() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("reporter", |node, arg| {
            // arg = the requesting thread's id; send it a message.
            let pe = u32::from_le_bytes(arg[0..4].try_into().unwrap());
            let thread = u32::from_le_bytes(arg[4..8].try_into().unwrap());
            node.send(ChanterId::new(pe, 0, thread), 77, b"hello from remote")
                .unwrap();
            Bytes::new()
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let me = node.self_id();
            let mut arg = Vec::new();
            arg.extend_from_slice(&me.pe.to_le_bytes());
            arg.extend_from_slice(&me.thread.to_le_bytes());
            let id = node
                .remote_spawn(chant_comm::Address::new(1, 0), "reporter", &arg)
                .unwrap();
            let (_, body) = node.recv_tag(77).unwrap();
            assert_eq!(&body[..], b"hello from remote");
            node.remote_join(id).unwrap();
        }
    });
}

#[test]
fn remote_join_before_exit_defers_reply() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("slow", |node, _| {
            for _ in 0..300 {
                node.yield_now();
            }
            Bytes::from_static(b"slow-done")
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let id = node
                .remote_spawn(chant_comm::Address::new(1, 0), "slow", b"")
                .unwrap();
            // Join immediately: the target is still yielding, so the JOIN
            // reply must be deferred until it exits.
            let value = node.remote_join(id).unwrap();
            assert_eq!(&value[..], b"slow-done");
        }
    });
}

#[test]
fn second_join_sees_already_joined() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("quick", |_n, _| Bytes::from_static(b"v"))
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let id = node
                .remote_spawn(chant_comm::Address::new(1, 0), "quick", b"")
                .unwrap();
            node.remote_join(id).unwrap();
            match node.remote_join(id) {
                Err(ChantError::Remote(msg)) => assert!(msg.contains("joined")),
                other => panic!("expected AlreadyJoined via remote, got {other:?}"),
            }
        }
    });
}

#[test]
fn join_unknown_thread_errors() {
    let cluster = ChantCluster::builder().pes(2).build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let bogus = ChanterId::new(1, 0, 4242);
            match node.remote_join(bogus) {
                Err(ChantError::Remote(msg)) => assert!(msg.contains("4242")),
                other => panic!("expected remote NoSuchThread, got {other:?}"),
            }
        }
    });
}

#[test]
fn remote_cancel_stops_a_spinning_thread() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("spinner", |node, _| {
            loop {
                node.yield_now(); // cancellation point
            }
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let id = node
                .remote_spawn(chant_comm::Address::new(1, 0), "spinner", b"")
                .unwrap();
            node.remote_cancel(id).unwrap();
            match node.remote_join(id) {
                Err(ChantError::Remote(msg)) => assert!(msg.contains("cancelled")),
                other => panic!("expected cancelled, got {other:?}"),
            }
        }
    });
}

#[test]
fn spawn_unknown_entry_errors() {
    let cluster = ChantCluster::builder().pes(2).build();
    cluster.run(|node| {
        if node.pe() == 0 {
            match node.remote_spawn(chant_comm::Address::new(1, 0), "nope", b"") {
                Err(ChantError::Remote(msg)) => assert!(msg.contains("nope")),
                other => panic!("expected unknown entry, got {other:?}"),
            }
        }
    });
}

#[test]
fn local_spawn_join_without_server() {
    let cluster = ChantCluster::builder().pes(1).server(false).build();
    cluster.run(|node| {
        let id = node.spawn_chanter(SpawnAttr::new(), |_n| Bytes::from_static(b"local"));
        let v = node.remote_join(id).unwrap();
        assert_eq!(&v[..], b"local");
    });
}

// ---------------------------------------------------------------------
// The Appendix-A interface
// ---------------------------------------------------------------------

#[test]
fn pthread_chanter_interface_end_to_end() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("greet", |_n, arg| {
            let mut v = b"hi ".to_vec();
            v.extend_from_slice(&arg);
            Bytes::from(v)
        })
        .build();
    cluster.run(|node| {
        let me = api::pthread_chanter_self().unwrap();
        assert_eq!(api::pthread_chanter_pe(&me), node.pe());
        assert_eq!(api::pthread_chanter_process(&me), 0);
        assert_eq!(api::pthread_chanter_pthread(&me), me.thread);
        assert!(api::pthread_chanter_equal(&me, &me));

        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        assert!(!api::pthread_chanter_equal(&me, &peer));
        api::pthread_chanter_yield().unwrap();

        if me.pe == 0 {
            api::pthread_chanter_send(11, b"over", &peer).unwrap();
            let (info, body) = api::pthread_chanter_recv(12, None).unwrap();
            assert_eq!(&body[..], b"back");
            assert_eq!(info.src, peer.address());

            let t = api::pthread_chanter_create(1, 0, "greet", b"bob").unwrap();
            let v = api::pthread_chanter_join(&t).unwrap();
            assert_eq!(&v[..], b"hi bob");
        } else {
            let h = api::pthread_chanter_irecv(11, None).unwrap();
            api::pthread_chanter_msgwait(&h).unwrap();
            assert!(api::pthread_chanter_msgtest(&h).unwrap());
            let (_, body) = h.take().unwrap();
            assert_eq!(&body[..], b"over");
            api::pthread_chanter_send(12, b"back", &peer).unwrap();
        }
    });
}

#[test]
fn pthread_chanter_exit_value_reaches_joiner() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("early-exit", |_n, _| {
            api::pthread_chanter_exit(b"exited-early");
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let t = api::pthread_chanter_create(1, 0, "early-exit", b"").unwrap();
            let v = api::pthread_chanter_join(&t).unwrap();
            assert_eq!(&v[..], b"exited-early");
        }
    });
}

#[test]
fn api_outside_chant_context_errors() {
    match api::pthread_chanter_self() {
        Err(ChantError::NotChantContext) => {}
        other => panic!("expected NotChantContext, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Cluster shapes and reports
// ---------------------------------------------------------------------

#[test]
fn report_counts_plausible_messages() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    let report = cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        for _ in 0..10 {
            if me.pe == 0 {
                node.send(peer, 1, b"x").unwrap();
                node.recv_tag(2).unwrap();
            } else {
                node.recv_tag(1).unwrap();
                node.send(peer, 2, b"y").unwrap();
            }
        }
    });
    let sends: u64 = report.nodes.iter().map(|n| n.comm.sends).sum();
    // 20 data messages + termination-protocol messages (1 DONE + 1
    // SHUTDOWN for the 2-node barrier).
    assert!(sends >= 21, "sends = {sends}");
    assert!(report.counter("ult.full_switches") > 0);
}

#[test]
fn cluster_can_run_twice() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    for round in 0..2 {
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        cluster.run(move |node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            if me.pe == 0 {
                node.send(peer, 1, b"again").unwrap();
            } else {
                node.recv_tag(1).unwrap();
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1, "round {round}");
    }
}

#[test]
#[should_panic(expected = "panicked")]
fn main_panic_is_propagated_without_hanging() {
    let cluster = ChantCluster::builder().pes(2).build();
    cluster.run(|node| {
        if node.pe() == 1 {
            panic!("deliberate test panic");
        }
    });
}

#[test]
fn send_to_out_of_range_node_errors() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let bogus = ChanterId::new(7, 0, 1);
            match node.send(bogus, 1, b"") {
                Err(ChantError::NoSuchNode { .. }) => {}
                other => panic!("expected NoSuchNode, got {other:?}"),
            }
        }
    });
}

// ---------------------------------------------------------------------
// Collective operations
// ---------------------------------------------------------------------

use crate::ChantGroup;

/// Build the group of all main threads (one per node, same tid).
fn mains_group(node: &Arc<crate::ChantNode>) -> ChantGroup {
    let me = node.self_id();
    let members: Vec<ChanterId> = (0..node.world().pes())
        .map(|pe| ChanterId::new(pe, 0, me.thread))
        .collect();
    ChantGroup::new(node, members, 0).unwrap()
}

#[test]
fn collective_barrier_synchronizes() {
    for policy in [PollingPolicy::ThreadPolls, PollingPolicy::SchedulerPollsPs] {
        let cluster = ChantCluster::builder()
            .pes(4)
            .policy(policy)
            .server(false)
            .build();
        let entered = Arc::new(AtomicU32::new(0));
        let e2 = Arc::clone(&entered);
        cluster.run(move |node| {
            let group = mains_group(node);
            for round in 0..5u32 {
                e2.fetch_add(1, Ordering::SeqCst);
                group.barrier(node).unwrap();
                // After the barrier, everyone must have entered round+1 times.
                let seen = e2.load(Ordering::SeqCst);
                assert!(
                    seen >= (round + 1) * 4,
                    "barrier leaked: round {round}, seen {seen}"
                );
            }
        });
        assert_eq!(entered.load(Ordering::SeqCst), 20, "{policy:?}");
    }
}

#[test]
fn collective_bcast_delivers_to_all() {
    let cluster = ChantCluster::builder().pes(5).server(false).build();
    cluster.run(|node| {
        let group = mains_group(node);
        for root in 0..group.len() {
            let payload = format!("from-root-{root}");
            let got = if group.rank() == root {
                group.bcast(node, root, Some(payload.as_bytes())).unwrap()
            } else {
                group.bcast(node, root, None).unwrap()
            };
            assert_eq!(&got[..], payload.as_bytes(), "root {root}");
        }
    });
}

#[test]
fn collective_reduce_sums_at_root() {
    let cluster = ChantCluster::builder().pes(4).server(false).build();
    cluster.run(|node| {
        let group = mains_group(node);
        let mine = (group.rank() as u64 + 1) * 10;
        let out = group
            .reduce(node, 0, &mine.to_le_bytes(), |a, b| {
                let x = u64::from_le_bytes(a[..8].try_into().unwrap());
                let y = u64::from_le_bytes(b[..8].try_into().unwrap());
                (x + y).to_le_bytes().to_vec()
            })
            .unwrap();
        if group.rank() == 0 {
            assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 100);
        } else {
            assert!(out.is_empty());
        }
    });
}

#[test]
fn collective_allreduce_u64() {
    let cluster = ChantCluster::builder().pes(4).server(false).build();
    cluster.run(|node| {
        let group = mains_group(node);
        let sum = group
            .allreduce_u64(node, group.rank() as u64 + 1, |a, b| a + b)
            .unwrap();
        assert_eq!(sum, 1 + 2 + 3 + 4);
        let max = group
            .allreduce_u64(node, (group.rank() as u64 + 1) * 7, u64::max)
            .unwrap();
        assert_eq!(max, 28);
    });
}

#[test]
fn collective_gather_preserves_rank_order() {
    let cluster = ChantCluster::builder().pes(4).server(false).build();
    cluster.run(|node| {
        let group = mains_group(node);
        let mine = vec![group.rank() as u8; group.rank() + 1];
        let all = group.gather(node, 2, &mine).unwrap();
        if group.rank() == 2 {
            assert_eq!(all.len(), 4);
            for (r, b) in all.iter().enumerate() {
                assert_eq!(&b[..], vec![r as u8; r + 1].as_slice(), "rank {r}");
            }
        } else {
            assert!(all.is_empty());
        }
    });
}

#[test]
fn collectives_work_under_tag_overload_naming() {
    // Collectives only need process-level source selection + explicit
    // tags, so they must be portable to the NX-style naming mode.
    let cluster = ChantCluster::builder()
        .pes(3)
        .naming(NamingMode::TagOverload)
        .server(false)
        .build();
    cluster.run(|node| {
        let group = mains_group(node);
        group.barrier(node).unwrap();
        let sum = group
            .allreduce_u64(node, group.rank() as u64, |a, b| a + b)
            .unwrap();
        assert_eq!(sum, 3);
    });
}

#[test]
fn back_to_back_collectives_do_not_cross_match() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(|node| {
        let group = mains_group(node);
        for i in 0..20u64 {
            let s = group.allreduce_u64(node, i, |a, b| a + b).unwrap();
            assert_eq!(s, 2 * i);
        }
    });
}

#[test]
fn group_requires_membership() {
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(|node| {
        let me = node.self_id();
        let others = vec![ChanterId::new(1 - me.pe, 0, me.thread)];
        match ChantGroup::new(node, others, 0) {
            Err(ChantError::NoSuchThread(id)) => assert_eq!(id, me),
            other => panic!("expected membership error, got {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------
// Remote spawn attributes
// ---------------------------------------------------------------------

use crate::RemoteSpawnOptions;

#[test]
fn remote_spawn_with_priority_and_name() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("report-info", |node, _| {
            let me = node.self_id();
            let info = node.vp().thread_info(me.thread).unwrap();
            let mut out = Vec::new();
            out.push(info.priority.index() as u8);
            out.extend_from_slice(info.name.as_bytes());
            Bytes::from(out)
        })
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let id = node
                .remote_spawn_opts(
                    chant_comm::Address::new(1, 0),
                    "report-info",
                    b"",
                    RemoteSpawnOptions {
                        priority: chant_ult::Priority::HIGH,
                        detached: false,
                        name: Some("custom-name".into()),
                    },
                )
                .unwrap();
            let v = node.remote_join(id).unwrap();
            assert_eq!(v[0] as usize, chant_ult::Priority::HIGH.index());
            assert_eq!(&v[1..], b"custom-name");
        }
    });
}

#[test]
fn remote_spawn_detached_cannot_be_joined() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .entry("fire-and-forget", |_n, _| Bytes::new())
        .build();
    cluster.run(|node| {
        if node.pe() == 0 {
            let id = node
                .remote_spawn_opts(
                    chant_comm::Address::new(1, 0),
                    "fire-and-forget",
                    b"",
                    RemoteSpawnOptions {
                        detached: true,
                        ..Default::default()
                    },
                )
                .unwrap();
            // Give it time to finish, then verify its record is gone.
            for _ in 0..100 {
                node.yield_now();
            }
            match node.remote_join(id) {
                Err(ChantError::Remote(_)) => {}
                Ok(_) => panic!("joining a detached thread must fail"),
                Err(e) => panic!("unexpected error class: {e:?}"),
            }
        }
    });
}

// ---------------------------------------------------------------------
// Communication-layer capability profiles
// ---------------------------------------------------------------------

use chant_comm::CommProfile;

#[test]
fn nx_profile_supports_the_paper_configuration() {
    // The paper's own experiments: NX + tag overloading + any of the
    // three NX-expressible polling policies.
    let cluster = ChantCluster::builder()
        .pes(2)
        .comm_profile(CommProfile::NX)
        .naming(NamingMode::TagOverload)
        .policy(PollingPolicy::SchedulerPollsPs)
        .server(false)
        .build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            node.send(peer, 1, b"on NX").unwrap();
        } else {
            node.recv_tag(1).unwrap();
        }
    });
}

#[test]
#[should_panic(expected = "no header field for thread ids")]
fn nx_profile_rejects_communicator_naming() {
    let _ = ChantCluster::builder()
        .pes(2)
        .comm_profile(CommProfile::NX)
        .naming(NamingMode::Communicator)
        .build();
}

#[test]
#[should_panic(expected = "no msgtestany")]
fn p4_profile_rejects_testany_policy() {
    let _ = ChantCluster::builder()
        .pes(2)
        .comm_profile(CommProfile::P4)
        .naming(NamingMode::TagOverload)
        .policy(PollingPolicy::SchedulerPollsWqTestany)
        .build();
}

#[test]
fn mpi_profile_allows_everything() {
    let cluster = ChantCluster::builder()
        .pes(2)
        .comm_profile(CommProfile::MPI)
        .naming(NamingMode::Communicator)
        .policy(PollingPolicy::SchedulerPollsWqTestany)
        .server(false)
        .build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            node.send(peer, 1, b"on MPI").unwrap();
        } else {
            node.recv_tag(1).unwrap();
        }
    });
}

// ---------------------------------------------------------------------
// msgwait_any
// ---------------------------------------------------------------------

#[test]
fn msgwait_any_returns_the_completed_receive_under_every_policy() {
    for policy in all_policies() {
        let cluster = ChantCluster::builder()
            .pes(2)
            .policy(policy)
            .server(false)
            .build();
        cluster.run(move |node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            if me.pe == 0 {
                // Three outstanding receives; the peer satisfies tag 21.
                let h0 = node.irecv(RecvSrc::Any, Some(20)).unwrap();
                let h1 = node.irecv(RecvSrc::Any, Some(21)).unwrap();
                let h2 = node.irecv(RecvSrc::Any, Some(22)).unwrap();
                node.send(peer, 1, b"go").unwrap();
                let which = node.msgwait_any(&[&h0, &h1, &h2]);
                assert_eq!(which, 1, "{policy:?}");
                assert_eq!(&h1.take().unwrap().1[..], b"middle");
                // The other receives stay pending and reusable.
                node.send(peer, 2, b"rest").unwrap();
                let which = node.msgwait_any(&[&h0, &h2]);
                let (_, body) = [&h0, &h2][which].take().unwrap();
                assert!(body[..] == b"first"[..] || body[..] == b"third"[..]);
            } else {
                node.recv_tag(1).unwrap();
                node.send(peer, 21, b"middle").unwrap();
                node.recv_tag(2).unwrap();
                node.send(peer, 20, b"first").unwrap();
                node.send(peer, 22, b"third").unwrap();
            }
        });
    }
}

#[test]
fn msgwait_any_round_robin_stress() {
    for policy in [PollingPolicy::SchedulerPollsPs, PollingPolicy::SchedulerPollsWq] {
        let cluster = ChantCluster::builder()
            .pes(2)
            .policy(policy)
            .server(false)
            .build();
        cluster.run(move |node| {
            let me = node.self_id();
            let peer = ChanterId::new(1 - me.pe, 0, me.thread);
            const CHANNELS: i32 = 4;
            const MSGS: u32 = 24;
            if me.pe == 0 {
                let mut handles: Vec<_> = (0..CHANNELS)
                    .map(|c| node.irecv(RecvSrc::Any, Some(30 + c)).unwrap())
                    .collect();
                node.send(peer, 1, b"start").unwrap();
                let mut got = 0u32;
                while got < MSGS {
                    let refs: Vec<_> = handles.iter().collect();
                    let which = node.msgwait_any(&refs);
                    let (info, _) = handles[which].take().unwrap();
                    let c = info.tag - 30;
                    // Repost that channel.
                    handles[which] = node.irecv(RecvSrc::Any, Some(30 + c)).unwrap();
                    got += 1;
                }
            } else {
                node.recv_tag(1).unwrap();
                for i in 0..MSGS {
                    let c = (i as i32) % CHANNELS;
                    node.send(peer, 30 + c, &i.to_le_bytes()).unwrap();
                    if i % 5 == 0 {
                        node.yield_now();
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// RSR dedup: the floor each client sends bounds the server's table
// ---------------------------------------------------------------------

#[test]
fn dedup_windows_are_per_client_node() {
    use crate::rsr::{DedupVerdict, RsrState};
    use chant_comm::Address;

    let st = RsrState::new(None);
    let (a, b) = (Address::new(0, 0), Address::new(1, 0));
    // The same seq from two different client nodes is two different
    // requests, and one client's floor leaves the other's table alone.
    assert!(matches!(st.dedup_begin(a, 5, 5), DedupVerdict::New));
    assert!(matches!(st.dedup_begin(b, 5, 5), DedupVerdict::New));
    assert!(matches!(st.dedup_begin(b, 9, 9), DedupVerdict::New));
    assert_eq!(st.held(b), [9]);
    assert!(matches!(st.dedup_begin(a, 5, 5), DedupVerdict::Dropped));
    assert_eq!(st.held(a), [5]);
}

/// The delayed-duplicate case a sized window got wrong: seq 100 ran and
/// its reply reached the client, 100 newer calls completed and raised
/// the floor past it, and then the transport delivers a late copy of
/// 100. An oldest-first window of 64 had evicted its entry and ran it
/// again.
#[test]
fn a_duplicate_below_the_floor_is_not_run() {
    use crate::rsr::{DedupVerdict, RsrState};
    use chant_comm::Address;

    let st = RsrState::new(None);
    let client = Address::new(0, 0);
    for seq in 100..=200 {
        assert!(matches!(st.dedup_begin(client, seq, seq), DedupVerdict::New));
        st.dedup_complete(client, seq, Bytes::from_static(b"done"));
    }
    assert!(matches!(st.dedup_begin(client, 100, 100), DedupVerdict::Dropped));
    assert_eq!(st.held(client), [200]);
}

/// A call the client still awaits holds the floor at its seq, however
/// many newer calls complete meanwhile: its original was lost, so its
/// retry must run, once. Refusing everything below a full window would
/// refuse it.
#[test]
fn a_request_held_at_the_floor_runs_once_while_newer_ones_complete() {
    use crate::rsr::{DedupVerdict, RsrState};
    use chant_comm::Address;

    let st = RsrState::new(None);
    let client = Address::new(0, 0);
    for seq in 101..=200 {
        assert!(matches!(st.dedup_begin(client, seq, 100), DedupVerdict::New));
        st.dedup_complete(client, seq, Bytes::from_static(b"newer"));
    }
    assert!(matches!(st.dedup_begin(client, 100, 100), DedupVerdict::New));
    assert!(matches!(st.dedup_begin(client, 100, 100), DedupVerdict::Dropped));
    st.dedup_complete(client, 100, Bytes::from_static(b"r100"));
    assert!(matches!(
        st.dedup_begin(client, 100, 100),
        DedupVerdict::Replay(ref r) if &r[..] == b"r100"
    ));
    assert_eq!(st.held(client).len(), 101);
}

#[test]
fn raising_the_floor_drops_every_entry_below_it() {
    use crate::rsr::{DedupVerdict, RsrState};
    use chant_comm::Address;

    let st = RsrState::new(None);
    let client = Address::new(0, 0);
    // Ten entries at floor 10, half completed and half in flight.
    for seq in 10..20 {
        assert!(matches!(st.dedup_begin(client, seq, 10), DedupVerdict::New));
        if seq % 2 == 0 {
            st.dedup_complete(client, seq, Bytes::new());
        }
    }
    assert_eq!(st.held(client), (10..20).collect::<Vec<_>>());
    assert!(matches!(st.dedup_begin(client, 20, 15), DedupVerdict::New));
    assert_eq!(st.held(client), (15..=20).collect::<Vec<_>>());
    // Below the floor: refused, and nothing is recorded.
    assert!(matches!(st.dedup_begin(client, 12, 12), DedupVerdict::Dropped));
    // A stale `low` never lowers the floor; a `low` above the request's
    // own seq counts as that seq, so no request refuses itself.
    assert!(matches!(st.dedup_begin(client, 21, 11), DedupVerdict::New));
    assert!(matches!(st.dedup_begin(client, 14, 14), DedupVerdict::Dropped));
    assert!(matches!(st.dedup_begin(client, 22, 99), DedupVerdict::New));
    assert_eq!(st.held(client), [22]);
}

/// Client side: ULTs on one node issue calls, wait for some, drop others
/// unanswered and post in between. The peer stands in for the server
/// and decodes every envelope: each `low` must be the oldest call its
/// node still awaited when it was sent (the request's own seq if none).
/// The ULTs share one lane, so the log below is the order in which the
/// node allocated and settled seqs.
#[test]
fn every_request_carries_the_oldest_awaited_seq_as_its_low() {
    use crate::rsr::SERVER_FN_USER_BASE as FN;
    use crate::wire::decode_rsr;
    use chant_comm::{kind, Address, RecvSpec};
    use parking_lot::Mutex;
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Clone, Copy, Debug)]
    enum Ev {
        Issue(u64),
        Post,
        Settle(u64),
    }
    const ULTS: u32 = 4;
    const ROUNDS: u32 = 12;
    let log = Arc::new(Mutex::new(Vec::new()));
    let lows = Arc::new(Mutex::new(BTreeMap::new()));
    let (log2, lows2) = (Arc::clone(&log), Arc::clone(&lows));
    let cluster = ChantCluster::builder().pes(2).server(false).build();
    cluster.run(move |node| {
        if node.self_id().pe == 1 {
            // Answer only the calls that ask for it (args `[1]`).
            for _ in 0..ULTS * ROUNDS {
                let h = node.endpoint().irecv(RecvSpec::any().kind(kind::RSR));
                node.engine().wait(&h);
                let env = decode_rsr(&h.take().unwrap().1).unwrap();
                lows2.lock().insert(env.seq, env.low);
                if env.args[..] == [1] {
                    node.send_rsr_reply(env.from, env.reply_token, env.seq, &Ok(Bytes::new()));
                }
            }
            return;
        }
        let dst = Address::new(1, 0);
        let finished = Arc::new(AtomicU32::new(0));
        for u in 0..ULTS {
            let (log, finished) = (Arc::clone(&log2), Arc::clone(&finished));
            node.spawn(SpawnAttr::new(), move |node| {
                let mut held = Vec::new();
                for r in 0..ROUNDS {
                    match (u + r) % 4 {
                        0 => {
                            let call = node.rsr_icall(dst, FN, &[0]).unwrap();
                            let seq = call.seq();
                            drop(call);
                            log.lock().extend([Ev::Issue(seq), Ev::Settle(seq)]);
                        }
                        1 => {
                            node.rsr_post(dst, FN, &[0]).unwrap();
                            log.lock().push(Ev::Post);
                        }
                        _ => {
                            let call = node.rsr_icall(dst, FN, &[1]).unwrap();
                            log.lock().push(Ev::Issue(call.seq()));
                            held.push(call);
                        }
                    }
                    if held.len() == 2 || r == ROUNDS - 1 {
                        for call in held.drain(..) {
                            node.rsr_wait(&call).unwrap();
                            log.lock().push(Ev::Settle(call.seq()));
                        }
                    }
                    node.yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        while finished.load(Ordering::SeqCst) < ULTS {
            node.yield_now();
        }
    });

    let lows = lows.lock();
    assert_eq!(lows.len(), (ULTS * ROUNDS) as usize);
    let mut next = *lows.keys().next().unwrap();
    let mut awaited = BTreeSet::new();
    let mut held_by_another = 0;
    for ev in log.lock().iter().copied() {
        let seq = match ev {
            Ev::Settle(seq) => {
                awaited.remove(&seq);
                continue;
            }
            Ev::Issue(seq) => {
                assert_eq!(seq, next, "seqs are consecutive per node");
                awaited.insert(seq);
                seq
            }
            Ev::Post => next,
        };
        next += 1;
        let want = awaited.first().copied().unwrap_or(seq);
        held_by_another += usize::from(want < seq);
        assert_eq!(lows[&seq], want, "seq {seq}: {ev:?}");
    }
    assert!(held_by_another > 0, "no request was sent below an older awaited call");
}

// ---------------------------------------------------------------------
// Ambient node context
// ---------------------------------------------------------------------

/// "The node I belong to" is per user-level thread. A lane is one OS
/// thread, so an OS-level slot would be shared by every chanter of the
/// lane and cleared for all of them by the first one to exit.
#[test]
fn current_node_survives_another_chanters_exit() {
    let cluster = ChantCluster::builder().pes(1).server(false).build();
    let checks = Arc::new(AtomicU32::new(0));
    let seen = Arc::clone(&checks);
    cluster.run(move |node| {
        assert!(Arc::ptr_eq(&crate::ChantNode::current().unwrap(), node));
        let n = Arc::clone(&seen);
        let long = node.spawn_chanter(SpawnAttr::new().name("long"), move |node| {
            for _ in 0..50 {
                let here = crate::ChantNode::current().expect("lost the node mid-run");
                assert!(Arc::ptr_eq(&here, node));
                n.fetch_add(1, Ordering::Relaxed);
                node.yield_now();
            }
            Bytes::new()
        });
        // Short-lived chanters come and go while `long` keeps asking.
        for _ in 0..10 {
            let short = node.spawn(SpawnAttr::new().name("short"), |node| {
                assert!(crate::ChantNode::current().is_some());
                node.yield_now();
            });
            node.remote_join(short).unwrap();
        }
        node.remote_join(long).unwrap();
        assert!(Arc::ptr_eq(&crate::ChantNode::current().unwrap(), node));
    });
    assert_eq!(checks.load(Ordering::Relaxed), 50);
    assert!(crate::ChantNode::current().is_none(), "off-ULT there is no node");
}
