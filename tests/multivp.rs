//! Multi-VP regression suite: the PR 3 cancelled-waiter fixes replayed
//! with several worker lanes racing, across all three polling policies.
//!
//! The single-VP cancelled-waiter tests in `chant-ult` prove a stale
//! queue entry is skipped when one baton does everything in program
//! order. Here the same scenarios run on four lanes, with threads placed
//! round-robin: the notify, cancel or message delivery that should wake
//! a waiter arrives from a foreign lane, whose thread pushes the waiter
//! onto its home lane's queue while that lane is busy or asleep. Seeds
//! (default 1/7/42, overridable with `CHANT_VPS_SEED`) vary the amount
//! of unrelated lane pressure so CI sweeps different interleavings.

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chant::chant::{ChantCluster, ChantError, ChanterId, PollingPolicy, RecvSrc};
use chant::ult::{
    JoinError, SpawnAttr, ThreadState, UltCondvar, UltMutex, UltSemaphore, Vp, VpConfig,
};
use common::{for_each_transport, seeds, Backend};

/// Spawn `n` detached threads that yield a seed-derived number of times:
/// pure lane pressure, keeping every lane's queue busy while the
/// scenario under test races them.
fn lane_pressure(vp: &Arc<Vp>, seed: u64, n: u32) {
    for i in 0..u64::from(n) {
        // Tiny LCG so each seed gives a different yield mix.
        let yields = (seed.wrapping_mul(6364136223846793005).wrapping_add(i) >> 33) % 24 + 1;
        vp.spawn(SpawnAttr::new().detached(), move |vp| {
            for _ in 0..yields {
                vp.yield_now();
            }
        });
    }
}

#[test]
fn cancelled_condvar_waiter_is_skipped_with_four_lanes() {
    for seed in seeds() {
        let vp = Vp::new(VpConfig::named("mvp-cv").with_vps(4));
        let vp2 = Arc::clone(&vp);
        vp.run(move |vp| {
            lane_pressure(vp, seed, 12);
            let m = UltMutex::new(&vp2, (false, false));
            let cv = UltCondvar::new(&vp2);

            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let doomed = vp.spawn(SpawnAttr::new().name("doomed"), move |_| {
                let mut g = m2.lock().unwrap();
                while !g.0 {
                    g = cv2.wait(g).unwrap();
                }
                unreachable!("doomed waiter must be cancelled");
            });
            let (m3, cv3) = (Arc::clone(&m), Arc::clone(&cv));
            let live = vp.spawn(SpawnAttr::new().name("live"), move |_| {
                let mut g = m3.lock().unwrap();
                while !g.1 {
                    g = cv3.wait(g).unwrap();
                }
                "woken"
            });
            while vp.thread_info(doomed.tid()).unwrap().state != ThreadState::Blocked
                || vp.thread_info(live.tid()).unwrap().state != ThreadState::Blocked
            {
                vp.yield_now();
            }
            vp.cancel(doomed.tid()).unwrap();
            // No yield: the doomed entry is still queued on the condvar
            // when the notification fires, from whichever lane this
            // thread was placed on.
            m.lock().unwrap().1 = true;
            cv.notify_one();
            assert_eq!(live.join().unwrap(), "woken", "seed {seed}");
            assert!(matches!(doomed.join(), Err(JoinError::Cancelled)));
        })
        .unwrap();
    }
}

#[test]
fn cancelled_semaphore_waiter_is_skipped_with_four_lanes() {
    for seed in seeds() {
        let vp = Vp::new(VpConfig::named("mvp-sem").with_vps(4));
        let vp2 = Arc::clone(&vp);
        vp.run(move |vp| {
            lane_pressure(vp, seed, 12);
            let sem = UltSemaphore::new(&vp2, 0);
            let s2 = Arc::clone(&sem);
            let victim = vp.spawn(SpawnAttr::new(), move |_| {
                s2.acquire().unwrap();
                unreachable!("victim must be cancelled while waiting");
            });
            let s3 = Arc::clone(&sem);
            let survivor = vp.spawn(SpawnAttr::new(), move |_| {
                s3.acquire().unwrap();
                seed
            });
            while vp.thread_info(victim.tid()).unwrap().state != ThreadState::Blocked
                || vp.thread_info(survivor.tid()).unwrap().state != ThreadState::Blocked
            {
                vp.yield_now();
            }
            vp.cancel(victim.tid()).unwrap();
            assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
            // The permit released *after* the cancel must reach the
            // survivor, never be burned on the victim's stale entry.
            sem.release();
            assert_eq!(survivor.join().unwrap(), seed);
        })
        .unwrap();
    }
}

// A chanter blocked in a policy-specific receive wait is cancelled;
// the wakeup machinery of that policy (thread polls, scheduler polls
// with a work queue, or per-TCB pending polls) must neither hang on
// the doomed waiter nor lose the message destined for the live one —
// with four lanes per node running concurrently while the endpoint's
// deliverer wakes receivers homed on any of them, on every transport
// backend.
for_each_transport!(cancelled_receiver_under_each_polling_policy_with_four_lanes, |backend: Backend| {
    for policy in [
        PollingPolicy::ThreadPolls,
        PollingPolicy::SchedulerPollsWq,
        PollingPolicy::SchedulerPollsPs,
    ] {
        for seed in seeds() {
            let cancelled = Arc::new(AtomicU32::new(0));
            let c2 = Arc::clone(&cancelled);
            let cluster = ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .vps(4)
                .transport(backend.config())
                .build();
            cluster.run(move |node| {
                let me = node.self_id();
                let peer = ChanterId::new(1 - me.pe, 0, me.thread);
                if me.pe == 0 {
                    // A doomed receiver: tag 77 never arrives.
                    let doomed = node.spawn(SpawnAttr::new().name("doomed"), |n| {
                        let _ = n.recv_tag(77);
                        unreachable!("tag 77 is never sent");
                    });
                    // Lane pressure on node 0's lanes.
                    for _ in 0..(seed % 5 + 4) {
                        node.spawn(SpawnAttr::new(), |n| {
                            for _ in 0..16 {
                                n.yield_now();
                            }
                        });
                    }
                    // Let the doomed receiver park in the policy's wait.
                    match node.recv_timeout(RecvSrc::Any, Some(9), Duration::from_millis(20)) {
                        Err(ChantError::Timeout) => {}
                        other => panic!("[{policy:?}] expected Timeout, got {other:?}"),
                    }
                    node.remote_cancel(doomed).unwrap();
                    c2.fetch_add(1, Ordering::Relaxed);
                    // The live flow proceeds: real traffic both ways.
                    node.send(peer, 1, b"ping").unwrap();
                    let (_info, body) = node.recv_tag(2).expect("live receive survives");
                    assert_eq!(&body[..], b"pong");
                } else {
                    node.recv_tag(1).unwrap();
                    node.send(peer, 2, b"pong").unwrap();
                }
            });
            assert_eq!(
                cancelled.load(Ordering::Relaxed),
                1,
                "[{backend:?}/{policy:?}] seed {seed}: cancel path must have run"
            );
        }
    }
});

/// `CHANT_VPS` is the env knob the builder defaults from; make sure a
/// cluster built under it completes a full message exchange (the CI
/// matrix runs the whole suite with it set to 1 and 4).
#[test]
fn cluster_honors_chant_vps_env_default() {
    let cluster = ChantCluster::builder().pes(2).build();
    cluster.run(|node| {
        let me = node.self_id();
        let peer = ChanterId::new(1 - me.pe, 0, me.thread);
        if me.pe == 0 {
            node.send(peer, 5, b"over").unwrap();
            assert_eq!(&node.recv_tag(6).unwrap().1[..], b"out");
        } else {
            node.recv_tag(5).unwrap();
            node.send(peer, 6, b"out").unwrap();
        }
    });
}
