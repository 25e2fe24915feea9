//! Behavioural tests for the user-level threads package.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::{
    DispatchDecision, JoinError, Priority, SchedulerHook, SpawnAttr, TlsKey, UltBarrier,
    UltCondvar, UltError, UltMutex, Vp, VpConfig,
};

fn vp() -> Arc<Vp> {
    Vp::new(VpConfig::named("test-vp"))
}

#[test]
fn single_thread_runs_and_returns_value() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |_| "hello".to_string());
    vp.start();
    assert_eq!(h.join().unwrap(), "hello");
}

#[test]
fn run_convenience_returns_main_value() {
    let vp = vp();
    let out = vp.run(|_| 7u64).unwrap();
    assert_eq!(out, 7);
}

#[test]
fn threads_interleave_at_yields() {
    // Two threads appending to a shared log at each yield must alternate.
    let vp = vp();
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for id in 0..2u32 {
        let log = Arc::clone(&log);
        vp.spawn(SpawnAttr::new().detached(), move |vp| {
            for step in 0..3u32 {
                log.lock().push((id, step));
                vp.yield_now();
            }
        });
    }
    vp.start();
    let log = log.lock();
    assert_eq!(log.len(), 6);
    // Strict round-robin: (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
    let expect: Vec<(u32, u32)> = vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
    assert_eq!(*log, expect);
}

#[test]
fn many_threads_all_complete() {
    let vp = vp();
    let counter = Arc::new(AtomicU32::new(0));
    let mut handles = Vec::new();
    for _ in 0..64 {
        let c = Arc::clone(&counter);
        handles.push(vp.spawn(SpawnAttr::new(), move |vp| {
            for _ in 0..10 {
                c.fetch_add(1, Ordering::Relaxed);
                vp.yield_now();
            }
        }));
    }
    vp.start();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 640);
}

#[test]
fn spawn_from_inside_a_thread() {
    let vp = vp();
    let out = vp
        .run(|vp| {
            let h = vp.spawn(SpawnAttr::new().name("child"), |_| 5u32);
            h.join().unwrap() + 1
        })
        .unwrap();
    assert_eq!(out, 6);
}

#[test]
fn join_self_is_an_error() {
    let vp = vp();
    // A thread cannot join itself; verify via a child that grabs its own
    // handle through a rendezvous cell.
    let out = vp
        .run(|vp| {
            let h = vp.spawn(SpawnAttr::new(), |_| 1u8);
            let tid = h.tid();
            // Joining a different thread by handle is fine:
            assert_eq!(h.join().unwrap(), 1);
            tid
        })
        .unwrap();
    assert!(out >= 1);
}

#[test]
fn join_detached_thread_fails() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new().detached(), |_| 3u8);
    vp.start();
    match h.join() {
        Err(JoinError::Op(UltError::Detached(_))) => {}
        other => panic!("expected Detached error, got {other:?}", other = other.err()),
    }
}

#[test]
fn panic_in_thread_is_reported_to_joiner() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |_| -> u8 { panic!("boom") });
    vp.start();
    match h.join() {
        Err(JoinError::Panicked(p)) => {
            let msg = p.downcast_ref::<&str>().copied().unwrap_or("?");
            assert_eq!(msg, "boom");
        }
        other => panic!("expected panic, got ok={}", other.is_ok()),
    }
}

#[test]
fn block_unblock_round_trip() {
    let vp = vp();
    let progressed = Arc::new(AtomicU32::new(0));
    let p2 = Arc::clone(&progressed);
    let sleeper = vp.spawn(SpawnAttr::new().name("sleeper"), move |vp| {
        p2.fetch_add(1, Ordering::SeqCst);
        vp.block();
        p2.fetch_add(1, Ordering::SeqCst);
    });
    let tid = sleeper.tid();
    let p3 = Arc::clone(&progressed);
    vp.spawn(SpawnAttr::new().name("waker").detached(), move |vp| {
        // Let the sleeper run first and block.
        while p3.load(Ordering::SeqCst) == 0 {
            vp.yield_now();
        }
        vp.unblock(tid).unwrap();
    });
    vp.start();
    sleeper.join().unwrap();
    assert_eq!(progressed.load(Ordering::SeqCst), 2);
}

/// An OS thread that is not a VP's joins a thread still running: it
/// sleeps on the thread's condvar, and the exit must wake it (exit
/// notifies only when someone sleeps there).
#[test]
fn an_os_thread_asleep_in_join_is_woken_by_the_exit() {
    let vp = vp();
    let go = Arc::new(AtomicU32::new(0));
    let g2 = Arc::clone(&go);
    let h = vp.spawn(SpawnAttr::new(), move |vp| {
        while g2.load(Ordering::SeqCst) == 0 {
            vp.yield_now();
        }
        5u32
    });
    let lane = {
        let vp = Arc::clone(&vp);
        std::thread::spawn(move || vp.start())
    };
    let sleepers = h.ext_sleepers();
    let joiner = std::thread::spawn(move || h.join().unwrap());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while sleepers() == 0 {
        assert!(std::time::Instant::now() < deadline, "the joiner never went to sleep");
        std::thread::yield_now();
    }
    go.store(1, Ordering::SeqCst);
    assert_eq!(joiner.join().unwrap(), 5);
    lane.join().unwrap();
    assert_eq!(sleepers(), 0);
}

#[test]
fn unblock_before_block_leaves_token() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |vp| {
        let me = crate::current_tid().unwrap();
        // Wake ourselves "in advance"; the subsequent block must not hang.
        vp.unblock(me).unwrap();
        vp.block();
        42u8
    });
    vp.start();
    assert_eq!(h.join().unwrap(), 42);
}

#[test]
fn cancel_terminates_at_next_yield() {
    let vp = vp();
    let spins = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&spins);
    let victim = vp.spawn(SpawnAttr::new().name("victim"), move |vp| {
        loop {
            s2.fetch_add(1, Ordering::Relaxed);
            vp.yield_now(); // cancellation point
        }
    });
    let vtid = victim.tid();
    vp.spawn(SpawnAttr::new().detached(), move |vp| {
        for _ in 0..5 {
            vp.yield_now();
        }
        vp.cancel(vtid).unwrap();
    });
    vp.start();
    match victim.join() {
        Err(JoinError::Cancelled) => {}
        other => panic!("expected cancelled, ok={}", other.is_ok()),
    }
    assert!(spins.load(Ordering::Relaxed) >= 1);
}

#[test]
fn cancel_wakes_a_blocked_thread() {
    let vp = vp();
    let victim = vp.spawn(SpawnAttr::new(), |vp| {
        vp.block(); // nobody will unblock us; cancel must
        0u8
    });
    let vtid = victim.tid();
    vp.spawn(SpawnAttr::new().detached(), move |vp| {
        vp.yield_now();
        vp.cancel(vtid).unwrap();
    });
    vp.start();
    assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
}

#[test]
fn priority_classes_are_strict() {
    // A HIGH thread spawned ready must always run before NORMAL ones.
    let vp = vp();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..3u32 {
        let order = Arc::clone(&order);
        vp.spawn(SpawnAttr::new().detached(), move |_| {
            order.lock().push(format!("normal-{i}"));
        });
    }
    let o2 = Arc::clone(&order);
    vp.spawn(
        SpawnAttr::new().priority(Priority::HIGH).detached(),
        move |_| {
            o2.lock().push("high".to_string());
        },
    );
    vp.start();
    assert_eq!(order.lock()[0], "high");
}

#[test]
fn server_style_priority_boost_preempts_at_schedule_point() {
    // Mimic the paper's server thread: a HIGH-priority thread that was
    // blocked becomes ready; it must be dispatched at the very next
    // schedule point even though NORMAL threads are queued ahead of it.
    let vp = vp();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

    let o = Arc::clone(&order);
    let server = vp.spawn(
        SpawnAttr::new().name("server").priority(Priority::HIGH),
        move |vp| {
            vp.block(); // wait for a "request"
            o.lock().push("server");
        },
    );
    let stid = server.tid();

    for i in 0..4usize {
        let order = Arc::clone(&order);
        vp.spawn(SpawnAttr::new().detached(), move |vp| {
            if i == 0 {
                vp.unblock(stid).unwrap(); // the "request arrives"
            }
            order.lock().push("worker");
            vp.yield_now();
            order.lock().push("worker2");
        });
    }
    vp.start();
    server.join().unwrap();
    let order = order.lock();
    // The server must have run before any worker's *second* step.
    let server_pos = order.iter().position(|s| *s == "server").unwrap();
    let first_w2 = order.iter().position(|s| *s == "worker2").unwrap();
    assert!(
        server_pos < first_w2,
        "server was not boosted: {order:?}"
    );
}

#[test]
fn stats_count_switches_and_yields() {
    let vp = vp();
    for _ in 0..2 {
        vp.spawn(SpawnAttr::new().detached(), |vp| {
            for _ in 0..5 {
                vp.yield_now();
            }
        });
    }
    vp.start();
    let s = vp.stats().snapshot();
    assert_eq!(s.spawned, 2);
    assert_eq!(s.exited, 2);
    assert_eq!(s.yields, 10);
    // Two threads alternating must produce full switches, not
    // self-redispatches, for most yields.
    assert!(s.full_switches >= 10, "full_switches = {}", s.full_switches);
}

#[test]
fn lone_thread_yield_is_a_self_redispatch() {
    // Paper §4.1: with one thread per processor "the scheduler simply
    // returns without having to perform a context switch".
    let vp = vp();
    vp.spawn(SpawnAttr::new().detached(), |vp| {
        for _ in 0..8 {
            vp.yield_now();
        }
    });
    vp.start();
    let s = vp.stats().snapshot();
    assert_eq!(s.self_redispatches, 8);
    // Only the initial bootstrap dispatch is a full switch.
    assert_eq!(s.full_switches, 1);
}

#[test]
fn hook_at_schedule_point_is_called() {
    struct Counting(AtomicU64);
    impl SchedulerHook for Counting {
        fn at_schedule_point(&self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn wants_dispatch_check(&self) -> bool {
            false
        }
    }
    let vp = vp();
    let hook = Arc::new(Counting(AtomicU64::new(0)));
    vp.install_hook(hook.clone());
    vp.spawn(SpawnAttr::new().detached(), |vp| {
        for _ in 0..4 {
            vp.yield_now();
        }
    });
    vp.start();
    assert!(hook.0.load(Ordering::Relaxed) >= 5);
}

#[test]
fn partial_switch_requeues_until_pending_ready() {
    // PS policy: a thread with an unready pending request must be skipped
    // (partial switch) while other threads run, then resume once ready.
    struct PsHook;
    impl SchedulerHook for PsHook {
        fn at_schedule_point(&self) {}
        // default before_dispatch = requeue while pending unready
    }

    let vp = vp();
    vp.install_hook(Arc::new(PsHook));
    let gate = Arc::new(AtomicU32::new(0));
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

    let g = Arc::clone(&gate);
    let o = Arc::clone(&order);
    let waiter = vp.spawn(SpawnAttr::new().name("waiter"), move |vp| {
        let g2 = Arc::clone(&g);
        vp.set_current_pending(Box::new(move || g2.load(Ordering::SeqCst) >= 3));
        vp.yield_now(); // dispatcher will requeue us until the gate opens
        vp.take_current_pending();
        o.lock().push("waiter");
    });

    let g3 = Arc::clone(&gate);
    let o2 = Arc::clone(&order);
    vp.spawn(SpawnAttr::new().name("opener").detached(), move |vp| {
        for _ in 0..3 {
            o2.lock().push("tick");
            g3.fetch_add(1, Ordering::SeqCst);
            vp.yield_now();
        }
    });

    vp.start();
    waiter.join().unwrap();
    let order = order.lock();
    assert_eq!(*order, vec!["tick", "tick", "tick", "waiter"]);
    let s = vp.stats().snapshot();
    assert!(s.partial_switches >= 2, "partial = {}", s.partial_switches);
}

#[test]
fn hookless_all_blocked_vp_is_detected_as_deadlock() {
    let vp = Vp::new(VpConfig::named("dl"));
    let h = vp.spawn(SpawnAttr::new(), |vp| {
        vp.block(); // nobody will ever unblock us
    });
    vp.start(); // must terminate rather than hang
    match h.join() {
        Err(JoinError::Panicked(p)) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
        }
        Err(JoinError::Cancelled) => {} // cancelled by the unwedger: also fine
        other => panic!("expected deadlock report, ok={}", other.is_ok()),
    }
}

// ---------------------------------------------------------------------
// Sync primitives
// ---------------------------------------------------------------------

#[test]
fn mutex_provides_mutual_exclusion() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, 0u64);
            let mut handles = Vec::new();
            for _ in 0..8 {
                let m = Arc::clone(&m);
                handles.push(vp.spawn(SpawnAttr::new(), move |vp| {
                    for _ in 0..100 {
                        let mut g = m.lock().unwrap();
                        let v = *g;
                        vp.yield_now(); // try hard to interleave critical sections
                        *g = v + 1;
                        drop(g);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let total = *m.lock().unwrap();
            total
        })
        .unwrap();
    assert_eq!(out, 800);
}

#[test]
fn mutex_try_lock_fails_when_held() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, ());
        let g = m.lock().unwrap();
        let m2 = Arc::clone(&m);
        let h = vp.spawn(SpawnAttr::new(), move |_| {
            m2.try_lock().unwrap().is_none()
        });
        let contended = h.join().unwrap();
        assert!(contended);
        drop(g);
        assert!(m.try_lock().unwrap().is_some());
    })
    .unwrap();
}

#[test]
fn condvar_wakes_waiter() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, false);
            let cv = UltCondvar::new(&vp2);
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let waiter = vp.spawn(SpawnAttr::new(), move |_| {
                let mut g = m2.lock().unwrap();
                while !*g {
                    g = cv2.wait(g).unwrap();
                }
                "woken"
            });
            vp.yield_now(); // let the waiter get to the wait
            *m.lock().unwrap() = true;
            cv.notify_one();
            waiter.join().unwrap()
        })
        .unwrap();
    assert_eq!(out, "woken");
}

#[test]
fn condvar_notify_all_wakes_everyone() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, 0u32);
            let cv = UltCondvar::new(&vp2);
            let woken = Arc::new(AtomicU32::new(0));
            let mut hs = Vec::new();
            for _ in 0..5 {
                let (m, cv, woken) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&woken));
                hs.push(vp.spawn(SpawnAttr::new(), move |_| {
                    let mut g = m.lock().unwrap();
                    while *g == 0 {
                        g = cv.wait(g).unwrap();
                    }
                    woken.fetch_add(1, Ordering::Relaxed);
                }));
            }
            for _ in 0..3 {
                vp.yield_now();
            }
            *m.lock().unwrap() = 1;
            cv.notify_all();
            for h in hs {
                h.join().unwrap();
            }
            woken.load(Ordering::Relaxed)
        })
        .unwrap();
    assert_eq!(out, 5);
}

#[test]
fn barrier_releases_all_parties_with_one_leader() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let out = vp
        .run(move |vp| {
            let b = UltBarrier::new(&vp2, 4);
            let leaders = Arc::new(AtomicU32::new(0));
            let mut hs = Vec::new();
            for _ in 0..4 {
                let (b, leaders) = (Arc::clone(&b), Arc::clone(&leaders));
                hs.push(vp.spawn(SpawnAttr::new(), move |_| {
                    if b.wait().unwrap() {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            leaders.load(Ordering::Relaxed)
        })
        .unwrap();
    assert_eq!(out, 1);
}

#[test]
fn barrier_is_reusable_across_generations() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let b = UltBarrier::new(&vp2, 2);
        let phase = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for _ in 0..2 {
            let (b, phase) = (Arc::clone(&b), Arc::clone(&phase));
            hs.push(vp.spawn(SpawnAttr::new(), move |_| {
                for p in 0..3u32 {
                    b.wait().unwrap();
                    // After each barrier, everyone agrees on the phase.
                    let seen = phase.load(Ordering::SeqCst);
                    assert!(seen == p || seen == p + 1);
                    phase.store(p + 1, Ordering::SeqCst);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Thread-local data
// ---------------------------------------------------------------------

#[test]
fn tls_is_per_thread() {
    let vp = vp();
    let key: TlsKey<u32> = TlsKey::new();
    let sum = Arc::new(AtomicU32::new(0));
    let mut hs = Vec::new();
    for i in 1..=4u32 {
        let sum = Arc::clone(&sum);
        hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
            key.set(i * 10);
            vp.yield_now(); // others set their own values meanwhile
            let v = key.get().unwrap();
            assert_eq!(v, i * 10, "TLS leaked between threads");
            sum.fetch_add(v, Ordering::Relaxed);
        }));
    }
    vp.start();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(sum.load(Ordering::Relaxed), 100);
}

#[test]
fn tls_take_and_with_mut() {
    let vp = vp();
    let key: TlsKey<Vec<u32>> = TlsKey::new();
    vp.run(move |_| {
        assert!(key.get().is_none());
        key.with_mut(Vec::new, |v| v.push(1));
        key.with_mut(Vec::new, |v| v.push(2));
        assert_eq!(key.take().unwrap(), vec![1, 2]);
        assert!(key.get().is_none());
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

#[test]
fn thread_info_reports_states() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new().name("obs"), |vp| {
        let me = crate::current_tid().unwrap();
        let info = crate::current_vp().unwrap().thread_info(me).unwrap();
        assert_eq!(info.name, "obs");
        assert_eq!(info.state, crate::ThreadState::Running);
        vp.yield_now();
    });
    let tid = h.tid();
    let info = vp.thread_info(tid).unwrap();
    assert_eq!(info.state, crate::ThreadState::Ready);
    vp.start();
    h.join().unwrap();
    assert!(vp.thread_info(tid).is_none(), "joined thread is reaped");
}

#[test]
fn dispatch_decision_api_is_stable() {
    assert_ne!(DispatchDecision::Run, DispatchDecision::Requeue);
}

// ---------------------------------------------------------------------
// Semaphore and RwLock
// ---------------------------------------------------------------------

use crate::{UltRwLock, UltSemaphore};

#[test]
fn semaphore_bounds_concurrency() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = UltSemaphore::new(&vp2, 2);
        let inside = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for _ in 0..6 {
            let (sem, inside, peak) = (Arc::clone(&sem), Arc::clone(&inside), Arc::clone(&peak));
            hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
                sem.acquire().unwrap();
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                for _ in 0..5 {
                    vp.yield_now();
                }
                inside.fetch_sub(1, Ordering::SeqCst);
                sem.release();
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "semaphore leaked permits");
        assert_eq!(sem.available(), 2);
    })
    .unwrap();
}

#[test]
fn semaphore_try_acquire() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |_| {
        let sem = UltSemaphore::new(&vp2, 1);
        assert!(sem.try_acquire());
        assert!(!sem.try_acquire());
        sem.release();
        assert!(sem.try_acquire());
        sem.release();
    })
    .unwrap();
}

#[test]
fn rwlock_allows_concurrent_readers() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let lock = UltRwLock::new(&vp2, 7u32);
        let concurrent = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let mut hs = Vec::new();
        for _ in 0..4 {
            let (lock, concurrent, peak) =
                (Arc::clone(&lock), Arc::clone(&concurrent), Arc::clone(&peak));
            hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
                let g = lock.read().unwrap();
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                assert_eq!(*g, 7);
                for _ in 0..3 {
                    vp.yield_now();
                }
                concurrent.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "readers should overlap: peak {}",
            peak.load(Ordering::SeqCst)
        );
    })
    .unwrap();
}

#[test]
fn rwlock_writer_is_exclusive_and_sees_updates() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let lock = UltRwLock::new(&vp2, 0u64);
        let mut hs = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            hs.push(vp.spawn(SpawnAttr::new(), move |vp| {
                for _ in 0..25 {
                    let mut g = lock.write().unwrap();
                    let v = *g;
                    vp.yield_now(); // try to tear the update
                    *g = v + 1;
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*lock.read().unwrap(), 100);
    })
    .unwrap();
}

#[test]
fn rwlock_writer_preference_blocks_new_readers() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let lock = UltRwLock::new(&vp2, 0u32);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

        let r1 = lock.read().unwrap(); // hold a read lock

        let (l2, o2) = (Arc::clone(&lock), Arc::clone(&order));
        let writer = vp.spawn(SpawnAttr::new().name("writer"), move |_| {
            let mut g = l2.write().unwrap();
            *g = 1;
            o2.lock().push("writer");
        });
        vp.yield_now(); // writer is now queued

        let (l3, o3) = (Arc::clone(&lock), Arc::clone(&order));
        let late_reader = vp.spawn(SpawnAttr::new().name("late-reader"), move |_| {
            let g = l3.read().unwrap();
            o3.lock().push("reader");
            assert_eq!(*g, 1, "late reader must see the write");
        });
        vp.yield_now(); // late reader must queue behind the writer

        drop(r1); // release: writer goes first, then the reader
        writer.join().unwrap();
        late_reader.join().unwrap();
        assert_eq!(*order.lock(), vec!["writer", "reader"]);
    })
    .unwrap();
}

#[test]
fn cancelled_mutex_waiter_does_not_strand_others() {
    // Victim queues on a held mutex, is cancelled while waiting; when the
    // holder releases, the next *live* waiter must acquire the lock.
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, 0u32);
        let g = m.lock().unwrap(); // main holds the lock

        let m2 = Arc::clone(&m);
        let victim = vp.spawn(SpawnAttr::new().name("victim"), move |_| {
            let _g = m2.lock().unwrap(); // queues behind main
            unreachable!("victim must be cancelled while waiting");
        });
        vp.yield_now(); // let the victim queue

        let m3 = Arc::clone(&m);
        let survivor = vp.spawn(SpawnAttr::new().name("survivor"), move |_| {
            let mut g = m3.lock().unwrap();
            *g = 99;
        });
        vp.yield_now(); // let the survivor queue behind the victim

        vp.cancel(victim.tid()).unwrap();
        vp.yield_now(); // victim unwinds, leaving its stale queue entry
        assert!(matches!(victim.join(), Err(JoinError::Cancelled)));

        drop(g); // release: the wakeup must skip the dead victim
        survivor.join().unwrap();
        assert_eq!(*m.lock().unwrap(), 99);
    })
    .unwrap();
}

#[test]
fn cancelled_semaphore_waiter_does_not_strand_others() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = UltSemaphore::new(&vp2, 0);
        let s2 = Arc::clone(&sem);
        let victim = vp.spawn(SpawnAttr::new(), move |_| {
            s2.acquire().unwrap();
            unreachable!("victim must be cancelled while waiting");
        });
        vp.yield_now();
        let s3 = Arc::clone(&sem);
        let survivor = vp.spawn(SpawnAttr::new(), move |_| {
            s3.acquire().unwrap();
            7u8
        });
        vp.yield_now();
        vp.cancel(victim.tid()).unwrap();
        vp.yield_now();
        assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
        sem.release();
        assert_eq!(survivor.join().unwrap(), 7);
    })
    .unwrap();
}

#[test]
fn priority_change_takes_effect_on_next_requeue() {
    let vp = vp();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    // Three normal threads; thread B promotes itself mid-run. After its
    // next yield it must be dispatched ahead of the other normals.
    for name in ["a", "b", "c"] {
        let order = Arc::clone(&order);
        vp.spawn(SpawnAttr::new().name(name).detached(), move |vp| {
            if name == "b" {
                let me = crate::current_tid().unwrap();
                vp.set_priority(me, Priority::HIGH).unwrap();
            }
            vp.yield_now();
            order.lock().push(format!("{name}-2nd"));
        });
    }
    vp.start();
    assert_eq!(order.lock()[0], "b-2nd", "promoted thread must go first");
}

#[test]
fn detach_after_exit_reaps_immediately() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |_| 1u8);
    let tid = h.tid();
    vp.start(); // thread finishes, zombie retained for a joiner
    assert!(vp.thread_info(tid).is_some(), "zombie retained");
    vp.detach(tid).unwrap();
    assert!(vp.thread_info(tid).is_none(), "detach must reap the zombie");
}

#[test]
fn stats_spawned_exited_balance() {
    let vp = vp();
    let mut hs = Vec::new();
    for _ in 0..10 {
        hs.push(vp.spawn(SpawnAttr::new(), |vp| vp.yield_now()));
    }
    vp.start();
    for h in hs {
        h.join().unwrap();
    }
    let s = vp.stats().snapshot();
    assert_eq!(s.spawned, 10);
    assert_eq!(s.exited, 10);
}

// ---------------------------------------------------------------------
// Cancelled-waiter purging and timed waits
// ---------------------------------------------------------------------

#[test]
fn notify_one_skips_waiter_cancelled_while_queued() {
    // A queues on the condvar first, then B. A is cancelled but NOT yet
    // rescheduled, so it is still Ready and still in the waiter queue
    // when the notification fires. notify_one must hand the wakeup to
    // the live waiter B rather than burn it on the doomed A.
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let m = UltMutex::new(&vp2, (false, false)); // (flag_a, flag_b)
        let cv = UltCondvar::new(&vp2);

        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let a = vp.spawn(SpawnAttr::new().name("doomed"), move |_| {
            let mut g = m2.lock().unwrap();
            while !g.0 {
                g = cv2.wait(g).unwrap(); // flag_a never becomes true
            }
            unreachable!("doomed waiter must be cancelled");
        });
        vp.yield_now(); // A queues on the condvar

        let (m3, cv3) = (Arc::clone(&m), Arc::clone(&cv));
        let b = vp.spawn(SpawnAttr::new().name("live"), move |_| {
            let mut g = m3.lock().unwrap();
            while !g.1 {
                g = cv3.wait(g).unwrap();
            }
            "woken"
        });
        vp.yield_now(); // B queues behind A

        vp.cancel(a.tid()).unwrap();
        // No yield here: A still has its stale queue entry.
        m.lock().unwrap().1 = true;
        cv.notify_one(); // must skip A and wake B
        assert_eq!(b.join().unwrap(), "woken");
        assert!(matches!(a.join(), Err(JoinError::Cancelled)));
    })
    .unwrap();
}

#[test]
fn condvar_wait_timeout_expires_without_notifier() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let timed_out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, ());
            let cv = UltCondvar::new(&vp2);
            // Keep another thread runnable so the waiter's yield-poll
            // has someone to interleave with.
            let ticker = vp.spawn(SpawnAttr::new(), |vp| {
                for _ in 0..50 {
                    vp.yield_now();
                }
            });
            let g = m.lock().unwrap();
            let (_g, timed_out) = cv
                .wait_timeout(g, std::time::Duration::from_millis(10))
                .unwrap();
            drop(_g);
            ticker.join().unwrap();
            timed_out
        })
        .unwrap();
    assert!(timed_out, "no notifier: the wait must time out");
}

#[test]
fn condvar_wait_timeout_sees_prompt_notification() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    let timed_out = vp
        .run(move |vp| {
            let m = UltMutex::new(&vp2, false);
            let cv = UltCondvar::new(&vp2);
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let waiter = vp.spawn(SpawnAttr::new(), move |_| {
                let g = m2.lock().unwrap();
                let (g, timed_out) = cv2
                    .wait_timeout(g, std::time::Duration::from_secs(30))
                    .unwrap();
                assert!(*g, "woke without the predicate set");
                timed_out
            });
            vp.yield_now(); // waiter queues
            *m.lock().unwrap() = true;
            cv.notify_one();
            waiter.join().unwrap()
        })
        .unwrap();
    assert!(!timed_out, "notified well inside the deadline");
}

#[test]
fn semaphore_acquire_timeout_times_out_then_succeeds() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = UltSemaphore::new(&vp2, 0);
        // Keep the run-queue warm while the acquirer polls.
        let ticker = vp.spawn(SpawnAttr::new(), |vp| {
            for _ in 0..50 {
                vp.yield_now();
            }
        });
        assert!(
            !sem
                .acquire_timeout(std::time::Duration::from_millis(10))
                .unwrap(),
            "no permits: must time out"
        );
        sem.release();
        assert!(
            sem.acquire_timeout(std::time::Duration::from_secs(30))
                .unwrap(),
            "permit available: must acquire"
        );
        ticker.join().unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Foreign (non-ULT) OS threads
// ---------------------------------------------------------------------

#[test]
fn sync_primitives_error_off_ult_instead_of_aborting() {
    // Regression: these used to `expect` (and so abort the process) when
    // touched from an ordinary OS thread — a test's, or a deliverer's.
    let vp = vp();
    let m = UltMutex::new(&vp, 0u32);
    assert!(matches!(m.lock(), Err(UltError::NotUltContext)));
    assert!(matches!(m.try_lock(), Err(UltError::NotUltContext)));
    let sem = UltSemaphore::new(&vp, 1);
    assert!(matches!(sem.acquire(), Err(UltError::NotUltContext)));
    assert!(matches!(
        sem.acquire_timeout(std::time::Duration::from_millis(1)),
        Err(UltError::NotUltContext)
    ));
    let b = UltBarrier::new(&vp, 1);
    assert!(matches!(b.wait(), Err(UltError::NotUltContext)));
    let rw = UltRwLock::new(&vp, ());
    assert!(matches!(rw.read(), Err(UltError::NotUltContext)));
    assert!(matches!(rw.write(), Err(UltError::NotUltContext)));
}

#[test]
fn free_yield_now_off_ult_is_a_noop() {
    // Regression: panicked with "yield_now outside a user-level thread".
    crate::yield_now();
}

// ---------------------------------------------------------------------
// Waiting that sleeps: the parker, the timer queue, and what wakes them
// ---------------------------------------------------------------------

/// The PS policy's hook: the default `before_dispatch` requeues a
/// candidate whose pending poll is not ready.
struct PendingPollHook;
impl SchedulerHook for PendingPollHook {
    fn at_schedule_point(&self) {}
}

/// CPU time the calling OS thread has used so far, from the kernel's
/// per-thread accounting (ns resolution). Per *thread*, not per process:
/// sibling tests run concurrently in this process, and the thread that
/// waits is the lane — its baton holder is what would spin.
#[cfg(target_os = "linux")]
fn thread_cpu_time() -> std::time::Duration {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
    let ns: u64 = stat.split_whitespace().next().unwrap().parse().unwrap();
    std::time::Duration::from_nanos(ns)
}

/// An `unblock` from outside the VP races the lane's idle scan 10 000
/// times. Whatever the interleaving — wake before the block (token),
/// between the scan and the park, or into the sleep — no wake-up may be
/// lost. On this hook-free VP a lost one would sit out the deadlock
/// grace and be *reported*, so a hang cannot hide it.
#[test]
fn unblock_racing_the_idle_scan_never_loses_a_wakeup() {
    const ROUNDS: u32 = 10_000;
    let vp = vp();
    let round = Arc::new(AtomicU32::new(0));
    let r2 = Arc::clone(&round);
    let sleeper = vp.spawn(SpawnAttr::new().name("sleeper"), move |vp| {
        for i in 1..=ROUNDS {
            r2.store(i, Ordering::SeqCst);
            vp.block();
        }
    });
    let tid = sleeper.tid();
    let (vp2, r3) = (Arc::clone(&vp), Arc::clone(&round));
    let waker = std::thread::spawn(move || {
        for i in 1..=ROUNDS {
            while r3.load(Ordering::SeqCst) != i {
                std::hint::spin_loop();
            }
            vp2.unblock(tid).unwrap();
        }
    });
    let t0 = std::time::Instant::now();
    vp.start();
    waker.join().unwrap();
    sleeper.join().expect("a lost wake-up surfaces as a deadlock report");
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(20),
        "10 000 wake-ups took {:?}: some slept through their wake",
        t0.elapsed()
    );
    let s = vp.stats().snapshot();
    assert_eq!(s.blocks, s.unblocks, "every real block was ended by a real unblock");
}

/// A timed wait on an otherwise empty lane is a sleep: it returns on
/// time and the waiting thread — the lane — burns next to no CPU.
#[test]
fn timed_wait_on_an_idle_lane_sleeps() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |_| {
        let m = UltMutex::new(&vp2, ());
        let cv = UltCondvar::new(&vp2);
        let wait = std::time::Duration::from_millis(300);
        #[cfg(target_os = "linux")]
        let cpu0 = thread_cpu_time();
        let t0 = std::time::Instant::now();
        let (_g, timed_out) = cv.wait_timeout(m.lock().unwrap(), wait).unwrap();
        let took = t0.elapsed();
        assert!(timed_out);
        assert!(took >= wait, "returned early: {took:?}");
        assert!(
            took < wait + std::time::Duration::from_millis(150),
            "returned late: {took:?}"
        );
        #[cfg(target_os = "linux")]
        {
            let burned = thread_cpu_time() - cpu0;
            assert!(
                burned < std::time::Duration::from_millis(30),
                "a 300 ms wait burned {burned:?} of CPU: the lane is spinning"
            );
        }
    })
    .unwrap();
    let s = vp.stats().snapshot();
    assert!(s.idle_spins <= 4, "one park should cover the wait: {s:?}");
    assert_eq!(s.yields, 0, "a timed waiter must not stay ready to watch a clock");
}

/// Several timed waiters: each wakes at its own deadline, nearest
/// first, whatever order they were armed in.
#[test]
fn timed_waiters_wake_in_deadline_order() {
    let vp = vp();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let t0 = std::time::Instant::now();
    for ms in [90u64, 30, 60] {
        let (vp2, order) = (Arc::clone(&vp), Arc::clone(&order));
        vp.spawn(SpawnAttr::new().detached(), move |_| {
            let sem = crate::UltSemaphore::new(&vp2, 0);
            let got = sem
                .acquire_timeout(std::time::Duration::from_millis(ms))
                .unwrap();
            assert!(!got);
            order.lock().push((ms, t0.elapsed()));
        });
    }
    vp.start();
    let order = order.lock();
    let which: Vec<u64> = order.iter().map(|(ms, _)| *ms).collect();
    assert_eq!(which, vec![30, 60, 90]);
    for (ms, at) in order.iter() {
        let due = std::time::Duration::from_millis(*ms);
        assert!(*at >= due, "{ms} ms waiter woke early at {at:?}");
        assert!(
            *at < due + std::time::Duration::from_millis(150),
            "{ms} ms waiter woke late at {at:?}"
        );
    }
}

/// Cancelling a thread in a timed wait ends the wait at once (not at
/// its deadline), and the permit released afterwards reaches the live
/// waiter queued behind it.
#[test]
fn cancelled_timed_waiter_unwinds_promptly_and_is_skipped() {
    let vp = vp();
    let vp2 = Arc::clone(&vp);
    vp.run(move |vp| {
        let sem = crate::UltSemaphore::new(&vp2, 0);
        let s2 = Arc::clone(&sem);
        let victim = vp.spawn(SpawnAttr::new().name("victim"), move |_| {
            let _ = s2.acquire_timeout(std::time::Duration::from_secs(60));
            unreachable!("cancelled in the wait");
        });
        let s3 = Arc::clone(&sem);
        let survivor = vp.spawn(SpawnAttr::new().name("survivor"), move |_| {
            s3.acquire_timeout(std::time::Duration::from_secs(60)).unwrap()
        });
        while vp.thread_info(victim.tid()).unwrap().state != crate::ThreadState::Blocked
            || vp.thread_info(survivor.tid()).unwrap().state != crate::ThreadState::Blocked
        {
            vp.yield_now();
        }
        let t0 = std::time::Instant::now();
        vp.cancel(victim.tid()).unwrap();
        assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
        sem.release();
        assert!(survivor.join().unwrap(), "the permit must reach the live waiter");
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    })
    .unwrap();
}

/// An armed timer is a pending event: a hook-free VP whose only thread
/// sleeps past the deadlock grace in a *timed* block is not deadlocked.
#[test]
fn armed_timer_keeps_the_deadlock_detector_quiet() {
    let vp = vp();
    let h = vp.spawn(SpawnAttr::new(), |vp| {
        let t0 = std::time::Instant::now();
        let deadline = t0 + std::time::Duration::from_millis(1300);
        while std::time::Instant::now() < deadline {
            vp.block_until(deadline);
        }
        t0.elapsed()
    });
    vp.start();
    let took = h.join().expect("a timed block must not be reported as deadlock");
    assert!(took >= std::time::Duration::from_millis(1300));
}

/// A pending poll that reads the clock is re-tested when its timer
/// fires, even though nothing else ever wakes the lane.
#[test]
fn armed_timer_reruns_the_dispatch_check() {
    let vp = vp();
    vp.install_hook(Arc::new(PendingPollHook));
    let h = vp.spawn(SpawnAttr::new(), |vp| {
        let t0 = std::time::Instant::now();
        let deadline = t0 + std::time::Duration::from_millis(50);
        let timer = vp.timer_arm(deadline);
        vp.set_current_pending(Box::new(move || std::time::Instant::now() >= deadline));
        vp.yield_now();
        vp.take_current_pending();
        vp.timer_disarm(timer);
        t0.elapsed()
    });
    vp.start();
    let took = h.join().unwrap();
    assert!(took >= std::time::Duration::from_millis(50), "{took:?}");
    assert!(took < std::time::Duration::from_millis(500), "{took:?}");
    let s = vp.stats().snapshot();
    assert!(
        s.partial_switches <= 8,
        "the lane must sleep between tests, not re-test in a loop: {s:?}"
    );
}

/// An event source outside the VP flips the flag a pending poll reads,
/// then calls `Vp::wake` — the contract Chant's endpoints follow.
#[test]
fn external_wake_reruns_the_dispatch_check() {
    let vp = vp();
    vp.install_hook(Arc::new(PendingPollHook));
    let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let f2 = Arc::clone(&flag);
    let h = vp.spawn(SpawnAttr::new(), move |vp| {
        vp.set_current_pending(Box::new(move || f2.load(Ordering::SeqCst)));
        vp.yield_now();
        vp.take_current_pending();
    });
    let vp2 = Arc::clone(&vp);
    let source = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        flag.store(true, Ordering::SeqCst);
        vp2.wake();
    });
    vp.start();
    source.join().unwrap();
    h.join().unwrap();
    let s = vp.stats().snapshot();
    assert!(s.partial_switches <= 8, "slept, not polled: {s:?}");
}

/// `wait_live_at_most` is woken by the exit that reaches the count.
#[test]
fn wait_live_at_most_returns_on_the_last_exit() {
    let vp = vp();
    let done = Arc::new(AtomicU32::new(0));
    let d2 = Arc::clone(&done);
    vp.run(move |vp| {
        for i in 0..5u64 {
            let d = Arc::clone(&d2);
            vp.spawn(SpawnAttr::new().detached(), move |vp| {
                let until = std::time::Instant::now() + std::time::Duration::from_millis(10 * i);
                while std::time::Instant::now() < until {
                    vp.block_until(until);
                }
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        vp.wait_live_at_most(1);
        assert_eq!(d2.load(Ordering::SeqCst), 5);
        assert_eq!(vp.live_threads(), 1);
    })
    .unwrap();
    assert_eq!(vp.stats().snapshot().yields, 0, "quiescing is a block, not a yield loop");
}

/// `wait_exit` blocks until the thread is gone — detached or not, and
/// claiming nothing.
#[test]
fn wait_exit_follows_a_detached_thread() {
    let vp = vp();
    vp.run(|vp| {
        let gate = crate::UltSemaphore::new(vp, 0);
        let g2 = Arc::clone(&gate);
        let worker = vp.spawn(SpawnAttr::new().name("worker").detached(), move |_| {
            g2.acquire().unwrap();
        });
        let tid = worker.tid();
        while vp.thread_info(tid).unwrap().state != crate::ThreadState::Blocked {
            vp.yield_now();
        }
        gate.release();
        vp.wait_exit(tid);
        assert!(vp.thread_info(tid).is_none(), "a detached thread is reaped at exit");
        vp.wait_exit(tid); // already gone: returns at once
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// User-level contexts: a thread is a stack, not an OS thread
// ---------------------------------------------------------------------

/// Run one `#[ignore]`d test of this binary in a process of its own.
fn run_child(test: &str) -> std::process::Output {
    std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--ignored", "--exact", test, "--test-threads=1", "--nocapture"])
        .output()
        .expect("re-running the test binary")
}

mod contexts {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use proptest::prelude::*;

    use super::run_child;
    use crate::{JoinError, JoinHandle, Priority, SpawnAttr, Tid, TlsKey, Vp, VpConfig};

    // -- the reference-implementation test ------------------------------

    #[derive(Clone, Debug)]
    enum Op {
        Yield,
        /// Wait for an explicit unblock (the releaser's, or a token).
        Block,
        /// `block_until` a deadline that has already passed: returns at once.
        TimedBlockPast,
        /// `block_until` a deadline an hour away: ended by an unblock.
        TimedBlockFuture,
        /// Unblock worker `i` (leaves a token if it is not blocked).
        Unblock(usize),
        Cancel(usize),
        SetPriority(usize, u8),
        /// Spawn a child that yields this many times, joined by main.
        Spawn(u8),
    }

    /// One generated `(kind, target, argument)` triple as an [`Op`] of a
    /// program with `workers` workers.
    fn decode((kind, target, arg): (u8, usize, u8), workers: usize) -> Op {
        let target = target % workers;
        match kind {
            0..=4 => Op::Yield,
            5..=6 => Op::Block,
            7 => Op::TimedBlockPast,
            8 => Op::TimedBlockFuture,
            9..=10 => Op::Unblock(target),
            11 => Op::Cancel(target),
            12..=13 => Op::SetPriority(target, arg % 3),
            _ => Op::Spawn(arg),
        }
    }

    /// Run `program` on a VP and return the order in which
    /// everything happened plus the VP's counters.
    fn execute(vp: Arc<Vp>, program: Vec<Vec<Op>>) -> (Vec<String>, Vec<(&'static str, u64)>) {
        let log = Arc::new(Mutex::new(Vec::<String>::new()));
        let workers = program.len();
        // tids are assigned in spawn order: main is 1, workers 2..
        let tid_of = |w: usize| (w + 2) as Tid;
        let children: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let (l, ch) = (Arc::clone(&log), Arc::clone(&children));
        let main = vp.spawn(SpawnAttr::new().name("main"), move |vp| {
            let say = |l: &Mutex<Vec<String>>, s: String| l.lock().unwrap().push(s);
            let mut handles = Vec::new();
            for (w, ops) in program.into_iter().enumerate() {
                let (l, ch) = (Arc::clone(&l), Arc::clone(&ch));
                handles.push(vp.spawn(SpawnAttr::new(), move |vp| {
                    let me = crate::current_tid().unwrap();
                    assert_eq!(me, tid_of(w));
                    for (k, op) in ops.into_iter().enumerate() {
                        say(&l, format!("t{me} op{k} {op:?}"));
                        match op {
                            Op::Yield => vp.yield_now(),
                            Op::Block => vp.block(),
                            Op::TimedBlockPast => {
                                let past = Instant::now()
                                    .checked_sub(Duration::from_millis(1))
                                    .unwrap_or_else(Instant::now);
                                vp.block_until(past);
                            }
                            Op::TimedBlockFuture => {
                                vp.block_until(Instant::now() + Duration::from_secs(3600));
                            }
                            Op::Unblock(t) => {
                                let r = vp.unblock(tid_of(t));
                                say(&l, format!("t{me} unblock {t} -> {r:?}"));
                            }
                            Op::Cancel(t) => {
                                let r = vp.cancel(tid_of(t));
                                say(&l, format!("t{me} cancel {t} -> {r:?}"));
                            }
                            Op::SetPriority(t, p) => {
                                let r = vp.set_priority(tid_of(t), Priority::from_level(p));
                                say(&l, format!("t{me} prio {t} -> {r:?}"));
                            }
                            Op::Spawn(yields) => {
                                let l2 = Arc::clone(&l);
                                ch.lock().unwrap().push(vp.spawn(SpawnAttr::new(), move |vp| {
                                    let me = crate::current_tid().unwrap();
                                    for y in 0..yields {
                                        say(&l2, format!("child t{me} yield {y}"));
                                        vp.yield_now();
                                    }
                                }));
                            }
                        }
                        say(&l, format!("t{me} op{k} done"));
                    }
                    me
                }));
            }
            // The releaser runs only when nothing of higher priority is
            // ready — i.e. when every worker is blocked or done — and
            // then unblocks them all, so no program can deadlock and the
            // lane is never idle (idle parks would be timing-dependent).
            let releaser = vp.spawn(SpawnAttr::new().priority(Priority::LOW), move |vp| {
                while vp.live_threads() > 1 {
                    for w in 0..workers {
                        let _ = vp.unblock(tid_of(w));
                    }
                    vp.yield_now();
                }
            });
            for (w, h) in handles.into_iter().enumerate() {
                let outcome = match h.join() {
                    Ok(t) => format!("value {t}"),
                    Err(JoinError::Cancelled) => "cancelled".into(),
                    Err(e) => format!("error {e:?}"),
                };
                say(&l, format!("join worker {w}: {outcome}"));
            }
            loop {
                let Some(h) = ch.lock().unwrap().pop() else { break };
                let tid = h.tid();
                say(&l, format!("join child t{tid}: {:?}", h.join().is_ok()));
            }
            drop(releaser);
        });
        vp.start();
        main.join().expect("main panicked");
        let log = std::mem::take(&mut *log.lock().unwrap());
        (log, vp.stats().snapshot().fields())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Why the OS-thread `Context` is kept: it is the reference the
        /// user-level switch is compared against. On a VP a
        /// program's schedule is a pure function of the program, so the
        /// two must produce the same execution log, event for event, and
        /// the same `ult.*` counters.
        #[test]
        fn both_context_kinds_run_the_same_schedule(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u8..16, 0usize..64, 0u8..4), 4..16),
                2..7,
            ),
        ) {
            let workers = raw.len();
            let prog: Vec<Vec<Op>> = raw
                .into_iter()
                .map(|ops| ops.into_iter().map(|op| decode(op, workers)).collect())
                .collect();
            let reference = execute(Vp::new_os_threaded(VpConfig::named("ref")), prog.clone());
            let native = execute(Vp::new(VpConfig::named("ult")), prog);
            prop_assert_eq!(&native.0, &reference.0);
            prop_assert_eq!(&native.1, &reference.1);
            let exited = native.1.iter().find(|(k, _)| *k == "ult.exited").unwrap().1;
            let spawned = native.1.iter().find(|(k, _)| *k == "ult.spawned").unwrap().1;
            prop_assert_eq!(spawned, exited);
        }
    }

    // -- stacks ----------------------------------------------------------

    /// Recurse until `budget` bytes of stack are in use below `base`.
    #[inline(never)]
    fn dig(base: usize, budget: usize, depth: u32) -> u32 {
        let pad = [depth as u8; 512];
        let here = std::hint::black_box(&pad) as *const _ as usize;
        if base - here >= budget {
            return depth;
        }
        let reached = dig(base, budget, depth + 1);
        // Not a tail call: the frame stays live across the recursion.
        std::hint::black_box(pad[depth as usize % 512]);
        reached
    }

    #[test]
    fn a_thread_may_use_ninety_percent_of_the_stack_it_asked_for() {
        const STACK: usize = 64 * 1024;
        let vp = Vp::new(VpConfig::named("deep"));
        let h = vp.spawn(SpawnAttr::new().stack_size(STACK), |vp| {
            let marker = 0u8;
            let base = std::hint::black_box(&marker) as *const u8 as usize;
            let depth = dig(base, STACK * 9 / 10, 0);
            // The scheduler still fits on what is left once we are back up.
            vp.yield_now();
            depth
        });
        vp.start();
        assert!(h.join().unwrap() > 50);
    }

    #[test]
    fn a_panic_and_a_cancel_leave_the_lane_running() {
        let vp = Vp::new(VpConfig::named("after"));
        let panicker = vp.spawn(SpawnAttr::new().name("panicker"), |vp| {
            vp.yield_now();
            panic!("boom on a user-level stack");
        });
        let victim = vp.spawn(SpawnAttr::new().name("victim"), |vp| loop {
            vp.yield_now();
        });
        let vt = victim.tid();
        let last = vp.spawn(SpawnAttr::new().name("last"), move |vp| {
            vp.yield_now();
            vp.cancel(vt).unwrap();
            // Both are gone by the time this has been around the queue
            // a few times; the lane still runs us.
            for _ in 0..5 {
                vp.yield_now();
            }
            "still here"
        });
        vp.start();
        match panicker.join() {
            Err(JoinError::Panicked(p)) => {
                assert_eq!(*p.downcast::<&str>().unwrap(), "boom on a user-level stack");
            }
            other => panic!("expected Panicked, got {:?}", other.map(|_| ())),
        }
        assert!(matches!(victim.join(), Err(JoinError::Cancelled)));
        assert_eq!(last.join().unwrap(), "still here");
    }

    // -- one OS thread per VP ---------------------------------------------

    /// The OS thread executing the caller. Not inlined, so that it reads
    /// the OS thread running it now even where a caller's cached
    /// thread-local would not.
    #[inline(never)]
    fn this_os_thread() -> std::thread::ThreadId {
        std::thread::current().id()
    }

    thread_local! {
        /// Set before every switch by each thread to its VP's number:
        /// what any thread of a VP reads back there is that VP's number.
        static VP_MARK: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// What a thread checks after every resume: it is on the OS thread
    /// that called its VP's `start`, it is still itself (`current_tid`,
    /// a `TlsKey` value), and an OS thread-local it wrote before the
    /// switch kept its value.
    fn assert_at_home(
        host: std::thread::ThreadId,
        mark: usize,
        me: Tid,
        key: TlsKey<usize>,
        i: usize,
    ) {
        assert_eq!(this_os_thread(), host, "tid {me} resumed on a foreign OS thread");
        assert_eq!(crate::current_tid(), Some(me));
        assert_eq!(key.get(), Some(i));
        assert_eq!(
            VP_MARK.with(Cell::get),
            mark,
            "tid {me}: a thread_local! changed under it"
        );
    }

    #[test]
    fn every_thread_resumes_on_the_os_thread_that_called_start() {
        const PAIRS: usize = 8;
        const BUSY: usize = 16;
        const ROUNDS: usize = 200;
        // VP `a` runs on this OS thread; `b`, on a second one, holds the
        // partner of each of `a`'s blocking threads: every wake-up of a
        // blocked thread comes from the other VP's OS thread.
        let (a, b) = (Vp::new(VpConfig::named("a")), Vp::new(VpConfig::named("b")));
        let a_host = this_os_thread();
        let b_host: Arc<std::sync::OnceLock<std::thread::ThreadId>> = Arc::default();
        let key: TlsKey<usize> = TlsKey::new();
        let mut hs = Vec::new();
        for j in 0..PAIRS {
            let partner = Arc::new(AtomicU32::new(0));
            let (p, b2) = (Arc::clone(&partner), Arc::clone(&b));
            let blocker = a.spawn(SpawnAttr::new(), move |vp| {
                let me = crate::current_tid().unwrap();
                key.set(j);
                for _ in 0..ROUNDS {
                    VP_MARK.with(|m| m.set(0));
                    b2.unblock(p.load(Ordering::Relaxed)).unwrap();
                    vp.block();
                    assert_at_home(a_host, 0, me, key, j);
                }
            });
            let (target, a2, host) = (blocker.tid(), Arc::clone(&a), Arc::clone(&b_host));
            let unblocker = b.spawn(SpawnAttr::new(), move |vp| {
                let me = crate::current_tid().unwrap();
                let host = *host.get().unwrap();
                key.set(PAIRS + j);
                for _ in 0..ROUNDS {
                    VP_MARK.with(|m| m.set(1));
                    vp.block();
                    assert_at_home(host, 1, me, key, PAIRS + j);
                    a2.unblock(target).unwrap();
                }
            });
            partner.store(unblocker.tid(), Ordering::Relaxed);
            hs.extend([blocker, unblocker]);
        }
        // Work between yields: whenever an unblock arrives from `b`, `a`
        // is as likely to be running as asleep.
        for i in 0..BUSY {
            hs.push(a.spawn(SpawnAttr::new(), move |vp| {
                let me = crate::current_tid().unwrap();
                key.set(2 * PAIRS + i);
                for _ in 0..ROUNDS {
                    for _ in 0..200 {
                        std::hint::spin_loop();
                    }
                    VP_MARK.with(|m| m.set(0));
                    vp.yield_now();
                    assert_at_home(a_host, 0, me, key, 2 * PAIRS + i);
                }
            }));
        }
        let b_lane = std::thread::spawn(move || {
            b_host.set(this_os_thread()).unwrap();
            b.start();
        });
        a.start();
        b_lane.join().unwrap();
        for h in hs {
            h.join().unwrap();
        }
    }

    // -- child processes -------------------------------------------------

    fn count_lines(path: &str) -> usize {
        std::fs::read_to_string(path).unwrap().lines().count()
    }

    /// Spawn `n` threads that all exist at once, let each take a turn,
    /// join them; returns the most OS threads seen while they lived.
    fn batch(n: usize) -> usize {
        let vp = Vp::new(VpConfig::named("many"));
        let tasks = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..n)
            .map(|i| {
                let tasks = Arc::clone(&tasks);
                vp.spawn(SpawnAttr::new(), move |vp| {
                    vp.yield_now();
                    if i % 1000 == 0 {
                        let now = std::fs::read_dir("/proc/self/task").unwrap().count();
                        tasks.fetch_max(now, Ordering::Relaxed);
                    }
                    i
                })
            })
            .collect();
        vp.start();
        for (i, h) in hs.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i);
        }
        tasks.load(Ordering::Relaxed)
    }

    #[test]
    #[ignore = "child body of ten_thousand_threads_are_stacks_not_os_threads"]
    fn child_ten_thousand_threads() {
        if !cfg!(chant_native_ctx) {
            return;
        }
        let few = batch(100);
        let many = batch(10_000);
        assert_eq!(many, few, "OS threads grew with the thread count");
        let after_first = count_lines("/proc/self/maps");
        assert_eq!(batch(10_000), few);
        let after_second = count_lines("/proc/self/maps");
        assert_eq!(
            after_second, after_first,
            "stacks are neither recycled nor unmapped"
        );
    }

    /// Alone in a process: the counts are the whole process's.
    #[test]
    fn ten_thousand_threads_are_stacks_not_os_threads() {
        let out = run_child("tests::contexts::child_ten_thousand_threads");
        assert!(
            out.status.success(),
            "{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[inline(never)]
    #[allow(unconditional_recursion)]
    fn overflow(depth: u64) -> u64 {
        let pad = [depth; 64];
        let below = overflow(depth + 1);
        std::hint::black_box(pad[(below % 64) as usize]) + below
    }

    #[test]
    #[ignore = "child body of a_stack_overflow_dies_by_signal"]
    fn child_stack_overflow() {
        let vp = Vp::new(VpConfig::named("overflow"));
        let h = vp.spawn(SpawnAttr::new().stack_size(64 * 1024), |_| overflow(0));
        vp.start();
        println!("survived: {:?}", h.join().ok());
    }

    /// An overflow runs into the guard page: the process dies by signal.
    /// It does not carry on with a neighbour's memory overwritten.
    #[cfg(chant_native_ctx)]
    #[test]
    fn a_stack_overflow_dies_by_signal() {
        use std::os::unix::process::ExitStatusExt;
        let out = run_child("tests::contexts::child_stack_overflow");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("survived"), "{stdout}");
        let signal = out.status.signal();
        assert!(
            matches!(signal, Some(11 | 7 | 6)),
            "expected death by SIGSEGV/SIGBUS/SIGABRT, got {:?}\n{stdout}",
            out.status
        );
    }

    /// The OS thread's name used to name the user-level thread in a
    /// panic report; the hook does now.
    #[test]
    #[ignore = "child body of a_panic_report_names_the_user_level_thread"]
    fn child_named_panic() {
        let vp = Vp::new(VpConfig::named("pe7"));
        let h = vp.spawn(SpawnAttr::new().name("subscriber-3"), |_| panic!("lost my place"));
        vp.start();
        assert!(h.join().is_err());
    }

    #[test]
    fn a_panic_report_names_the_user_level_thread() {
        let out = run_child("tests::contexts::child_named_panic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let at = stderr
            .find("user-level thread 'subscriber-3' (tid 1) of VP 'pe7' panicked:")
            .unwrap_or_else(|| panic!("no prefix in:\n{stderr}"));
        assert!(stderr[at..].contains("lost my place"), "{stderr}");
    }
}

// ---------------------------------------------------------------------
// Parking: a lane's sleep is an epoll set (Linux) holding an eventfd
// ---------------------------------------------------------------------

mod parking {
    use std::time::{Duration, Instant};

    use crate::park::{Parker, Woke};
    #[cfg(target_os = "linux")]
    use {
        super::run_child,
        crate::sys::EventFd,
        crate::{SpawnAttr, Vp, VpConfig},
    };

    /// A timer deadline below a millisecond is slept to, not rounded
    /// down to a poll — nor does a stale wake-up cut it short.
    #[test]
    fn a_sub_millisecond_park_never_returns_before_its_deadline() {
        let p = Parker::new();
        for round in 0..200 {
            // A stale eventfd write, left by an unpark that lost its
            // race with a timeout: drained, and slept through.
            #[cfg(target_os = "linux")]
            if round % 50 == 0 {
                p.unparks.signal();
            }
            let t0 = Instant::now();
            let woke = p.park(Some(Duration::from_micros(300)));
            let slept = t0.elapsed();
            assert_eq!(woke, Woke::default(), "round {round}");
            assert!(slept >= Duration::from_micros(300), "round {round}: woke after {slept:?}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_watched_fd_ends_the_park_while_it_stays_ready() {
        let p = Parker::new();
        let source = EventFd::new().unwrap();
        p.watch(source.fd()).unwrap();
        assert!(!p.park(Some(Duration::from_millis(5))).source, "quiet source");
        source.signal();
        let t0 = Instant::now();
        let woke = p.park(Some(Duration::from_secs(5)));
        assert_eq!(woke, Woke { unparked: false, source: true });
        assert!(p.park(None).source, "level-triggered: still ready");
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    /// Counts of this process's epoll and eventfd instances.
    #[cfg(target_os = "linux")]
    fn wait_fds() -> (usize, usize) {
        let (mut epolls, mut eventfds) = (0, 0);
        for fd in std::fs::read_dir("/proc/self/fd").unwrap().flatten() {
            match std::fs::read_link(fd.path()).map(|p| p.display().to_string()) {
                Ok(l) if l == "anon_inode:[eventpoll]" => epolls += 1,
                Ok(l) if l == "anon_inode:[eventfd]" => eventfds += 1,
                _ => {}
            }
        }
        (epolls, eventfds)
    }

    #[cfg(target_os = "linux")]
    #[test]
    #[ignore = "child body of a_dropped_vp_closes_its_lane_fds"]
    fn child_dropped_vp_fds() {
        let before = wait_fds();
        let vp = Vp::new(VpConfig::named("fds"));
        assert_eq!(wait_fds(), (before.0 + 1, before.1 + 1), "one set and one eventfd per VP");
        let watched = EventFd::new().unwrap();
        vp.set_progress(watched.fd(), || {}, || {});
        let h = vp.spawn(SpawnAttr::new(), |vp| vp.yield_now());
        vp.start();
        h.join().unwrap();
        drop(vp);
        drop(watched);
        assert_eq!(wait_fds(), before, "a dropped VP leaked its parkers' fds");
    }

    /// Alone in a process: the fd table is the whole process's.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_dropped_vp_closes_its_lane_fds() {
        let out = run_child("tests::parking::child_dropped_vp_fds");
        assert!(
            out.status.success(),
            "{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
