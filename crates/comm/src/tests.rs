//! Behavioural tests for the message layer.

use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::{kind, testany, Address, CommWorld, CtxMatch, RecvSpec, ANY_TAG};

fn b(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

#[test]
fn send_to_posted_receive_is_zero_copy_path() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    let h = bep.irecv(RecvSpec::tag(7));
    assert!(!h.msgtest());
    a.isend(Address::new(1, 0), 7, 0, kind::DATA, b("ping"));
    assert!(h.msgtest());
    let (hdr, body) = h.take().unwrap();
    assert_eq!(hdr.src, Address::new(0, 0));
    assert_eq!(hdr.tag, 7);
    assert_eq!(&body[..], b"ping");

    let s = bep.stats().snapshot();
    assert_eq!(s.posted_matches, 1, "must take the zero-copy path");
    assert_eq!(s.unexpected_buffered, 0);
}

#[test]
fn early_message_goes_through_unexpected_queue() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    a.isend(Address::new(1, 0), 3, 0, kind::DATA, b("early"));
    assert_eq!(bep.unexpected_len(), 1);

    let h = bep.irecv(RecvSpec::tag(3));
    assert!(h.msgtest());
    assert_eq!(&h.take().unwrap().1[..], b"early");

    let s = bep.stats().snapshot();
    assert_eq!(s.unexpected_buffered, 1, "early arrival must be buffered");
    assert_eq!(s.unexpected_claimed, 1);
    assert_eq!(s.posted_matches, 0);
    assert_eq!(bep.unexpected_len(), 0);
}

#[test]
fn per_sender_fifo_ordering_same_tag() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    let h1 = bep.irecv(RecvSpec::tag(1));
    let h2 = bep.irecv(RecvSpec::tag(1));
    a.isend(dst, 1, 0, kind::DATA, b("first"));
    a.isend(dst, 1, 0, kind::DATA, b("second"));
    assert_eq!(&h1.take().unwrap().1[..], b"first");
    assert_eq!(&h2.take().unwrap().1[..], b"second");
}

#[test]
fn fifo_holds_when_receives_are_posted_late() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    a.isend(dst, 1, 0, kind::DATA, b("first"));
    a.isend(dst, 1, 0, kind::DATA, b("second"));
    let h1 = bep.irecv(RecvSpec::tag(1));
    let h2 = bep.irecv(RecvSpec::tag(1));
    assert_eq!(&h1.take().unwrap().1[..], b"first");
    assert_eq!(&h2.take().unwrap().1[..], b"second");
}

#[test]
fn tag_selectivity_skips_nonmatching_messages() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    a.isend(dst, 10, 0, kind::DATA, b("ten"));
    a.isend(dst, 20, 0, kind::DATA, b("twenty"));
    let h20 = bep.irecv(RecvSpec::tag(20));
    assert_eq!(&h20.take().unwrap().1[..], b"twenty");
    assert_eq!(bep.unexpected_len(), 1, "tag-10 message still queued");
    let h10 = bep.irecv(RecvSpec::tag(10));
    assert_eq!(&h10.take().unwrap().1[..], b"ten");
}

#[test]
fn source_selectivity() {
    let world = CommWorld::flat(3);
    let a = world.endpoint(Address::new(0, 0));
    let c = world.endpoint(Address::new(2, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    let from_c = bep.irecv(RecvSpec::tag(ANY_TAG).from(Address::new(2, 0)));
    a.isend(dst, 1, 0, kind::DATA, b("from-a"));
    assert!(!from_c.msgtest(), "message from A must not satisfy it");
    c.isend(dst, 1, 0, kind::DATA, b("from-c"));
    assert!(from_c.msgtest());
    assert_eq!(&from_c.take().unwrap().1[..], b"from-c");
}

#[test]
fn ctx_field_routes_within_a_process() {
    // Two "threads" (ctx values) in one process; each posts a receive for
    // its own ctx. Delivery must respect the header's ctx, exactly as the
    // paper requires thread names in the header (§3.1, delivery issue).
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    let t1 = bep.irecv(RecvSpec::any().ctx(CtxMatch::exact(1)));
    let t2 = bep.irecv(RecvSpec::any().ctx(CtxMatch::exact(2)));
    a.isend(dst, 0, 2, kind::DATA, b("for-t2"));
    a.isend(dst, 0, 1, kind::DATA, b("for-t1"));
    assert_eq!(&t1.take().unwrap().1[..], b"for-t1");
    assert_eq!(&t2.take().unwrap().1[..], b"for-t2");
}

#[test]
fn kind_separates_rsr_from_data() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    let server = bep.irecv(RecvSpec::any().kind(kind::RSR));
    a.isend(dst, 0, 0, kind::DATA, b("data"));
    assert!(!server.msgtest(), "DATA must not reach the RSR receive");
    a.isend(dst, 0, 0, kind::RSR, b("request"));
    assert!(server.msgtest());
    assert_eq!(&server.take().unwrap().1[..], b"request");
}

#[test]
fn iprobe_sees_unexpected_without_consuming() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    assert!(!bep.iprobe(RecvSpec::tag(4)));
    a.isend(Address::new(1, 0), 4, 0, kind::DATA, b("x"));
    assert!(bep.iprobe(RecvSpec::tag(4)));
    assert!(bep.iprobe(RecvSpec::tag(4)), "probe must not consume");
    assert_eq!(bep.unexpected_len(), 1);
}

#[test]
fn blocking_crecv_from_plain_os_thread() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    let t = std::thread::spawn(move || bep.crecv(RecvSpec::tag(9)));
    std::thread::sleep(std::time::Duration::from_millis(5));
    a.csend(Address::new(1, 0), 9, 0, kind::DATA, b("blocking"));
    let (hdr, body) = t.join().unwrap();
    assert_eq!(hdr.tag, 9);
    assert_eq!(&body[..], b"blocking");
}

#[test]
fn send_is_locally_blocking_buffer_reusable() {
    // NX csend semantics: "returns when the data being sent can be
    // modified". With Bytes the transfer is refcounted; mutating the
    // original buffer after send must not corrupt the message.
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    let mut buf = vec![1u8, 2, 3];
    a.isend(
        Address::new(1, 0),
        0,
        0,
        kind::DATA,
        Bytes::copy_from_slice(&buf),
    );
    buf[0] = 99; // reuse the buffer immediately
    let h = bep.irecv(RecvSpec::any());
    assert_eq!(&h.take().unwrap().1[..], &[1, 2, 3]);
}

#[test]
fn stats_totals_across_world() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    for i in 0..5 {
        a.isend(dst, i, 0, kind::DATA, b("12345678"));
    }
    for i in 0..5 {
        let h = bep.irecv(RecvSpec::tag(i));
        h.take().unwrap();
    }
    let t = world.total_stats();
    assert_eq!(t.sends, 5);
    assert_eq!(t.recvs_posted, 5);
    assert_eq!(t.bytes_sent, 40);
    assert_eq!(t.bytes_received, 40);
    assert_eq!(t.unexpected_buffered, 5);
    assert_eq!(t.unexpected_claimed, 5);
}

#[test]
fn testany_across_endpoints() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let dst = Address::new(1, 0);

    let h1 = bep.irecv(RecvSpec::tag(1));
    let h2 = bep.irecv(RecvSpec::tag(2));
    let h3 = bep.irecv(RecvSpec::tag(3));
    assert_eq!(testany(&[&h1, &h2, &h3]), None);
    a.isend(dst, 2, 0, kind::DATA, b("two"));
    assert_eq!(testany(&[&h1, &h2, &h3]), Some(1));
}

#[test]
fn self_send_works() {
    // A process may message itself (Chant threads in one process do).
    let world = CommWorld::flat(1);
    let a = world.endpoint(Address::new(0, 0));
    let h = a.irecv(RecvSpec::tag(1));
    a.isend(Address::new(0, 0), 1, 0, kind::DATA, b("loop"));
    assert_eq!(&h.take().unwrap().1[..], b"loop");
}

#[test]
#[should_panic(expected = "outside world")]
fn out_of_range_address_panics() {
    let world = CommWorld::flat(2);
    world.endpoint(Address::new(5, 0));
}

#[test]
fn multi_process_per_pe_addressing() {
    let world = CommWorld::new(2, 3);
    assert_eq!(world.len(), 6);
    let src = world.endpoint(Address::new(0, 2));
    let dst_ep = world.endpoint(Address::new(1, 1));
    let h = dst_ep.irecv(RecvSpec::any());
    src.isend(Address::new(1, 1), 0, 0, kind::DATA, b("hi"));
    let (hdr, _) = h.take().unwrap();
    assert_eq!(hdr.src, Address::new(0, 2));
    assert_eq!(hdr.dst, Address::new(1, 1));
}

#[test]
fn concurrent_senders_one_receiver() {
    let world = CommWorld::flat(3);
    let dst = Address::new(0, 0);
    let rx = world.endpoint(dst);
    let mut handles = Vec::new();
    for pe in 1..3u32 {
        let world = world.clone();
        handles.push(std::thread::spawn(move || {
            let ep = world.endpoint(Address::new(pe, 0));
            for i in 0..100 {
                ep.isend(dst, i, 0, kind::DATA, Bytes::from(vec![pe as u8]));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut got = 0;
    while rx.unexpected_len() > 0 {
        let h = rx.irecv(RecvSpec::any());
        assert!(h.msgtest());
        h.take().unwrap();
        got += 1;
    }
    assert_eq!(got, 200);
}

#[test]
fn outstanding_recvs_counter_tracks_posts_and_matches() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    assert_eq!(bep.outstanding_recvs(), 0);
    let h1 = bep.irecv(RecvSpec::tag(1));
    let h2 = bep.irecv(RecvSpec::tag(2));
    assert_eq!(bep.outstanding_recvs(), 2);
    a.isend(Address::new(1, 0), 2, 0, kind::DATA, b("x"));
    assert_eq!(bep.outstanding_recvs(), 1, "tag-2 receive matched");
    drop(h2);
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("y"));
    assert_eq!(bep.outstanding_recvs(), 0);
    assert_eq!(&h1.take().unwrap().1[..], b"y");
}

#[test]
fn iprobe_then_crecv_consumes_the_probed_message() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    a.isend(Address::new(1, 0), 6, 0, kind::DATA, b("probed"));
    assert!(bep.iprobe(RecvSpec::tag(6)));
    let (_, body) = bep.crecv(RecvSpec::tag(6));
    assert_eq!(&body[..], b"probed");
    assert!(!bep.iprobe(RecvSpec::tag(6)), "consumed by the crecv");
}

// ---------------------------------------------------------------------
// Retire-on-drop (abandoned posted receives) and timed waits
// ---------------------------------------------------------------------

#[test]
fn dropped_handle_retires_its_posted_receive() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    let h = bep.irecv(RecvSpec::tag(9));
    assert_eq!(bep.outstanding_recvs(), 1);
    drop(h);
    assert_eq!(bep.outstanding_recvs(), 0, "abandoned receive must retire");
    assert_eq!(bep.stats().snapshot().posted_retired, 1);

    // Regression: the message must NOT match the dead receive — it goes
    // to the unexpected queue where a live receive can still claim it.
    a.isend(Address::new(1, 0), 9, 0, kind::DATA, b("late"));
    assert_eq!(bep.unexpected_len(), 1);
    let h2 = bep.irecv(RecvSpec::tag(9));
    assert_eq!(&h2.take().unwrap().1[..], b"late", "message must survive");
}

#[test]
fn clones_share_one_retire_token() {
    let world = CommWorld::flat(2);
    let bep = world.endpoint(Address::new(1, 0));
    let h = bep.irecv(RecvSpec::tag(4));
    let h2 = h.clone();
    drop(h);
    assert_eq!(bep.outstanding_recvs(), 1, "a live clone keeps the post");
    drop(h2);
    assert_eq!(bep.outstanding_recvs(), 0);
}

#[test]
fn completed_receive_is_not_retired_on_drop() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let h = bep.irecv(RecvSpec::tag(5));
    a.isend(Address::new(1, 0), 5, 0, kind::DATA, b("x"));
    assert!(h.is_complete());
    drop(h);
    assert_eq!(bep.stats().snapshot().posted_retired, 0);
}

#[test]
fn explicit_retire_settles_the_race_between_giving_up_and_an_arrival() {
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    // Gave up first: retired unmatched, and a later arrival is buffered
    // for the next receive instead of vanishing into this one.
    let h = bep.irecv(RecvSpec::tag(7));
    assert!(h.retire(), "nothing had arrived: the receive is retired");
    assert!(!h.retire(), "retiring is once-only");
    assert_eq!(bep.outstanding_recvs(), 0);
    a.isend(Address::new(1, 0), 7, 0, kind::DATA, b("late"));
    assert!(!h.is_complete(), "a retired receive can no longer be matched");
    assert_eq!(&bep.irecv(RecvSpec::tag(7)).take().unwrap().1[..], b"late");

    // The arrival won: retire says so, and the message is there to take
    // — a caller on its way out with a timeout must deliver it.
    let h = bep.irecv(RecvSpec::tag(8));
    a.isend(Address::new(1, 0), 8, 0, kind::DATA, b("just in time"));
    assert!(!h.retire(), "it matched before it could be retired");
    assert_eq!(&h.take().unwrap().1[..], b"just in time");

    // A receive satisfied at posting time has nothing to retire.
    a.isend(Address::new(1, 0), 9, 0, kind::DATA, b("early"));
    let h = bep.irecv(RecvSpec::tag(9));
    assert!(!h.retire());
    assert_eq!(&h.take().unwrap().1[..], b"early");
    assert_eq!(bep.stats().snapshot().posted_retired, 1);
}

#[test]
fn delivery_runs_the_waker_for_posted_and_unexpected_arrivals() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let wakes = Arc::new(AtomicU32::new(0));
    let w = Arc::clone(&wakes);
    bep.set_waker(move || {
        w.fetch_add(1, Ordering::SeqCst);
    });
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("unexpected"));
    assert_eq!(wakes.load(Ordering::SeqCst), 1, "an unexpected enqueue wakes");
    let h = bep.irecv(RecvSpec::tag(2));
    a.isend(Address::new(1, 0), 2, 0, kind::DATA, b("posted"));
    assert_eq!(wakes.load(Ordering::SeqCst), 2, "a posted match wakes");
    assert!(h.is_complete(), "and the message is visible by then");
    a.isend(Address::new(0, 0), 3, 0, kind::DATA, b("elsewhere"));
    assert_eq!(wakes.load(Ordering::SeqCst), 2, "other endpoints' arrivals do not");
}

#[test]
fn msgwait_timeout_expires_then_succeeds() {
    use std::time::Duration;
    let world = CommWorld::flat(2);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let h = bep.irecv(RecvSpec::tag(6));
    assert!(!h.msgwait_timeout(Duration::from_millis(10)));
    a.isend(Address::new(1, 0), 6, 0, kind::DATA, b("now"));
    assert!(h.msgwait_timeout(Duration::from_millis(10)));
}

// ---------------------------------------------------------------------
// Fault shim
// ---------------------------------------------------------------------

#[test]
fn quiet_shim_changes_nothing() {
    let world = CommWorld::with_faults(2, 1, crate::FaultConfig::new(1));
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let h = bep.irecv(RecvSpec::tag(1));
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("hi"));
    assert!(h.msgtest());
    let fs = world.fault_stats().unwrap();
    assert_eq!(fs.passed, 1);
    assert_eq!(fs.dropped + fs.duplicated + fs.delayed + fs.reordered, 0);
}

#[test]
fn full_drop_loses_every_message() {
    let world = CommWorld::with_faults(2, 1, crate::FaultConfig::new(2).drop_p(1.0));
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let h = bep.irecv(RecvSpec::tag(1));
    for _ in 0..10 {
        a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("void"));
    }
    assert!(!h.msgtest());
    assert_eq!(world.fault_stats().unwrap().dropped, 10);
}

#[test]
fn full_duplication_delivers_twice_eventually() {
    let world = CommWorld::with_faults(2, 1, crate::FaultConfig::new(3).dup_p(1.0));
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("twice"));
    // Original is synchronous; the copy arrives via the deliverer.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while bep.unexpected_len() < 2 {
        assert!(std::time::Instant::now() < deadline, "copy never arrived");
        std::thread::yield_now();
    }
    assert_eq!(world.fault_stats().unwrap().duplicated, 1);
}

#[test]
fn delayed_message_arrives_late_but_arrives() {
    let mut cfg = crate::FaultConfig::new(4).delay_p(1.0);
    cfg.delay_ns = (1_000_000, 2_000_000);
    let world = CommWorld::with_faults(2, 1, cfg);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let h = bep.irecv(RecvSpec::tag(1));
    let start = Instant::now();
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("held"));
    assert!(!h.is_complete(), "delayed message must not arrive inline");
    h.msgwait(); // OS-thread wait is fine in a plain test
    let elapsed = start.elapsed();
    assert!(elapsed >= Duration::from_millis(1), "arrived too early: {elapsed:?}");
    assert_eq!(&h.take().unwrap().1[..], b"held");
    assert_eq!(world.fault_stats().unwrap().delayed, 1);
}

#[test]
fn constant_hold_keeps_a_link_fifo() {
    // With every message held for the same time, due times rise with
    // send order, so a large message sent first is not overtaken by a
    // small one behind it on the same link.
    let mut cfg = crate::FaultConfig::new(5).delay_p(1.0);
    cfg.delay_ns = (2_000_000, 2_000_000);
    let world = CommWorld::with_faults(2, 1, cfg);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));
    let h1 = bep.irecv(RecvSpec::tag(1));
    let h2 = bep.irecv(RecvSpec::tag(1));
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, Bytes::from(vec![1u8; 8192]));
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, Bytes::from(vec![2u8; 1]));
    h1.msgwait();
    h2.msgwait();
    assert_eq!(h1.take().unwrap().1[0], 1, "first sent, first delivered");
    assert_eq!(h2.take().unwrap().1[0], 2);
    assert_eq!(world.fault_stats().unwrap().delayed, 2);
}

#[test]
fn delayed_world_teardown_is_clean() {
    let mut cfg = crate::FaultConfig::new(6).delay_p(1.0);
    cfg.delay_ns = (50_000_000, 50_000_000);
    let world = CommWorld::with_faults(2, 1, cfg);
    let a = world.endpoint(Address::new(0, 0));
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("never delivered"));
    assert_eq!(world.fault_stats().unwrap().delayed, 1);
    drop(a);
    drop(world); // must not hang or panic with a message still held
}

#[test]
fn reordering_lets_later_traffic_overtake() {
    // Hold every data message for a fixed 30 ms; control-range tags are
    // exempt, so a control message sent *after* a held data message must
    // arrive *before* it — the per-sender FIFO guarantee is broken, which
    // is exactly what the reorder fault models.
    let mut cfg = crate::FaultConfig::new(6).reorder_p(1.0);
    cfg.reorder_delay_ns = (30_000_000, 30_000_000);
    let world = CommWorld::with_faults(2, 1, cfg);
    let a = world.endpoint(Address::new(0, 0));
    let bep = world.endpoint(Address::new(1, 0));

    let held = bep.irecv(RecvSpec::tag(1));
    a.isend(Address::new(1, 0), 1, 0, kind::DATA, b("held"));
    a.isend(Address::new(1, 0), 0xFF01, 0, kind::DATA, b("ctrl"));
    assert_eq!(
        bep.unexpected_len(),
        1,
        "control-range message passes the shim synchronously"
    );
    assert!(!held.is_complete(), "reordered message must still be in flight");
    held.msgwait();
    assert_eq!(&held.take().unwrap().1[..], b"held");
    assert_eq!(world.fault_stats().unwrap().reordered, 1);
}

/// The world's last reference can drop inside a socket turn: a delivery
/// holds a transient upgrade, and the endpoint's waker — run inside the
/// delivery — drops every other handle. Teardown then starts on the
/// thread that holds the reactor, and must not wait for it.
#[cfg(target_os = "linux")]
#[test]
fn world_dropped_inside_a_socket_turn_tears_down_on_that_thread() {
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    let world = CommWorld::with_transport(2, 1, crate::TransportConfig::tcp_event_loopback());
    let progress = world.progress().expect("the socket backend is driven by its waiters");
    let last = Arc::new(Mutex::new(Some(world.clone())));
    let slot = Arc::clone(&last);
    world
        .endpoint(Address::new(1, 0))
        .set_waker(move || drop(slot.lock().unwrap().take()));
    world
        .endpoint(Address::new(0, 0))
        .isend(Address::new(1, 0), 1, 0, kind::DATA, b("last"));
    drop(world);
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        while last.lock().unwrap().is_some() {
            progress.turn(true);
        }
        // The world is gone: a turn now finds no transport to run.
        progress.turn(true);
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(20))
        .expect("teardown inside a socket turn deadlocked");
}
