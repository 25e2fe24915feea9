//! End-to-end checks of the observability layer on a live cluster:
//! trace-event balance (every dispatch is closed by exactly one
//! block/yield/exit of the same thread), histogram/counter agreement,
//! and Perfetto-export validity.
//!
//! The tracer and the metrics registry are process-global, so all the
//! assertions live in one `#[test]` with one installed tracer.

use chant::chant::{ChantCluster, ChanterId, PollingPolicy};
use chant_comm::Address;
use chant_ult::SpawnAttr;

const FN_ECHO: u32 = 1000;

#[test]
fn live_trace_balances_and_matches_metrics() {
    assert!(
        chant_obs::tracer::install(),
        "tracer must install before any cluster exists"
    );

    // One lane per VP whatever `CHANT_VPS` says: a VP has one trace
    // lane, and dispatch/departure balance holds per OS lane.
    let cluster = ChantCluster::builder()
        .pes(2)
        .vps(1)
        .policy(PollingPolicy::SchedulerPollsPs)
        .rsr_handler(FN_ECHO, |_node, req| Ok(req.args))
        .build();

    cluster.run(|node| {
        // Point-to-point traffic: both posted-receive and unexpected
        // deliveries, so every comm histogram gets samples.
        let me = node.self_id();
        let partner = ChanterId::new(1 - me.pe, 0, me.thread);
        let mut ids = Vec::new();
        for i in 0..3u32 {
            ids.push(node.spawn(SpawnAttr::new(), move |n| {
                let me = n.self_id();
                let partner = ChanterId::new(1 - me.pe, 0, me.thread);
                let tag = (i + 1) as i32;
                for _ in 0..10 {
                    n.send(partner, tag, b"ping").unwrap();
                    n.recv_tag(tag).unwrap();
                }
            }));
        }
        for id in ids {
            node.remote_join(id).unwrap();
        }
        // One RPC per node so the server lane records serve/done pairs.
        let reply = node
            .rsr_call(Address::new(1 - me.pe, 0), FN_ECHO, b"echo me")
            .unwrap();
        assert_eq!(&reply[..], b"echo me");
        let _ = partner;
    });

    let lanes = chant_obs::tracer::drain();
    assert!(!lanes.is_empty(), "tracer captured no lanes");
    for lane in &lanes {
        assert_eq!(lane.dropped, 0, "lane {} dropped events", lane.name);
    }

    // 1. Per-VP trace balance: the run is over and every thread exited,
    // so dispatches == departures and no run is left open.
    let mut total_dispatches = 0u64;
    for lane in lanes.iter().filter(|l| l.name.starts_with("pe")) {
        let report = chant_obs::check_balance(&lane.events)
            .unwrap_or_else(|e| panic!("lane {} unbalanced: {e}", lane.name));
        assert_eq!(
            report.dispatches, report.departures,
            "lane {}: dispatches != departures",
            lane.name
        );
        assert_eq!(
            report.open_thread, None,
            "lane {}: a thread run is still open after shutdown",
            lane.name
        );
        assert!(report.dispatches > 0, "lane {} saw no dispatches", lane.name);
        total_dispatches += report.dispatches;
    }
    assert!(total_dispatches > 0, "no scheduler lanes were captured");

    // 2. Histogram totals agree with the counters the cluster folded
    // into the registry: each latency sample was recorded at exactly
    // one counted transition.
    let reg = chant_obs::registry();
    assert_eq!(
        reg.histogram("ult.blocked_ns").count(),
        reg.counter("ult.unblocks").get(),
        "one blocked-time sample per unblock"
    );
    assert_eq!(
        reg.histogram("comm.recv_wait_ns").count(),
        reg.counter("comm.posted_matches").get(),
        "one recv-wait sample per posted match"
    );
    assert_eq!(
        reg.histogram("comm.unexpected_park_ns").count(),
        reg.counter("comm.unexpected_claimed").get(),
        "one park-time sample per claimed unexpected message"
    );
    // The RSR echo ran on both nodes' servers.
    assert!(reg.histogram("core.rsr_service_ns").count() >= 2);

    // 3. The export is schema-valid and covers every lane.
    let value = chant_obs::perfetto::lanes_to_chrome_trace(&lanes);
    let summary = chant_obs::perfetto::validate_chrome_trace(&value).expect("schema-valid export");
    assert_eq!(summary.lanes, lanes.len());
    assert!(summary.slices > 0, "export produced no slices");
}
