//! An idle cluster sleeps.
//!
//! One test, alone in its binary and run backend by backend, because it
//! reads this *process's* CPU time: any other test running beside it
//! would be charged to the cluster under test.
//!
//! A two-PE cluster whose every thread is waiting — the server threads
//! for a request, the mains in a timed receive nobody will satisfy —
//! must use (next to) no CPU while it waits: lanes park in the kernel
//! until an arrival or the nearest deadline, the event-loop transport's
//! poller blocks in `epoll_wait`, and nothing ticks. TP is not in the
//! matrix: a thread-polls waiter re-tests every time it is scheduled,
//! by design (paper Figure 5), so a TP node is never idle.

mod common;

use std::time::{Duration, Instant};

use chant::chant::{ChantCluster, ChantError, PollingPolicy, RecvSrc};
use common::Backend;

/// CPU time consumed so far by every thread of this process, from the
/// kernel's per-task accounting (ns resolution, unlike the 10 ms ticks
/// of `/proc/self/stat`).
#[cfg(target_os = "linux")]
fn process_cpu_time() -> Duration {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").expect("task list") {
        let path = task.expect("task entry").path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(path) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Duration::from_nanos(ns)
}

#[cfg(target_os = "linux")]
#[test]
fn idle_two_pe_cluster_uses_under_five_percent_of_a_core() {
    const IDLE: Duration = Duration::from_millis(500);
    for backend in [
        Backend::InProcess,
        Backend::TcpLoopback,
        Backend::TcpEventLoopback,
    ] {
        for policy in [PollingPolicy::SchedulerPollsWq, PollingPolicy::SchedulerPollsPs] {
            let cluster = ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config())
                .build();
            cluster.run(move |node| {
                // Connections dialled, both nodes past start-up.
                let _fence = common::main_group(node, 1);
                let cpu0 = process_cpu_time();
                let t0 = Instant::now();
                match node.recv_timeout(RecvSrc::Any, Some(99), IDLE) {
                    Err(ChantError::Timeout) => {}
                    other => panic!("tag 99 is never sent, got {other:?}"),
                }
                let (took, burned) = (t0.elapsed(), process_cpu_time() - cpu0);
                assert!(took >= IDLE, "[{backend:?}/{policy:?}] woke early: {took:?}");
                assert!(
                    took < IDLE + Duration::from_millis(250),
                    "[{backend:?}/{policy:?}] woke late: {took:?}"
                );
                // Both nodes measure the same process over (nearly) the
                // same window; either reading bounds the whole cluster.
                assert!(
                    burned < IDLE / 20,
                    "[{backend:?}/{policy:?}] an idle cluster burned {burned:?} of CPU in \
                     {took:?}: something is still spinning or ticking"
                );
            });
        }
    }
}
