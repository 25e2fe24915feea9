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

use std::collections::HashMap;
use std::ffi::OsString;
use std::time::{Duration, Instant};

use chant::chant::{ChantCluster, ChantError, PollingPolicy, RecvSrc};
use common::Backend;

/// CPU time consumed so far by each live thread of this process, by
/// tid, from the kernel's per-task accounting (ns resolution, unlike the
/// 10 ms ticks of `/proc/self/stat`).
#[cfg(target_os = "linux")]
fn thread_cpu_times() -> HashMap<OsString, u64> {
    let mut ns = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("task list") {
        let task = task.expect("task entry");
        // A thread may exit between the listing and the read.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            let used = stat.split_whitespace().next().and_then(|f| f.parse().ok());
            ns.insert(task.file_name(), used.unwrap_or(0));
        }
    }
    ns
}

/// CPU time the threads alive now have used since `before` was read. A
/// thread that exited in between (one of an earlier cluster's, say) is
/// left out: in a process-wide sum its whole history would drop out.
#[cfg(target_os = "linux")]
fn cpu_since(before: &HashMap<OsString, u64>) -> Duration {
    let ns = thread_cpu_times()
        .iter()
        .map(|(tid, &ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum();
    Duration::from_nanos(ns)
}

#[cfg(target_os = "linux")]
#[test]
fn idle_two_pe_cluster_uses_under_five_percent_of_a_core() {
    const IDLE: Duration = Duration::from_millis(500);
    for backend in [Backend::InProcess, Backend::TcpEventLoopback] {
        for policy in [PollingPolicy::SchedulerPollsWq, PollingPolicy::SchedulerPollsPs] {
            let cluster = ChantCluster::builder()
                .pes(2)
                .policy(policy)
                .transport(backend.config())
                .build();
            cluster.run(move |node| {
                // Connections dialled, both nodes past start-up.
                let _fence = common::main_group(node, 1);
                let cpu0 = thread_cpu_times();
                let t0 = Instant::now();
                match node.recv_timeout(RecvSrc::Any, Some(99), IDLE) {
                    Err(ChantError::Timeout) => {}
                    other => panic!("tag 99 is never sent, got {other:?}"),
                }
                let (took, burned) = (t0.elapsed(), cpu_since(&cpu0));
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
