//! Cross-process integration: a 4-node TCP cluster of real OS
//! processes running the lossy robustness workload.
//!
//! This is the acceptance test for the transport tentpole: `cargo test`
//! spawns four copies of the `xproc_node` helper binary, hands them a
//! rank and a shared peer list over the environment (the same bootstrap
//! the examples use), and asserts that every process finishes the
//! 1000-op exactly-once workload (4 × 250 counted RSRs through a 1%
//! drop + 1% dup shim), joins the termination barrier cleanly, and
//! exits having leaked zero file descriptors (sockets, epoll, eventfd).
//! Each process's connections are read by its scheduler lane, with no
//! transport thread. The
//! traced runs repeat the workload with every rank, or only ranks 0 and
//! 2, exporting a trace.

#![cfg(target_os = "linux")]

use std::path::Path;
use std::process::Command;
use std::time::Duration;

use chant_bench::launch::{report, retry_once, Cluster};

const NODES: usize = 4;
const TIMEOUT: Duration = Duration::from_secs(120);

/// The number after `key` on an `XPROC-OK` line.
fn field(line: &str, key: &str) -> Option<u64> {
    line.split(key)
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Run the cluster once and return the retries its ranks reported. The
/// ranks in `traced` also export their traces to `dir` as
/// `rank<r>.json`; the others do not trace. Every rank must report zero
/// malformed frames. The fault seed is the ranks' to read
/// (`CHANT_FAULT_SEED`, inherited; default 42).
fn run_once(traced: &[usize], dir: &Path) -> Result<u64, String> {
    let commands = (0..NODES)
        .map(|rank| {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_xproc_node"));
            cmd.env("CHANT_XPROC_OPS", "250");
            if traced.contains(&rank) {
                cmd.env("CHANT_TRACE_OUT", dir.join(format!("rank{rank}.json")));
            }
            cmd
        })
        .collect();
    let exits = Cluster::launch("tcp-event", TIMEOUT, commands).join_all();
    let mut retries = 0u64;
    for (rank, exit) in exits.iter().enumerate() {
        let marker = format!("XPROC-OK rank={rank}");
        let line = exit
            .stdout
            .lines()
            .find(|l| exit.ok && l.contains(&marker))
            .ok_or_else(|| format!("rank {rank}: no '{marker}'\n{}", report(&exits)))?;
        assert_eq!(
            field(line, "malformed="),
            Some(0),
            "rank {rank}: undecodable frames on the wire\n{}",
            report(&exits)
        );
        retries += field(line, "retries=").unwrap_or(0);
    }
    Ok(retries)
}

#[test]
fn four_process_tcp_event_cluster_runs_lossy_workload_exactly_once() {
    retry_once("cross-process cluster", || {
        run_once(&[], &std::env::temp_dir())
    });
}

/// The PR 7 tracing acceptance scenario: the same four-process lossy
/// cluster, now with per-rank trace export (`CHANT_TRACE_OUT`), merged
/// in-test into one clock-aligned cluster timeline. Asserts that every
/// cross-process RSR interaction appears as a send span flow-arrowed to
/// its recv/serve span with non-negative wire gaps after alignment, and
/// that the lossy shim's retries show up as first-class events.
mod traced {
    use super::*;
    use chant_obs::merge::{merge_cluster_trace, read_process_trace, MergeReport, ProcessTrace};
    use chant_obs::perfetto::{validate_chrome_trace, TraceSummary};
    use serde::Value;

    /// Count non-metadata events whose `name` matches `pred`.
    fn count_events(merged: &Value, pred: impl Fn(&str) -> bool) -> usize {
        merged
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(Value::as_array)
            .map(|evs| {
                evs.iter()
                    .filter(|e| {
                        e.as_object()
                            .and_then(|o| o.get("name"))
                            .and_then(Value::as_str)
                            .is_some_and(&pred)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// A fresh per-test directory for the ranks' trace exports.
    fn trace_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("chant_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create trace dir");
        dir
    }

    /// Merge the exports of `ranks` from `dir` (then delete `dir`), and
    /// check the merge against the Chrome-trace schema.
    fn merge_ranks(dir: &Path, ranks: &[usize]) -> (Value, MergeReport, TraceSummary) {
        let mut processes: Vec<ProcessTrace> = Vec::with_capacity(ranks.len());
        for rank in ranks {
            let path = dir.join(format!("rank{rank}.json"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("rank {rank} wrote no trace at {path:?}: {e}"));
            let value: serde::Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("rank {rank} trace is not JSON: {e:?}"));
            processes.push(
                read_process_trace(value)
                    .unwrap_or_else(|e| panic!("rank {rank} trace malformed: {e}")),
            );
        }
        let (merged, report) = merge_cluster_trace(processes).expect("cluster traces must merge");
        let _ = std::fs::remove_dir_all(dir);
        let summary = validate_chrome_trace(&merged).expect("merged trace obeys the schema");
        (merged, report, summary)
    }

    /// Sends and receives are traced from each rank's lane, which
    /// reads its own sockets.
    #[test]
    fn four_process_tcp_event_traces_merge_into_one_causal_timeline() {
        let dir = trace_dir("xproc_trace");
        let all: Vec<usize> = (0..NODES).collect();
        let retries = retry_once("traced cross-process cluster", || run_once(&all, &dir));
        let (merged, report, summary) = merge_ranks(&dir, &all);
        assert_eq!(
            summary.flow_starts, summary.flow_ends,
            "every flow arrow must have both halves: {report:?}"
        );
        assert_eq!(report.processes, NODES, "{report:?}");
        // The workload is 1000 cross-process RSRs: their request/reply
        // messages must appear as cross-process send->recv flows...
        assert!(
            report.cross_process_flows >= 1000,
            "cross-process causality missing: {report:?}"
        );
        // ...and after clock alignment (plus causal repair for offset
        // estimation error) no message arrives before it was sent.
        assert!(
            report.min_wire_gap_ns >= 0,
            "a message arrived before it was sent: {report:?}"
        );
        // The lossy shim makes retries a near-certainty over 2000+
        // frames at 1% drop + 1% dup (P[zero] < 1e-8); they must appear
        // as first-class annotated events, not silence.
        assert!(retries > 0, "lossy run produced no retries");
        let retry_events = count_events(&merged, |n| n == "rsr.retry");
        assert!(
            retry_events as u64 >= retries,
            "{retries} retries reported but only {retry_events} rsr.retry events in the merge"
        );
        assert!(
            count_events(&merged, |n| n.starts_with("fault.")) > 0,
            "fault shim injected nothing visible"
        );
        assert!(
            count_events(&merged, |n| n == "msg.send") > 0
                && count_events(&merged, |n| n == "msg.recv") > 0,
            "wire-level msg spans missing from the merge"
        );
    }

    /// Ranks 0 and 2 trace and ranks 1 and 3 do not, in one cluster.
    /// There is one frame layout, so the lossy workload stays
    /// exactly-once (each rank checks its own count), no rank sees a
    /// malformed frame, and the two traced ranks' exports merge.
    #[test]
    fn traced_and_untraced_ranks_share_one_cluster() {
        let dir = trace_dir("xproc_mixed");
        retry_once("mixed traced/untraced cluster", || run_once(&[0, 2], &dir));
        for rank in [1, 3] {
            assert!(
                !dir.join(format!("rank{rank}.json")).exists(),
                "untraced rank {rank} wrote a trace"
            );
        }
        let (merged, report, summary) = merge_ranks(&dir, &[0, 2]);
        assert_eq!(report.processes, 2, "{report:?}");
        assert_eq!(summary.flow_starts, summary.flow_ends, "{report:?}");
        // Rank 2's clock-sync PINGs to rank 0 are the traffic between
        // the two traced ranks; the RSRs to untraced neighbours leave
        // sends without a traced delivery.
        assert!(report.cross_process_flows > 0, "{report:?}");
        assert!(report.unmatched_sends > 0, "{report:?}");
        assert!(report.min_wire_gap_ns >= 0, "{report:?}");
        assert!(
            count_events(&merged, |n| n == "rsr fn1001") > 0,
            "traced ranks recorded no RSR service"
        );
    }
}
