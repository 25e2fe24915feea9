//! Stitch per-process trace exports into one cluster Perfetto file.
//!
//! Each rank of a multi-process cluster run under `--features trace`
//! with `CHANT_TRACE_OUT=<path>` writes a self-describing trace (its
//! rank and PING-derived clock offset are embedded as top-level keys —
//! see `chant_obs::merge`). This tool reads N of those files, shifts
//! every timestamp onto the reference clock, emits Perfetto flow
//! arrows binding each cross-process `msg.send` to its `msg.recv`,
//! runs a causal repair pass so no message arrives before it was sent,
//! and validates the merged file against the Chrome-trace schema.
//!
//! Usage:
//! `trace_merge [-o merged.json] [--require-cross N] rank0.json rank1.json ...`
//!
//! Exits nonzero on unreadable input, schema violations, unbalanced
//! flow arrows, a negative post-alignment wire gap, or fewer than
//! `--require-cross` cross-process flows (default 0 = no floor).

use std::time::Instant;

use chant_obs::merge::{merge_cluster_trace, read_process_trace, ProcessTrace};
use chant_obs::perfetto::validate_chrome_trace;
use serde::Value;

fn fail(msg: &str) -> ! {
    eprintln!("trace_merge: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut out_path = String::from("chant_cluster_trace.json");
    let mut require_cross = 0u64;
    let mut inputs: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" => out_path = args.next().unwrap_or_else(|| fail("-o needs a path")),
            "--require-cross" => {
                require_cross = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--require-cross needs an integer"));
            }
            _ => inputs.push(arg),
        }
    }
    if inputs.len() < 2 {
        eprintln!(
            "usage: trace_merge [-o merged.json] [--require-cross N] rank0.json rank1.json ..."
        );
        std::process::exit(2);
    }

    let started = Instant::now();
    let mut processes: Vec<ProcessTrace> = Vec::with_capacity(inputs.len());
    for file in &inputs {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| fail(&format!("{file}: cannot read: {e}")));
        let value: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("{file}: not valid JSON: {e:?}")));
        let proc = read_process_trace(value)
            .unwrap_or_else(|e| fail(&format!("{file}: not a process trace: {e}")));
        processes.push(proc);
    }
    let (merged, report) =
        merge_cluster_trace(processes).unwrap_or_else(|e| fail(&format!("merge failed: {e}")));
    let summary = validate_chrome_trace(&merged)
        .unwrap_or_else(|e| fail(&format!("merged trace schema violation: {e}")));
    if summary.flow_starts != summary.flow_ends {
        fail(&format!(
            "flow arrows unbalanced: {} starts vs {} ends",
            summary.flow_starts, summary.flow_ends
        ));
    }
    if report.min_wire_gap_ns < 0 {
        fail(&format!(
            "negative wire gap after clock alignment: {} ns",
            report.min_wire_gap_ns
        ));
    }
    if report.cross_process_flows < require_cross as usize {
        fail(&format!(
            "only {} cross-process flows (need >= {require_cross})",
            report.cross_process_flows
        ));
    }

    let json = serde_json::to_string(&merged).expect("serialize merged trace");
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| fail(&format!("{out_path}: cannot write: {e}")));
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    println!(
        "trace_merge: OK — {} processes, {} events, {} flows ({} cross-process, \
         {} causal repairs), min wire gap {} ns, {} unmatched sends, \
         {} unmatched recvs, {:.1} ms -> {out_path}",
        report.processes,
        report.events,
        report.flows,
        report.cross_process_flows,
        report.causal_repairs,
        report.min_wire_gap_ns,
        report.unmatched_sends,
        report.unmatched_recvs,
        elapsed_ms,
    );
}
