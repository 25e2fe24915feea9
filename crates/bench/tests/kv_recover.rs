//! Cross-process killed-primary recovery: four OS processes run a
//! chant-kv cluster over real TCP under 1% drop + 1% dup; this test
//! SIGKILLs rank 1 mid-run and respawns it, and every surviving rank
//! plus the reincarnation must finish with an exact exactly-once
//! version-sum ledger (see `kv_recover_node`). Swept across all three
//! polling policies with distinct fault seeds.
//!
//! The choreography: rank 1 drains its replication queues, writes a
//! sentinel file, and parks; the test watches for the sentinel, kills
//! the process (a real SIGKILL — no destructors, sockets torn down by
//! the kernel), and respawns the same rank with `CHANT_KV_PHASE=2`.
//! The respawn re-binds the same listen port, re-seeds its shards from
//! the surviving replicas, and re-joins the protocol.

#![cfg(target_os = "linux")]

use std::process::Command;
use std::time::Duration;

use chant_bench::launch::{report, retry_once, Cluster};

const NODES: usize = 4;
/// Covers seed + kill + recovery + second round on a loaded host.
const TIMEOUT: Duration = Duration::from_secs(240);

fn run_once(policy: &str, seed: u64) -> Result<(), String> {
    let sentinel = std::env::temp_dir().join(format!(
        "chant_kvrec_{}_{policy}_{seed}.sentinel",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&sentinel);
    let rank_command = |phase2: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_kv_recover_node"));
        cmd.env("CHANT_KV_POLICY", policy)
            .env("CHANT_FAULT_SEED", seed.to_string())
            .env("CHANT_KV_SENTINEL", &sentinel);
        if phase2 {
            cmd.env("CHANT_KV_PHASE", "2");
        }
        cmd
    };
    let mut cluster = Cluster::launch(
        "tcp-event",
        TIMEOUT,
        (0..NODES).map(|_| rank_command(false)).collect(),
    );

    // Wait for rank 1 to drain and park, then deliver the SIGKILL and
    // reincarnate it on the same port.
    while !sentinel.exists() && !cluster.expired() && cluster.exited(1).is_none() {
        std::thread::sleep(Duration::from_millis(25));
    }
    let reached = sentinel.exists();
    if reached {
        cluster.respawn(1, rank_command(true));
        let _ = std::fs::remove_file(&sentinel);
    }

    let exits = cluster.join_all();
    let dump = |why: String| format!("[{policy}/{seed}] {why}\n{}", report(&exits));
    if !reached {
        return Err(dump("rank 1 exited or timed out before its sentinel".into()));
    }
    for (rank, exit) in exits.iter().enumerate() {
        if !exit.ok || !exit.stdout.contains(&format!("KVREC-OK rank={rank}")) {
            return Err(dump(format!("rank {rank} failed")));
        }
    }
    Ok(())
}

/// `CHANT_FAULT_SEED` pins the seed (CI's matrix); otherwise each
/// policy has its own.
fn run_policy(policy: &str, default_seed: u64) {
    let seed = std::env::var("CHANT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_seed);
    retry_once("killed-primary recovery", || run_once(policy, seed));
}

#[test]
fn killed_primary_recovers_thread_polls() {
    run_policy("tp", 1);
}

#[test]
fn killed_primary_recovers_scheduler_wq() {
    run_policy("wq", 7);
}

#[test]
fn killed_primary_recovers_scheduler_ps() {
    run_policy("ps", 42);
}
