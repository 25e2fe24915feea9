//! The one multi-process cluster launcher the cross-process harnesses
//! (`tests/xproc.rs`, `tests/kv_recover.rs`) share, and the rank-side
//! bootstrap their node binaries read it with.
//!
//! A [`Cluster`] reserves one loopback port per rank, starts every rank
//! with the standard bootstrap environment (`CHANT_TRANSPORT`,
//! `CHANT_RANK`, `CHANT_PEERS`) on top of whatever the caller's
//! [`Command`] carries, holds the whole run to one hard deadline, can
//! SIGKILL a rank and start its successor on the same port, and returns
//! what each rank printed. Ranks write to a file each, never to a pipe:
//! nobody reads a pipe while the launcher polls for exits, so a rank
//! that printed more than a pipe buffer would block in `write` until the
//! deadline and come back with its output cut short.

use std::fs::OpenOptions;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use chant_core::TransportConfig;

/// Reserve `n` distinct loopback ports: bind them all at once, record
/// the assignments, then release. A stranger can take one before the
/// rank binds it again; that is vanishingly rare and the callers retry
/// a failed cluster once.
pub fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

/// How one rank ended and everything it (and a killed predecessor of
/// the same rank) printed.
pub struct Exit {
    /// Exited by itself with status 0.
    pub ok: bool,
    /// The rank's standard output.
    pub stdout: String,
    /// The rank's standard error.
    pub stderr: String,
}

/// Every rank's end and output, for the message of a failed run.
pub fn report(exits: &[Exit]) -> String {
    exits
        .iter()
        .enumerate()
        .map(|(rank, e)| {
            format!(
                "--- rank {rank} (exited 0: {}) ---\n{}\n--- rank {rank} stderr ---\n{}\n",
                e.ok, e.stdout, e.stderr
            )
        })
        .collect()
}

/// A running cluster of child processes, indexed by rank. None of them
/// outlives the value: dropping it kills and reaps whatever still runs.
pub struct Cluster {
    backend: String,
    peers: String,
    deadline: Instant,
    logs: PathBuf,
    ranks: Vec<Child>,
}

impl Cluster {
    /// Start one rank per command over `backend` (a `CHANT_TRANSPORT`
    /// value, `tcp-event` in practice) on freshly reserved ports. The whole run, respawns included, has
    /// `patience` from now.
    pub fn launch(backend: &str, patience: Duration, commands: Vec<Command>) -> Cluster {
        static LAUNCHES: AtomicU32 = AtomicU32::new(0);
        let logs = std::env::temp_dir().join(format!(
            "chant_launch_{}_{}",
            std::process::id(),
            LAUNCHES.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&logs).expect("create the ranks' log directory");
        let peers = free_ports(commands.len())
            .iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect::<Vec<_>>()
            .join(",");
        let mut cluster = Cluster {
            backend: backend.to_string(),
            peers,
            deadline: Instant::now() + patience,
            logs,
            ranks: Vec::new(),
        };
        for (rank, cmd) in commands.into_iter().enumerate() {
            let child = cluster.start(rank, cmd);
            cluster.ranks.push(child);
        }
        cluster
    }

    fn log(&self, rank: usize, stream: &str) -> PathBuf {
        self.logs.join(format!("rank{rank}.{stream}"))
    }

    /// Start `cmd` as `rank`, appending to the rank's logs so a
    /// respawned rank's output follows its predecessor's.
    fn start(&self, rank: usize, mut cmd: Command) -> Child {
        let open = |stream: &str| {
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.log(rank, stream))
                .expect("open rank log")
        };
        cmd.env("CHANT_TRANSPORT", &self.backend)
            .env("CHANT_RANK", rank.to_string())
            .env("CHANT_PEERS", &self.peers)
            .stdin(Stdio::null())
            .stdout(open("stdout"))
            .stderr(open("stderr"))
            .spawn()
            .unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() > self.deadline
    }

    /// `Some(exited with status 0)` once `rank` is gone.
    pub fn exited(&mut self, rank: usize) -> Option<bool> {
        match self.ranks[rank].try_wait() {
            Ok(Some(status)) => Some(status.success()),
            _ => None,
        }
    }

    /// SIGKILL `rank` (no destructors run, the kernel tears its sockets
    /// down) and start `cmd` in its place, on the same port.
    pub fn respawn(&mut self, rank: usize, cmd: Command) {
        self.ranks[rank].kill().expect("SIGKILL the rank");
        let _ = self.ranks[rank].wait();
        self.ranks[rank] = self.start(rank, cmd);
    }

    /// Wait for every rank under the deadline, kill the ones still
    /// running when it passes, and return each rank's end and output.
    pub fn join_all(mut self) -> Vec<Exit> {
        let mut ok: Vec<Option<bool>> = vec![None; self.ranks.len()];
        while ok.iter().any(Option::is_none) && !self.expired() {
            for (rank, end) in ok.iter_mut().enumerate() {
                if end.is_none() {
                    *end = self.exited(rank);
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        self.kill_all();
        let read = |rank: usize, stream: &str| {
            let bytes = std::fs::read(self.log(rank, stream)).unwrap_or_default();
            String::from_utf8_lossy(&bytes).into_owned()
        };
        ok.iter()
            .enumerate()
            .map(|(rank, end)| Exit {
                ok: *end == Some(true),
                stdout: read(rank, "stdout"),
                stderr: read(rank, "stderr"),
            })
            .collect()
    }

    fn kill_all(&mut self) {
        for child in &mut self.ranks {
            let _ = child.kill();
        }
        for child in &mut self.ranks {
            let _ = child.wait();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill_all();
        let _ = std::fs::remove_dir_all(&self.logs);
    }
}

/// Run a whole-cluster attempt, and once more if it fails: one attempt
/// may be unlucky (a reserved port raced away, a kill window or fault
/// stream that depends on timing); a protocol bug fails both.
pub fn retry_once<T>(what: &str, attempt: impl Fn() -> Result<T, String>) -> T {
    attempt().unwrap_or_else(|first| {
        eprintln!("first attempt failed, retrying once:\n{first}");
        attempt().unwrap_or_else(|second| panic!("{what} failed twice:\n{second}"))
    })
}

/// The rank side of [`Cluster::launch`]: this process's transport, its
/// rank and the number of ranks, from the bootstrap environment.
pub fn rank_from_env(who: &str) -> (TransportConfig, u32, u32) {
    let transport = TransportConfig::from_env();
    let (rank, pes) = match &transport {
        TransportConfig::TcpEvent(opts) => (
            opts.rank
                .unwrap_or_else(|| panic!("{who} needs CHANT_RANK")),
            opts.peers.len() as u32,
        ),
        _ => panic!("{who} needs CHANT_TRANSPORT=tcp-event and CHANT_PEERS"),
    };
    (transport, rank, pes)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", script]);
        cmd
    }

    /// With pipes read only after exit this rank would sit in `write`
    /// until the deadline and lose most of what it printed.
    #[test]
    fn a_rank_that_prints_a_mebibyte_exits_at_once_with_all_of_it() {
        let started = Instant::now();
        let noisy = sh("head -c 1048576 /dev/zero; head -c 1048576 /dev/zero >&2");
        let exits = Cluster::launch("tcp-event", Duration::from_secs(120), vec![noisy]).join_all();
        assert!(exits[0].ok);
        assert_eq!(exits[0].stdout.len(), 1 << 20);
        assert_eq!(exits[0].stderr.len(), 1 << 20);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "took {:?}: the rank blocked on its own output",
            started.elapsed()
        );
    }

    #[test]
    fn a_respawned_rank_keeps_its_port_and_its_predecessors_output() {
        let hello = "echo $CHANT_TRANSPORT $CHANT_RANK $CHANT_PEERS";
        let mut cluster = Cluster::launch(
            "tcp-event",
            Duration::from_secs(60),
            vec![sh(hello), sh(&format!("{hello}; exec sleep 600"))],
        );
        // Kill rank 1 only once it has spoken.
        while std::fs::metadata(cluster.log(1, "stdout")).map_or(0, |m| m.len()) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(cluster.exited(1), None);
        cluster.respawn(1, sh(hello));
        let exits = cluster.join_all();
        assert!(exits[0].ok && exits[1].ok);
        let first = exits[0].stdout.trim_end().replace(" 0 ", " 1 ");
        assert!(first.starts_with("tcp-event 1 127.0.0.1:"), "{first}");
        assert_eq!(exits[1].stdout, format!("{first}\n{first}\n"));
    }

    #[test]
    fn a_rank_that_outlives_the_deadline_is_killed_and_reported_failed() {
        let started = Instant::now();
        let cluster = Cluster::launch(
            "tcp-event",
            Duration::from_millis(200),
            vec![sh("exec sleep 600")],
        );
        let exits = cluster.join_all();
        assert!(!exits[0].ok);
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
