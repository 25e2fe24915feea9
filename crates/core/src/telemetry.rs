//! Live telemetry: periodic NDJSON snapshots of every counter family.
//!
//! Tracing (the `trace` feature) answers "what happened", after the
//! fact, at event granularity. This module answers "what is happening
//! *now*", cheaply, in production builds: an [`Emitter`] thread wakes
//! every `CHANT_TELEMETRY_MS` milliseconds, reads every always-on
//! counter family present (`collect`), turns the cluster-wide totals
//! into *deltas since the previous tick*, and writes one flat JSON
//! object per line to `CHANT_TELEMETRY_PATH` — a file to append to, or a
//! unix-domain socket when the value starts with `unix:`. The
//! `chant-top` binary tails and renders that stream.
//!
//! The JSON is hand-rolled: every field is a `u64` (plus one f64
//! `elapsed_s`), so a formatter is ~20 lines and the emitter needs no
//! serializer in the default build. The keys are the counters' dotted
//! names (`comm.sends`, `kv.mutations`, ...): a family's keys appear
//! once it exists on a node, and a new counter is a new key.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chant_comm::CommWorld;
use parking_lot::{Condvar, Mutex};

use crate::node::ChantNode;

/// Env var: emission interval in milliseconds (0/unset = off).
pub const INTERVAL_ENV: &str = "CHANT_TELEMETRY_MS";

/// Env var: where the NDJSON stream goes. A plain value is a file path
/// (opened in append mode); a `unix:`-prefixed value names a
/// unix-domain stream socket to connect to.
pub const PATH_ENV: &str = "CHANT_TELEMETRY_PATH";

/// Default output file when [`PATH_ENV`] is unset.
pub const DEFAULT_PATH: &str = "chant_telemetry.ndjson";

/// Cluster-wide counter totals under their dotted names.
pub(crate) type Totals = Vec<(&'static str, u64)>;

/// Cluster-wide totals of every counter of every family present: each
/// node's `ult`, `comm`, `rsr` and extension families summed over
/// `nodes`, then the world's `transport` and (with a shim installed)
/// `fault`. Absolute values; the emitter subtracts the previous tick to
/// publish deltas (rates), which is what a live view wants.
pub(crate) fn collect(nodes: &[Arc<ChantNode>], world: &CommWorld) -> Totals {
    let mut totals = Totals::new();
    let mut add = |fields: Totals| {
        for (name, value) in fields {
            match totals.iter_mut().find(|(k, _)| *k == name) {
                Some((_, total)) => *total += value,
                None => totals.push((name, value)),
            }
        }
    };
    for n in nodes {
        add(n.counters());
    }
    add(world.transport_stats().fields());
    if let Some(f) = world.fault_stats() {
        add(f.fields());
    }
    totals
}

/// `name`'s value in `totals`; 0 when its family is not present.
pub(crate) fn value_of(totals: &[(&'static str, u64)], name: &str) -> u64 {
    totals
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0, |(_, v)| *v)
}

/// Where the stream goes.
enum Sink {
    File(std::fs::File),
    #[cfg(unix)]
    Socket(std::os::unix::net::UnixStream),
}

impl Sink {
    /// Open the sink at `over` when given (the
    /// [`crate::ClusterBuilder::telemetry_path`] knob), else wherever
    /// [`PATH_ENV`] points, else [`DEFAULT_PATH`].
    fn open(over: Option<&std::path::Path>) -> Option<Sink> {
        let path = match over {
            Some(p) => p.to_string_lossy().into_owned(),
            None => std::env::var(PATH_ENV).unwrap_or_else(|_| DEFAULT_PATH.to_string()),
        };
        if let Some(sock) = path.strip_prefix("unix:") {
            #[cfg(unix)]
            return std::os::unix::net::UnixStream::connect(sock)
                .ok()
                .map(Sink::Socket);
            #[cfg(not(unix))]
            {
                let _ = sock;
                return None;
            }
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .ok()
            .map(Sink::File)
    }

    fn write_line(&mut self, line: &str) -> bool {
        let w: &mut dyn Write = match self {
            Sink::File(f) => f,
            #[cfg(unix)]
            Sink::Socket(s) => s,
        };
        w.write_all(line.as_bytes()).and_then(|()| w.flush()).is_ok()
    }
}

/// The background emitter; [`stop`](Emitter::stop) flushes a final tick
/// and joins the thread, so a run's last counters always reach the
/// sink even when the run is shorter than one interval.
pub(crate) struct Emitter {
    /// `Some(totals)` once stopped: the run's final totals, which the
    /// last tick is computed from.
    stop: Arc<(Mutex<Option<Totals>>, Condvar)>,
    /// `None` when the OS refused the thread: telemetry is disabled for
    /// this run but the run itself proceeds.
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Times an [`Emitter::start`] failed to spawn its background thread
/// (process-wide). Telemetry is an observer — a resource-exhausted host
/// that cannot spare one more OS thread must not take the workload down
/// with it, so the failure is counted and the emitter degrades to a
/// no-op instead of panicking.
pub static SPAWN_FAILURES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Emitter {
    pub fn start(
        interval: Duration,
        nodes: Vec<Arc<ChantNode>>,
        world: CommWorld,
        path: Option<std::path::PathBuf>,
    ) -> Emitter {
        let stop = Arc::new((Mutex::new(None), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        // The baseline is read here, before the caller starts the
        // nodes, not on the emitter thread racing them: the first tick
        // then carries everything since `start`, and the ticks of a run
        // sum to its totals exactly.
        let baseline = collect(&nodes, &world);
        let thread = std::thread::Builder::new()
            .name("chant-telemetry".into())
            .spawn(move || run(interval, &nodes, &world, path.as_deref(), &stop2, baseline))
            .map_err(|e| {
                SPAWN_FAILURES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                eprintln!("chant: telemetry emitter thread failed to spawn ({e}); telemetry disabled for this run");
            })
            .ok();
        Emitter { stop, thread }
    }

    /// Emit one last tick that brings the stream up to `totals` — the
    /// same read the run's [`crate::ClusterReport`] carries, so a run's
    /// ticks sum to its report exactly — and join the thread.
    pub fn stop(self, totals: Totals) {
        *self.stop.0.lock() = Some(totals);
        self.stop.1.notify_one();
        if let Some(thread) = self.thread {
            let _ = thread.join();
        }
    }
}

fn run(
    interval: Duration,
    nodes: &[Arc<ChantNode>],
    world: &CommWorld,
    path: Option<&std::path::Path>,
    stop: &(Mutex<Option<Totals>>, Condvar),
    mut prev: Totals,
) {
    let Some(mut sink) = Sink::open(path) else {
        return;
    };
    let started = Instant::now();
    let mut seq = 0u64;
    loop {
        let last = {
            let mut guard = stop.0.lock();
            if guard.is_none() {
                stop.1.wait_for(&mut guard, interval);
            }
            guard.take()
        };
        let stopped = last.is_some();
        let now = last.unwrap_or_else(|| collect(nodes, world));
        seq += 1;
        let mut line = format!(
            "{{\"seq\":{seq},\"elapsed_s\":{:.3}",
            started.elapsed().as_secs_f64()
        );
        for (key, cur) in &now {
            use std::fmt::Write as _;
            // A family registered since the last tick was zero then.
            let _ = write!(line, ",\"{key}\":{}", cur.saturating_sub(value_of(&prev, key)));
        }
        line.push_str("}\n");
        if !sink.write_line(&line) {
            return; // sink gone (reader hung up, disk full): go quiet
        }
        prev = now;
        if stopped {
            return;
        }
    }
}
