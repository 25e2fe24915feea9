//! Cluster assembly and execution.
//!
//! A [`ChantCluster`] hosts `pes × procs_per_pe` Chant nodes in one OS
//! process: each node gets its own virtual processor (driven by its own
//! OS thread) and its own communication endpoint — the same shape as the
//! paper's experiments, which ran one process per Paragon node with a
//! small thread library inside each.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use chant_comm::{
    CommProfile, CommStatsSnapshot, CommWorld, FaultConfig, FaultStatsSnapshot, TransportConfig,
    TransportStatsSnapshot,
};
use chant_ult::{Priority, SpawnAttr};

use crate::error::ChantError;
use crate::node::{ChantNode, EntryFn};
use crate::naming::NamingMode;
use crate::poll::PollingPolicy;
use crate::ranges;
use crate::rsr::{
    HandlerTable, RetryPolicy, RsrHandler, RsrRequest, RsrStatsSnapshot, DEFAULT_DEDUP_WINDOW,
    SERVER_FN_USER_BASE,
};
use crate::RecvSrc;

// Reserved control tags used by the cluster termination protocol; the
// authoritative reservation (and its disjointness proofs) lives in
// [`crate::ranges::tags`].
const TAG_DONE: i32 = ranges::tags::DONE;
const TAG_SHUTDOWN: i32 = ranges::tags::SHUTDOWN;

/// Builder for a [`ChantCluster`].
pub struct ClusterBuilder {
    pes: u32,
    procs_per_pe: u32,
    naming: NamingMode,
    policy: PollingPolicy,
    server: bool,
    faults: Option<FaultConfig>,
    retry: Option<RetryPolicy>,
    dedup_window: usize,
    transport: TransportConfig,
    profile: CommProfile,
    telemetry: Option<Duration>,
    telemetry_path: Option<std::path::PathBuf>,
    entries: HashMap<String, EntryFn>,
    handlers: HandlerTable,
    daemons: Vec<(String, DaemonFn)>,
}

/// A per-node daemon body: runs as its own ULT alongside the server
/// thread until the cluster shuts down (see [`ClusterBuilder::daemon`]).
pub type DaemonFn = Arc<dyn Fn(&Arc<ChantNode>) + Send + Sync>;

impl ClusterBuilder {
    fn new() -> ClusterBuilder {
        ClusterBuilder {
            pes: 2,
            procs_per_pe: 1,
            naming: NamingMode::default(),
            policy: PollingPolicy::default(),
            server: true,
            faults: None,
            retry: None,
            dedup_window: DEFAULT_DEDUP_WINDOW,
            transport: TransportConfig::InProcess,
            profile: CommProfile::NATIVE,
            telemetry: std::env::var(crate::telemetry::INTERVAL_ENV)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            telemetry_path: None,
            entries: HashMap::new(),
            handlers: HashMap::new(),
            daemons: Vec::new(),
        }
    }

    /// Number of processing elements (default 2).
    pub fn pes(mut self, pes: u32) -> ClusterBuilder {
        assert!(pes > 0, "cluster needs at least one PE");
        self.pes = pes;
        self
    }

    /// Processes per processing element (default 1).
    pub fn procs_per_pe(mut self, procs: u32) -> ClusterBuilder {
        assert!(procs > 0, "each PE needs at least one process");
        self.procs_per_pe = procs;
        self
    }

    /// Where thread names travel in message headers (default
    /// [`NamingMode::Communicator`]).
    pub fn naming(mut self, naming: NamingMode) -> ClusterBuilder {
        self.naming = naming;
        self
    }

    /// How blocked receives poll (default
    /// [`PollingPolicy::SchedulerPollsPs`], the paper's best performer).
    pub fn policy(mut self, policy: PollingPolicy) -> ClusterBuilder {
        self.policy = policy;
        self
    }

    /// Whether each node runs a server thread for remote service
    /// requests (default true). Without it, only point-to-point
    /// communication and local operations work.
    pub fn server(mut self, enabled: bool) -> ClusterBuilder {
        self.server = enabled;
        self
    }

    /// Install the deterministic fault-injection shim on the cluster's
    /// transport (default: none — delivery is reliable). With a
    /// [`FaultConfig`], deliveries may be dropped, duplicated, delayed,
    /// or reordered per link, reproducibly for a given seed; cluster
    /// control traffic (tags `0xFF00..`) is exempt unless the config says
    /// otherwise. Pair lossy configs with [`ClusterBuilder::rsr_retry`]
    /// so remote ops survive the losses. A config that delays every
    /// message (`delay_p` 1) by a constant hold (`delay_ns` with
    /// `lo == hi`) keeps each link FIFO and imposes the wall-clock flight
    /// time that talking threads exist to hide (paper §1).
    pub fn faults(mut self, config: FaultConfig) -> ClusterBuilder {
        self.faults = Some(config);
        self
    }

    /// Bound and retry remote operations (default: none — remote ops
    /// wait forever, the pre-robustness semantics). See [`RetryPolicy`].
    pub fn rsr_retry(mut self, policy: RetryPolicy) -> ClusterBuilder {
        self.retry = Some(policy);
        self
    }

    /// How many request sequence numbers each node's server remembers
    /// *per client node* for exactly-once dedup (default 64; clamped to
    /// ≥ 1). Size it to at least the number of remote ops a single
    /// client node may have in flight toward one server.
    ///
    /// **Overrun semantics:** the window evicts oldest-first, so a
    /// duplicate of a request that has since fallen out of the window is
    /// indistinguishable from a new request and is *re-executed*. For
    /// idempotent ops (RMA get/put) that is harmless; for
    /// non-idempotent ones (`fetch_add`, remote spawn) an undersized
    /// window under duplication breaks exactly-once, so raise the knob
    /// for high-rate one-sided workloads on faulty links.
    ///
    /// The overrun does not need many ops in flight: a duplicate the
    /// network *delays* (the fault shim holds one up to `dup_delay_ns`)
    /// arrives after its original has run, and if the same client node
    /// has sent a window's worth of newer requests meanwhile — even one
    /// at a time — the original's entry is gone and the duplicate runs
    /// again. The server counts each request it runs as new with a seq
    /// below the lowest its full window holds as `rsr.below_window`.
    pub fn rsr_dedup_window(mut self, window: usize) -> ClusterBuilder {
        self.dedup_window = window.max(1);
        self
    }

    /// Select the transport backend (default: in-process delivery).
    /// With [`TransportConfig::TcpEvent`] the cluster's messages travel as
    /// length-prefixed frames over real sockets; with a rank and peer
    /// list (usually [`TransportConfig::from_env`]) the cluster runs as
    /// N cooperating OS processes, each hosting one PE's nodes — every
    /// process must call [`ChantCluster::run`] with the same `main`.
    pub fn transport(mut self, transport: TransportConfig) -> ClusterBuilder {
        self.transport = transport;
        self
    }

    /// Emit a live telemetry snapshot every `interval` while the
    /// cluster runs: one NDJSON line per tick with the delta of every
    /// counter of every family present (scheduler, comm, RSR, installed
    /// extensions, transport, faults) to `$CHANT_TELEMETRY_PATH` (a file
    /// to append to, or a unix socket with a `unix:` prefix; default
    /// `chant_telemetry.ndjson`).
    /// Also switched on, without code changes, by setting
    /// `CHANT_TELEMETRY_MS=<millis>` in the environment. Zero cost when
    /// off; independent of whether a tracer is installed.
    pub fn telemetry(mut self, interval: Duration) -> ClusterBuilder {
        assert!(!interval.is_zero(), "telemetry interval must be positive");
        self.telemetry = Some(interval);
        self
    }

    /// Where the telemetry emitter writes its NDJSON lines, overriding
    /// `$CHANT_TELEMETRY_PATH`. Tests use this instead of mutating the
    /// process environment, which is not safe under parallel test
    /// threads. A `unix:` prefix still selects a unix socket sink.
    pub fn telemetry_path(mut self, path: impl Into<std::path::PathBuf>) -> ClusterBuilder {
        self.telemetry_path = Some(path.into());
        self
    }

    /// Register a per-node *daemon*: a ULT spawned on every node between
    /// the server thread and `main`, running `f` until the cluster shuts
    /// down. Daemons are runtime plumbing, not application threads — the
    /// local-quiescence wait does not count them, and they are cancelled
    /// together with the server thread once the cluster-wide completion
    /// barrier has passed, so (like RSR service) they stay responsive
    /// until *every* node is done.
    ///
    /// Every process of a multi-process cluster must register the same
    /// daemons in the same order: daemon spawn order is part of the
    /// deterministic thread-id layout the termination barrier relies on.
    pub fn daemon<F>(mut self, name: impl Into<String>, f: F) -> ClusterBuilder
    where
        F: Fn(&Arc<ChantNode>) + Send + Sync + 'static,
    {
        self.daemons.push((name.into(), Arc::new(f)));
        self
    }

    /// Scheduler lanes per node: always 1, since a node's VP is one OS
    /// thread, as the paper's is. Kept only because the benchmark still
    /// calls `.vps(1)`; it goes together with that call (ROADMAP item 1).
    ///
    /// # Panics
    /// For any `vps` other than 1.
    pub fn vps(self, vps: usize) -> ClusterBuilder {
        assert_eq!(vps, 1, "a node's VP is one lane");
        self
    }

    /// Constrain the configuration to what a real 1994 communication
    /// layer could support (default [`CommProfile::NATIVE`], i.e. no
    /// constraint). `build` panics on combinations the profiled system
    /// could not express — e.g. [`NamingMode::Communicator`] on NX (no
    /// header field for the thread id, paper §3.1) or the WQ+`testany`
    /// policy on anything without `MPI_TEST_ANY` (§4.2).
    pub fn comm_profile(mut self, profile: CommProfile) -> ClusterBuilder {
        self.profile = profile;
        self
    }

    /// Register a named thread entry function on every node, making it
    /// remotely spawnable via [`ChantNode::remote_spawn`].
    pub fn entry<F>(mut self, name: impl Into<String>, f: F) -> ClusterBuilder
    where
        F: Fn(&Arc<ChantNode>, Bytes) -> Bytes + Send + Sync + 'static,
    {
        self.entries.insert(name.into(), Arc::new(f));
        self
    }

    /// Register a custom remote-service-request handler on every node.
    /// `fn_id` must be at least [`SERVER_FN_USER_BASE`].
    pub fn rsr_handler<F>(mut self, fn_id: u32, f: F) -> ClusterBuilder
    where
        F: Fn(&Arc<ChantNode>, RsrRequest) -> Result<Bytes, ChantError> + Send + Sync + 'static,
    {
        assert!(
            fn_id >= SERVER_FN_USER_BASE,
            "RSR ids below {SERVER_FN_USER_BASE} are reserved for built-ins"
        );
        let h: RsrHandler = Arc::new(f);
        self.handlers.insert(fn_id, h);
        self
    }

    /// Register a *runtime-extension* RSR handler on every node. Unlike
    /// [`ClusterBuilder::rsr_handler`], which serves user function ids
    /// (≥ [`SERVER_FN_USER_BASE`]), extension handlers occupy the
    /// reserved range [`crate::ranges::fns::EXT_BASE`]`..=`
    /// [`crate::ranges::fns::EXT_END`] so runtime layers built on RSR
    /// (the one-sided memory crate, for example) can never collide with
    /// application handlers. Not intended for application code.
    pub fn rsr_ext_handler<F>(mut self, fn_id: u32, f: F) -> ClusterBuilder
    where
        F: Fn(&Arc<ChantNode>, RsrRequest) -> Result<Bytes, ChantError> + Send + Sync + 'static,
    {
        assert!(
            (ranges::fns::EXT_BASE..=ranges::fns::EXT_END).contains(&fn_id),
            "extension RSR ids must lie in {:#x}..={:#x}",
            ranges::fns::EXT_BASE,
            ranges::fns::EXT_END
        );
        let h: RsrHandler = Arc::new(f);
        self.handlers.insert(fn_id, h);
        self
    }

    /// Assemble the cluster.
    ///
    /// # Panics
    /// Panics when the configuration exceeds the declared
    /// [`CommProfile`]'s capabilities (see
    /// [`ClusterBuilder::comm_profile`]).
    pub fn build(self) -> ChantCluster {
        // Capability validation against the declared comm layer.
        if self.naming == NamingMode::Communicator {
            assert!(
                self.profile.has_ctx_field,
                "{} has no header field for thread ids; use NamingMode::TagOverload                  (paper §3.1, 'the delivery issue')",
                self.profile
            );
        }
        if self.policy == PollingPolicy::SchedulerPollsWqTestany {
            assert!(
                self.profile.has_testany,
                "{} has no msgtestany; use SchedulerPollsWq with per-request tests                  (paper §4.2)",
                self.profile
            );
        }

        // Enforce the paper's §3.1 rule from here on: blocking comm
        // primitives must not be used from user-level thread context.
        chant_comm::set_blocking_guard(chant_ult::is_ult_context);

        // Flight recorder: `CHANT_FLIGHT_RECORDER=<capacity>` installs a
        // keep-latest tracer before the nodes (and their lanes) are
        // built, so long-running traced processes hold the most recent
        // window instead of a full capture. A tracer the application
        // already installed wins (install_with refuses a second).
        if let Some(cap) = std::env::var("CHANT_FLIGHT_RECORDER")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
        {
            chant_obs::tracer::install_with(cap, chant_obs::RingMode::KeepLatest);
        }

        let world =
            CommWorld::with_config(self.pes, self.procs_per_pe, self.faults, self.transport);
        let entries = Arc::new(self.entries);
        let handlers = Arc::new(self.handlers);
        let mut nodes = Vec::new();
        // Only the PEs this OS process hosts get live nodes: all of them
        // on a single-process transport, exactly one in multi-process
        // TCP mode (the other PEs' nodes live in their own processes).
        let hosted = world.hosted_pes();
        for pe in hosted.clone() {
            for process in 0..self.procs_per_pe {
                nodes.push(ChantNode::new(
                    pe,
                    process,
                    world.clone(),
                    self.naming,
                    self.policy,
                    self.retry.clone(),
                    self.dedup_window,
                    Arc::clone(&entries),
                    Arc::clone(&handlers),
                ));
            }
        }
        ChantCluster {
            base_pe: hosted.start,
            world,
            nodes,
            server: self.server,
            telemetry: self.telemetry,
            telemetry_path: self.telemetry_path,
            daemons: Arc::new(self.daemons),
        }
    }
}

/// A set of Chant nodes sharing one communication world.
///
/// Dropping the cluster tears the world down synchronously: by the time
/// `drop` returns, transport sockets are closed and its background
/// threads joined (see [`CommWorld::shutdown`]).
pub struct ChantCluster {
    world: CommWorld,
    /// First PE hosted here (nonzero only in multi-process TCP mode).
    base_pe: u32,
    nodes: Vec<Arc<ChantNode>>,
    server: bool,
    /// Live-telemetry emission interval, when enabled.
    telemetry: Option<Duration>,
    /// Telemetry sink override (else `$CHANT_TELEMETRY_PATH`).
    telemetry_path: Option<std::path::PathBuf>,
    /// Per-node daemons, spawned between the server thread and main.
    daemons: Arc<Vec<(String, DaemonFn)>>,
}

impl ChantCluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// All nodes hosted by this OS process, in `(pe, process)` rank
    /// order (every node except in multi-process TCP mode).
    pub fn nodes(&self) -> &[Arc<ChantNode>] {
        &self.nodes
    }

    /// The node at `(pe, process)`.
    ///
    /// # Panics
    /// Panics if the node lives in another OS process (multi-process
    /// TCP mode) or the address is outside the world.
    pub fn node(&self, pe: u32, process: u32) -> &Arc<ChantNode> {
        assert!(
            self.world.hosted_pes().contains(&pe),
            "PE {pe} is not hosted by this process (hosted: {:?})",
            self.world.hosted_pes()
        );
        &self.nodes[((pe - self.base_pe) * self.world.procs_per_pe() + process) as usize]
    }

    /// The shared communication world.
    pub fn world(&self) -> &CommWorld {
        &self.world
    }

    /// Run `main` on every node (as that node's main thread) and wait for
    /// the whole cluster to finish. Returns per-node statistics.
    ///
    /// Shutdown protocol: each node's main runs `main`, then waits for
    /// all locally spawned threads to finish, then takes part in a
    /// cluster-wide completion barrier (plain Chant messages), and only
    /// then is the node's server thread cancelled — so remote service
    /// requests keep working until *every* node is quiescent.
    ///
    /// # Panics
    /// Panics if any node's main panicked.
    pub fn run<F>(&self, main: F) -> ClusterReport
    where
        F: Fn(&Arc<ChantNode>) + Send + Sync + 'static,
    {
        let main = Arc::new(main);
        let started = Instant::now();
        let telemetry = self.telemetry.map(|iv| {
            crate::telemetry::Emitter::start(
                iv,
                self.nodes.clone(),
                self.world.clone(),
                self.telemetry_path.clone(),
            )
        });
        // The completion barrier counts every node in the *world*, not
        // just the ones hosted here — in multi-process mode the DONE and
        // SHUTDOWN messages cross process boundaries like any others.
        let n_nodes = self.world.len() as u32;
        let server = self.server;

        let mut os_threads = Vec::new();
        for node in &self.nodes {
            let node = Arc::clone(node);
            let main = Arc::clone(&main);
            let daemons = Arc::clone(&self.daemons);
            os_threads.push(
                std::thread::Builder::new()
                    .name(format!("chant-{}", node.address()))
                    .spawn(move || {
                        let server_tid = if server {
                            let id = node.spawn(
                                SpawnAttr::new().name("server").priority(Priority::NORMAL),
                                |n| n.server_loop(),
                            );
                            node.server_tid
                                .store(id.thread, std::sync::atomic::Ordering::Relaxed);
                            Some(id.thread)
                        } else {
                            None
                        };
                        // Daemons spawn after the server and before main,
                        // in registration order, so thread ids stay
                        // identical on every node of the cluster.
                        let daemon_tids: Vec<_> = daemons
                            .iter()
                            .map(|(name, f)| {
                                let f = Arc::clone(f);
                                node.spawn(SpawnAttr::new().name(name.clone()), move |n| f(n))
                                    .thread
                            })
                            .collect();

                        node.spawn(SpawnAttr::new().name("main"), move |n| {
                            // Run the user's main; even if it panics, the
                            // shutdown protocol must still execute or the
                            // other nodes (and this VP's server) would hang.
                            let result = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| main(n)),
                            );
                            let resident = usize::from(server_tid.is_some()) + daemon_tids.len();
                            run_shutdown_protocol(n, n_nodes, resident, result.is_ok());
                            for tid in daemon_tids {
                                let _ = n.vp().cancel(tid);
                            }
                            if let Some(stid) = server_tid {
                                let _ = n.vp().cancel(stid);
                            }
                            if let Err(p) = result {
                                std::panic::resume_unwind(p);
                            }
                        });
                        node.vp().start();
                    })
                    .expect("failed to spawn node driver thread"),
            );
        }

        let mut panicked = Vec::new();
        for (i, t) in os_threads.into_iter().enumerate() {
            if t.join().is_err() {
                panicked.push(i);
            }
        }
        let elapsed = started.elapsed();
        let counters = crate::telemetry::collect(&self.nodes, &self.world);
        if let Some(t) = telemetry {
            t.stop(counters.clone());
        }
        if !panicked.is_empty() {
            // A crashing run is exactly what the flight recorder is
            // for: persist the recent window before propagating.
            let _ = crate::flight::dump("panic");
            panic!("cluster node driver(s) panicked: ranks {panicked:?}");
        }

        // Surface unobserved panics (recorded in each node's exit table).
        // A panic whose exit record was already claimed by a joiner is the
        // joiner's to handle, not ours.
        for node in &self.nodes {
            let exits = node.exits.lock();
            for (tid, rec) in exits.iter() {
                if let crate::node::ExitOutcome::Panicked(msg) = &rec.outcome {
                    if !rec.claimed {
                        let _ = crate::flight::dump("panic");
                        panic!(
                            "thread {tid} on node {} panicked: {msg}",
                            node.address()
                        );
                    }
                }
            }
        }

        let report = ClusterReport {
            elapsed,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeReport {
                    pe: n.pe(),
                    process: n.process(),
                    sched: n.vp().stats().snapshot(),
                    comm: n.endpoint().stats().snapshot(),
                    rsr: n.rsr_stats(),
                })
                .collect(),
            faults: self.world.fault_stats(),
            transport: self.world.transport_stats(),
            counters,
        };

        // Fold the run's totals into the global metrics registry, under
        // the names telemetry uses, so a tracing session sees counters
        // and histograms side by side. Each run() adds its own totals
        // (nodes are fresh per cluster), so multi-cluster processes
        // accumulate rather than double-count.
        if chant_obs::tracer::active() {
            let reg = chant_obs::registry();
            for &(name, value) in &report.counters {
                reg.counter(name).add(value);
            }
        }
        report
    }
}

impl Drop for ChantCluster {
    fn drop(&mut self) {
        // Tear the world down from *this* thread rather than waiting for
        // the last Arc to die: a background deliverer's transient
        // reference can otherwise end up running the teardown
        // asynchronously, leaving sockets open after drop returns.
        self.world.shutdown();
    }
}

/// The message-based completion barrier run by each node's main thread.
///
/// Node 0 collects a DONE from every other node, then broadcasts
/// SHUTDOWN. Because the waits go through the normal polling machinery,
/// each node's server thread stays fully responsive while the barrier is
/// in progress.
fn run_shutdown_protocol(node: &Arc<ChantNode>, n_nodes: u32, resident: usize, quiesce: bool) {
    // Quiesce locally first: wait for every thread except this main and
    // the resident runtime threads (server + daemons) to finish. Skipped
    // when main panicked (its threads may be wedged); the barrier still
    // runs so other nodes can finish.
    if quiesce {
        node.vp().wait_live_at_most(1 + resident);
    }
    if n_nodes == 1 {
        return;
    }

    let me = node.self_id();
    let my_rank = node.pe() * node.world().procs_per_pe() + node.process();
    let rank0 = crate::ChanterId::new(0, 0, me.thread);
    if my_rank == 0 {
        for _ in 1..n_nodes {
            node.recv(RecvSrc::Any, Some(TAG_DONE))
                .expect("termination barrier DONE receive failed");
        }
        for pe in 0..node.world().pes() {
            for process in 0..node.world().procs_per_pe() {
                if pe == 0 && process == 0 {
                    continue;
                }
                // Main thread ids are identical on every node (same spawn
                // order everywhere), so rank 0 can address them directly.
                let dst = crate::ChanterId::new(pe, process, me.thread);
                node.send(dst, TAG_SHUTDOWN, b"")
                    .expect("termination barrier SHUTDOWN send failed");
            }
        }
    } else {
        node.send(rank0, TAG_DONE, b"")
            .expect("termination barrier DONE send failed");
        node.recv(RecvSrc::Thread(rank0), Some(TAG_SHUTDOWN))
            .or_else(|_| node.recv(RecvSrc::Process(rank0.address()), Some(TAG_SHUTDOWN)))
            .expect("termination barrier SHUTDOWN receive failed");
    }
}

/// Statistics from one completed [`ChantCluster::run`].
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-node statistics, in rank order.
    pub nodes: Vec<NodeReport>,
    /// What the fault shim did during the run (`None` when no shim was
    /// installed).
    pub faults: Option<FaultStatsSnapshot>,
    /// What the transport did during the run (socket-specific counters
    /// stay zero on the in-process backend).
    pub transport: TransportStatsSnapshot,
    counters: crate::telemetry::Totals,
}

/// One node's statistics.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// Processing element id.
    pub pe: u32,
    /// Process id within the PE.
    pub process: u32,
    /// Scheduler counters (context switches, yields, ...).
    pub sched: chant_ult::StatsSnapshot,
    /// Communication counters (msgtests, sends, ...).
    pub comm: CommStatsSnapshot,
    /// RSR robustness counters (retries, timeouts, dedup hits, ...).
    pub rsr: RsrStatsSnapshot,
}

impl ClusterReport {
    /// Cluster-wide totals of every counter of every family present on
    /// this process's nodes — `ult`, `comm`, `rsr`, installed extensions
    /// such as `kv` and `pubsub` — plus the world's `transport` and
    /// `fault`, as `("<family>.<field>", value)`: the names telemetry
    /// emits and the paper's tables are built from (`ult.full_switches`
    /// is its "CtxSw" column, `comm.msgtests` its "msgtest" column).
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// One of [`ClusterReport::counters`] by name; 0 for a family that
    /// was not present.
    pub fn counter(&self, name: &str) -> u64 {
        crate::telemetry::value_of(&self.counters, name)
    }
}
