//! The communication world: a process group of endpoints over a
//! pluggable transport.
//!
//! This plays the role of NX on the Paragon (or an MPI communicator's
//! process group): `pes × procs_per_pe` addressable endpoints with
//! reliable, per-sender-FIFO delivery. Latency is not modelled here —
//! semantic fidelity is this crate's job; the Paragon *cost* model lives
//! in `chant-sim`.
//!
//! The final hop of [`WorldInner::route`] — getting a message to the
//! destination endpoint's matching tables — is [`WorldInner::last_hop`].
//! A message an endpoint sends to itself is delivered there and then,
//! on the sender's thread, into its own matching tables: it never
//! leaves the process, so no transport sees it. Every other message
//! goes through the world's [`Transport`]: synchronous in-process
//! delivery by default, or TCP sockets (possibly to other OS processes)
//! when built with [`TransportConfig::TcpEvent`]. Everything upstream of
//! that hop (fault shim, latency line, matching, statistics) treats both
//! kinds of message alike, so faults and latency reach self-links too.

use std::sync::{Arc, Once, OnceLock};

use bytes::Bytes;

use crate::delay::{DelayLine, LatencyModel};
use crate::endpoint::Endpoint;
use crate::fault::{FaultAction, FaultConfig, FaultInjector, FaultStatsSnapshot};
use crate::header::{Address, Header};
use crate::stats::CommStatsSnapshot;
use crate::transport::{
    build_transport, Progress, Transport, TransportConfig, TransportStatsSnapshot,
};

pub(crate) struct WorldInner {
    pes: u32,
    procs_per_pe: u32,
    /// PEs whose endpoints this OS process hosts (all of them except in
    /// multi-process TCP mode, where the process boundary is the PE).
    hosted: std::ops::Range<u32>,
    endpoints: Vec<Arc<Endpoint>>,
    delay: Option<Arc<DelayLine>>,
    faults: Option<Arc<FaultInjector>>,
    /// Installed immediately after `Arc::new_cyclic` returns, so the
    /// transport can never observe (or deliver into) a half-constructed
    /// world. Always populated by the time any
    /// message is routed.
    transport: OnceLock<Arc<dyn Transport>>,
    /// Guards teardown so [`CommWorld::shutdown`] and `Drop` compose:
    /// whichever runs first does the work, the other is a no-op.
    shutdown: Once,
}

impl WorldInner {
    /// Route a message: through the fault shim when one is installed,
    /// then through the delay line when a latency model is installed,
    /// then to [`WorldInner::last_hop`].
    pub(crate) fn route(&self, header: Header, body: Bytes) {
        if let Some(shim) = &self.faults {
            match shim.apply(&header, &body) {
                FaultAction::Deliver | FaultAction::DeliverAndHoldCopy => {}
                // Dropped outright, or held for the shim's background
                // deliverer (which bypasses the latency line — held
                // copies already model in-flight time).
                FaultAction::Drop | FaultAction::HoldOnly => return,
            }
        }
        match &self.delay {
            Some(line) => line.submit(header, body),
            None => self.last_hop(header, body),
        }
    }

    /// The post-shim, post-delay hop. A message to its own sender's
    /// endpoint is delivered into that endpoint now, on this thread (the
    /// call a transport's [`crate::transport::DeliverySink`] makes);
    /// any other goes to the transport. Also used by the fault shim's
    /// and latency line's background deliverers, so held and delayed
    /// copies take the same path as everything else.
    pub(crate) fn last_hop(&self, header: Header, body: Bytes) {
        if header.dst == header.src {
            self.endpoint(header.dst).deliver(header, body);
        } else {
            self.transport().send(header, body);
        }
    }

    pub(crate) fn transport(&self) -> &Arc<dyn Transport> {
        self.transport
            .get()
            .expect("transport installed during world construction")
    }

    /// Does this OS process host the endpoint at `addr`? False for
    /// out-of-bounds addresses (a corrupted frame must not panic the
    /// thread running the socket turn) and for PEs hosted by other
    /// processes.
    pub(crate) fn hosts(&self, addr: Address) -> bool {
        addr.pe < self.pes && addr.process < self.procs_per_pe && self.hosted.contains(&addr.pe)
    }
}

impl WorldInner {
    /// Stop the pipeline and close the transport. Idempotent.
    ///
    /// This exists separately from `Drop` because drop timing is
    /// refcount-driven: the fault shim's and delay line's deliverer
    /// threads hold transient upgrades of their `Weak<WorldInner>`, so
    /// the *last* strong reference can die on one of those threads (or
    /// inside a socket turn's delivery) — in which case `shutdown` skips
    /// joining the caller's own thread, and the socket turn closes its
    /// inbound side only once it ends. An owner that needs teardown
    /// to be complete when its drop returns (a `ChantCluster`, a test
    /// asserting no fd leaks) calls this explicitly from its own thread
    /// instead.
    pub(crate) fn shutdown_now(&self) {
        self.shutdown.call_once(|| {
            // Upstream stages first, so nothing new reaches the
            // transport while it tears down.
            if let Some(shim) = &self.faults {
                shim.shutdown();
            }
            if let Some(line) = &self.delay {
                line.shutdown();
            }
            if let Some(t) = self.transport.get() {
                t.shutdown();
            }
        });
    }
}

impl Drop for WorldInner {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

impl WorldInner {
    pub(crate) fn rank(&self, addr: Address) -> usize {
        assert!(
            addr.pe < self.pes && addr.process < self.procs_per_pe,
            "address {addr} outside world ({} PEs x {} procs)",
            self.pes,
            self.procs_per_pe
        );
        (addr.pe * self.procs_per_pe + addr.process) as usize
    }

    pub(crate) fn endpoint(&self, addr: Address) -> &Arc<Endpoint> {
        &self.endpoints[self.rank(addr)]
    }
}

/// A group of communicating processes (cf. the paper's Figure 3 "Process
/// Management: create a process group / add a process").
#[derive(Clone)]
pub struct CommWorld {
    inner: Arc<WorldInner>,
}

impl CommWorld {
    /// Create a world of `pes` processing elements with `procs_per_pe`
    /// processes each.
    pub fn new(pes: u32, procs_per_pe: u32) -> CommWorld {
        CommWorld::build(pes, procs_per_pe, None, None, TransportConfig::InProcess)
    }

    /// Create a world whose transport imposes wall-clock flight time on
    /// every message (`fixed + per_byte × n` nanoseconds, per-link FIFO).
    /// This makes the live runtime exhibit the latency the paper's
    /// threads exist to hide.
    pub fn with_latency(pes: u32, procs_per_pe: u32, model: LatencyModel) -> CommWorld {
        CommWorld::build(
            pes,
            procs_per_pe,
            Some(model),
            None,
            TransportConfig::InProcess,
        )
    }

    /// Create a world with the seeded fault shim installed (see
    /// [`FaultConfig`]): deliveries may be dropped, duplicated, delayed,
    /// or reordered per link, deterministically for a given seed.
    pub fn with_faults(pes: u32, procs_per_pe: u32, config: FaultConfig) -> CommWorld {
        CommWorld::build(
            pes,
            procs_per_pe,
            None,
            Some(config),
            TransportConfig::InProcess,
        )
    }

    /// Create a world routed through the given transport backend (see
    /// [`TransportConfig`]), with no latency model or fault shim.
    pub fn with_transport(pes: u32, procs_per_pe: u32, transport: TransportConfig) -> CommWorld {
        CommWorld::build(pes, procs_per_pe, None, None, transport)
    }

    /// Create a world with any combination of a latency model and the
    /// fault shim (the general form of [`CommWorld::with_latency`] /
    /// [`CommWorld::with_faults`]), on the in-process transport.
    pub fn with_options(
        pes: u32,
        procs_per_pe: u32,
        latency: Option<LatencyModel>,
        faults: Option<FaultConfig>,
    ) -> CommWorld {
        CommWorld::build(pes, procs_per_pe, latency, faults, TransportConfig::InProcess)
    }

    /// The fully general constructor: latency model, fault shim, and
    /// transport backend all chosen independently. The shim and the
    /// delay line sit *above* the transport, so faults injected on a
    /// TCP world genuinely perturb socket traffic.
    pub fn with_config(
        pes: u32,
        procs_per_pe: u32,
        latency: Option<LatencyModel>,
        faults: Option<FaultConfig>,
        transport: TransportConfig,
    ) -> CommWorld {
        CommWorld::build(pes, procs_per_pe, latency, faults, transport)
    }

    pub(crate) fn build(
        pes: u32,
        procs_per_pe: u32,
        model: Option<LatencyModel>,
        faults: Option<FaultConfig>,
        transport: TransportConfig,
    ) -> CommWorld {
        assert!(pes > 0 && procs_per_pe > 0, "world must be non-empty");
        let hosted = transport.hosted_pes(pes);
        let inner = Arc::new_cyclic(|weak| {
            let mut endpoints = Vec::with_capacity((pes * procs_per_pe) as usize);
            for pe in 0..pes {
                for process in 0..procs_per_pe {
                    endpoints.push(Arc::new(Endpoint::new(
                        Address::new(pe, process),
                        weak.clone(),
                    )));
                }
            }
            WorldInner {
                pes,
                procs_per_pe,
                hosted,
                endpoints,
                delay: model.map(|m| DelayLine::start(m, weak.clone())),
                faults: faults.map(|c| FaultInjector::start(c, weak.clone())),
                transport: OnceLock::new(),
                shutdown: Once::new(),
            }
        });
        // Install the transport only now, on the completed world: a TCP
        // listener starts accepting the moment it exists, and a turn
        // must always be able to upgrade its weak reference.
        let t = build_transport(&transport, pes, Arc::downgrade(&inner));
        if inner.transport.set(t).is_err() {
            unreachable!("transport installed twice");
        }
        CommWorld { inner }
    }

    /// Whether this world models message flight time.
    pub fn has_latency(&self) -> bool {
        self.inner.delay.is_some()
    }

    /// Whether this world has the fault shim installed.
    pub fn has_faults(&self) -> bool {
        self.inner.faults.is_some()
    }

    /// What the fault shim has done so far (`None` when no shim is
    /// installed).
    pub fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.inner.faults.as_ref().map(|f| f.stats().snapshot())
    }

    /// The name of the transport backend this world routes through
    /// (`"inproc"` or `"tcp-event"`).
    pub fn transport_name(&self) -> &'static str {
        self.inner.transport().name()
    }

    /// How a scheduler drives this world's transport, when it has no
    /// thread of its own (the socket backend): `None` when delivery
    /// needs no driving (in-process). A runtime that sleeps adds
    /// [`Progress::fd`] to what its idle threads sleep on and runs
    /// [`Progress::turn`] when it is readable; an OS thread blocked in
    /// [`crate::RecvHandle::msgwait`] drives it by itself.
    pub fn progress(&self) -> Option<Progress> {
        Progress::of(self.inner.transport())
    }

    /// What the transport has done so far (frames, bytes, connections,
    /// failures — see [`TransportStatsSnapshot`]).
    pub fn transport_stats(&self) -> TransportStatsSnapshot {
        self.inner.transport().stats()
    }

    /// Tear the world down *now*, on the calling thread: stop the fault
    /// shim and delay line (joining their threads) and close every
    /// transport socket. Idempotent, and implied by
    /// dropping the last `CommWorld` clone — but drop timing is
    /// refcount-driven (a background deliverer's transient upgrade can
    /// be the last reference), so callers that need teardown to be
    /// *complete* when this returns — before sampling `/proc/self/fd`,
    /// say — call it explicitly. Messages routed afterwards are
    /// silently dropped.
    pub fn shutdown(&self) {
        self.inner.shutdown_now();
    }

    /// The contiguous range of PEs whose endpoints live in this OS
    /// process: all of them, except in multi-process TCP mode where
    /// each process hosts exactly one PE.
    pub fn hosted_pes(&self) -> std::ops::Range<u32> {
        self.inner.hosted.clone()
    }

    /// A flat world: `n` PEs with one process each.
    pub fn flat(n: u32) -> CommWorld {
        CommWorld::new(n, 1)
    }

    /// Number of processing elements.
    pub fn pes(&self) -> u32 {
        self.inner.pes
    }

    /// Processes per processing element.
    pub fn procs_per_pe(&self) -> u32 {
        self.inner.procs_per_pe
    }

    /// Total number of endpoints.
    pub fn len(&self) -> usize {
        self.inner.endpoints.len()
    }

    /// Whether the world has no endpoints (never true; worlds are
    /// non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.inner.endpoints.is_empty()
    }

    /// The endpoint at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is outside the world.
    pub fn endpoint(&self, addr: Address) -> Arc<Endpoint> {
        Arc::clone(self.inner.endpoint(addr))
    }

    /// All endpoint addresses, in rank order.
    pub fn addresses(&self) -> Vec<Address> {
        self.inner.endpoints.iter().map(|e| e.addr()).collect()
    }

    /// Sum of all endpoints' statistics (e.g. the paper's total `msgtest`
    /// count across both PEs).
    pub fn total_stats(&self) -> CommStatsSnapshot {
        let mut total = CommStatsSnapshot::default();
        for ep in &self.inner.endpoints {
            total += ep.stats().snapshot();
        }
        total
    }
}

impl std::fmt::Debug for CommWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommWorld")
            .field("pes", &self.inner.pes)
            .field("procs_per_pe", &self.inner.procs_per_pe)
            .field("transport", &self.inner.transport().name())
            .finish()
    }
}
