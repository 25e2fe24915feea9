//! The discrete-event engine.
//!
//! Every virtual-processor action that can *observe* a message (a
//! `msgtest`, a scheduler table scan, a blocking claim) happens as its
//! own heap event, so the engine's global timestamp order guarantees that
//! an observation at time *t* has seen every message arrival ≤ *t* —
//! conservative parallel-discrete-event correctness without lookahead
//! negotiation. Compute bursts and sends between observations are
//! executed inline; a send inserts its arrival event with the correct
//! mid-burst timestamp.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use chant_core::PollingPolicy;

use crate::cost::CostModel;
use crate::metrics::RunMetrics;
use crate::program::{LayerMode, SimOp, ThreadSpec};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::vp::{RecvReq, SimVp, ThState};
use crate::Ns;

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No events remain but some threads have not finished: the workload
    /// deadlocked (e.g. mismatched sends/receives).
    Deadlock {
        /// Threads still live per VP.
        live_per_vp: Vec<usize>,
    },
    /// The event budget was exhausted (runaway polling loop).
    EventBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { live_per_vp } => {
                write!(f, "simulation deadlock; live threads per VP: {live_per_vp:?}")
            }
            SimError::EventBudgetExhausted { budget } => {
                write!(f, "event budget of {budget} exhausted")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Resume a VP: run its current thread or its scheduler.
    VpStep(usize),
    /// A message lands at `dst`.
    Arrive { dst: usize, src: usize, tag: u32 },
}

/// A deterministic discrete-event simulation of `n` virtual processors
/// running simulated threads under a Chant polling policy (or the raw
/// Process mode).
pub struct Engine {
    cost: CostModel,
    mode: LayerMode,
    vps: Vec<SimVp>,
    /// The event queue. `Ev` is small and totally ordered, so the whole
    /// payload lives inline in the heap key: no side table to grow for
    /// the life of the run, no indirection per pop. The `seq` component
    /// keeps same-timestamp events FIFO.
    heap: BinaryHeap<Reverse<(Ns, u64, Ev)>>,
    seq: u64,
    max_events: u64,
    /// Multiplicative compute noise: percent amplitude and LCG state.
    jitter_pct: u64,
    jitter_state: u64,
    trace: Option<Trace>,
}

impl Engine {
    /// Create an engine with `vp_count` processors.
    pub fn new(vp_count: usize, cost: CostModel, mode: LayerMode) -> Engine {
        Engine {
            cost,
            mode,
            vps: (0..vp_count).map(|_| SimVp::new()).collect(),
            heap: BinaryHeap::new(),
            seq: 0,
            max_events: 200_000_000,
            jitter_pct: 0,
            jitter_state: 0,
            trace: None,
        }
    }

    /// Record an execution trace for this run (see [`crate::Trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// Take the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Trace {
        self.trace.take().unwrap_or_default()
    }

    #[inline]
    fn emit(&mut self, vp: usize, at: Ns, kind: TraceKind) {
        if let Some(t) = &mut self.trace {
            t.events.push(TraceEvent { at, vp, kind });
        }
    }

    /// Apply deterministic multiplicative noise of ±`pct`% to every
    /// compute burst, seeded by `seed`. Real machines never execute the
    /// Figure-9 loop in perfect lockstep; this reproduces the de-phasing
    /// that makes receives race their partner's send (and lets the
    /// waiting-thread count grow with α, as in the paper's Figure 13 —
    /// absolute skew scales with the compute time it perturbs).
    pub fn set_compute_jitter(&mut self, pct: u64, seed: u64) {
        assert!(pct < 100, "jitter amplitude must be below 100%");
        self.jitter_pct = pct;
        self.jitter_state = seed | 1;
    }

    /// Next jittered percentage factor in `[100-pct, 100+pct]`.
    fn jitter_factor(&mut self) -> u64 {
        if self.jitter_pct == 0 {
            return 100;
        }
        self.jitter_state = self
            .jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let span = 2 * self.jitter_pct + 1;
        100 - self.jitter_pct + (self.jitter_state >> 33) % span
    }

    /// Override the runaway-protection event budget.
    pub fn set_max_events(&mut self, budget: u64) {
        self.max_events = budget;
    }

    /// Place a thread on a VP.
    pub fn add_thread(&mut self, spec: ThreadSpec) {
        assert!(spec.vp < self.vps.len(), "thread placed on missing VP");
        if let LayerMode::Process = self.mode {
            assert!(
                self.vps[spec.vp].threads.is_empty(),
                "Process mode hosts exactly one thread per VP"
            );
        }
        self.vps[spec.vp].add_thread(spec.program);
    }

    /// Convenience: add one thread per listed spec.
    pub fn add_threads(&mut self, specs: impl IntoIterator<Item = ThreadSpec>) {
        for s in specs {
            self.add_thread(s);
        }
    }

    fn push(&mut self, at: Ns, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, ev)));
    }

    fn schedule_step(&mut self, vpi: usize, at: Ns) {
        if !self.vps[vpi].step_scheduled {
            self.vps[vpi].step_scheduled = true;
            self.push(at, Ev::VpStep(vpi));
        }
    }

    /// Run to completion and report metrics.
    pub fn run(&mut self) -> Result<RunMetrics, SimError> {
        // Kick off every VP at t = 0.
        for vpi in 0..self.vps.len() {
            self.schedule_step(vpi, 0);
        }

        let mut processed: u64 = 0;
        // Same-timestamp events are drained from the heap in one batch
        // (they are already in FIFO `seq` order), so processing them
        // never interleaves sift-downs with the pushes they cause;
        // events pushed *at* the batch timestamp form the next batch.
        let mut batch: Vec<Ev> = Vec::new();
        while let Some(Reverse((at, _seq, ev))) = self.heap.pop() {
            batch.clear();
            batch.push(ev);
            while let Some(&Reverse((t, _, _))) = self.heap.peek() {
                if t != at {
                    break;
                }
                let Some(Reverse((_, _, ev))) = self.heap.pop() else {
                    unreachable!("peeked event vanished");
                };
                batch.push(ev);
            }
            for &ev in &batch {
                processed += 1;
                if processed > self.max_events {
                    return Err(SimError::EventBudgetExhausted {
                        budget: self.max_events,
                    });
                }
                match ev {
                    Ev::VpStep(vpi) => {
                        self.vps[vpi].step_scheduled = false;
                        if self.vps[vpi].finished() {
                            continue;
                        }
                        self.vps[vpi].clock = self.vps[vpi].clock.max(at);
                        self.step(vpi);
                    }
                    Ev::Arrive { dst, src, tag } => {
                        self.emit(dst, at, TraceKind::Arrive { from: src, tag });
                        if let Some(tid) = self.vps[dst].deliver(src, tag, at) {
                            // The receive is satisfied: the thread no longer
                            // waits on an *outstanding* request (Figure 13's
                            // quantity), even if it resumes later.
                            let t = self.vps[dst].waiting_floor(at);
                            self.vps[dst].clear_waiting(tid, t);
                            // Feed the WQ+testany completion list: a table
                            // member's delivery makes it ready, so the next
                            // msgtestany pops it instead of scanning.
                            if self.policy() == Some(PollingPolicy::SchedulerPollsWqTestany)
                                && self.vps[dst].threads[tid].state == ThState::BlockedWq
                            {
                                self.vps[dst].wq_ready.push_back(tid);
                            }
                        }
                        // Wake the VP if it was idle; a spurious wake just
                        // costs one scheduler round.
                        if self.vps[dst].idle {
                            self.vps[dst].idle = false;
                            let wake_at = self.vps[dst].clock.max(at);
                            self.charge_idle_spin(dst, wake_at);
                            self.schedule_step(dst, wake_at);
                        }
                    }
                }
            }
        }

        let live: Vec<usize> = self.vps.iter().map(|v| v.live).collect();
        if live.iter().any(|&l| l > 0) {
            return Err(SimError::Deadlock { live_per_vp: live });
        }

        let mut total: Ns = 0;
        for vp in &mut self.vps {
            let clock = vp.clock;
            vp.finish_waiting(clock);
            total = total.max(clock);
        }
        Ok(RunMetrics {
            total_ns: total,
            vps: self.vps.iter().map(|v| v.metrics).collect(),
        })
    }

    /// Account for the polling the live scheduler would have performed
    /// during a collapsed idle period `[idle_since, wake_at)`. The paper's
    /// schedulers never sleep: TP keeps dispatching and re-testing the
    /// waiting threads (full switch each), PS keeps partial-switching over
    /// the pending TCBs, and WQ keeps scanning its request table — all of
    /// which show up in its msgtest and context-switch columns.
    fn charge_idle_spin(&mut self, vpi: usize, wake_at: Ns) {
        let gap = wake_at.saturating_sub(self.vps[vpi].idle_since);
        if gap == 0 {
            return;
        }
        let c = &self.cost;
        match self.policy() {
            None => {} // a blocked process really does sleep in the kernel
            Some(PollingPolicy::ThreadPolls) => {
                // TP only idles when the ready queue is empty (waiting
                // threads stay dispatchable), so there is nothing to spin
                // on: the scheduler just loops looking at an empty queue.
                let m = &mut self.vps[vpi].metrics;
                let _ = m;
            }
            Some(PollingPolicy::SchedulerPollsPs) => {
                let k = self.vps[vpi]
                    .ready
                    .iter()
                    .filter(|&&t| self.vps[vpi].threads[t].state == ThState::PsPending)
                    .count() as u64;
                if k == 0 {
                    return;
                }
                let cycle = c.sched_point_ns + k * (c.msgtest_ns + c.ctxsw_partial_ns);
                let n = gap / cycle.max(1);
                let m = &mut self.vps[vpi].metrics;
                m.sched_points += n;
                m.msgtest_attempted += n * k;
                m.msgtest_failed += n * k;
                m.partial_switches += n * k;
            }
            Some(PollingPolicy::SchedulerPollsWq) => {
                let k = self.vps[vpi].wq.len() as u64;
                if k == 0 {
                    return;
                }
                let cycle = c.sched_point_ns + k * c.msgtest_ns;
                let n = gap / cycle.max(1);
                let m = &mut self.vps[vpi].metrics;
                m.sched_points += n;
                m.msgtest_attempted += n * k;
                m.msgtest_failed += n * k;
            }
            Some(PollingPolicy::SchedulerPollsWqTestany) => {
                let k = self.vps[vpi].wq.len() as u64;
                if k == 0 {
                    return;
                }
                // Completion-list testany: the inquiry costs its base
                // price regardless of how many requests are outstanding.
                let cycle = c.sched_point_ns + c.testany_base_ns;
                let n = gap / cycle.max(1);
                let m = &mut self.vps[vpi].metrics;
                m.sched_points += n;
                m.testany_calls += n;
            }
        }
    }

    fn policy(&self) -> Option<PollingPolicy> {
        match self.mode {
            LayerMode::Process => None,
            LayerMode::Chant(p) => Some(p),
        }
    }

    // ------------------------------------------------------------------
    // One VP step: run the current thread, or run the scheduler.
    // ------------------------------------------------------------------

    fn step(&mut self, vpi: usize) {
        match self.vps[vpi].running {
            Some(tid) => self.run_thread(vpi, tid),
            None => self.run_scheduler(vpi),
        }
    }

    /// Execute the running thread until it blocks on a receive, finishes,
    /// or reaches an observation boundary (a receive test that must be a
    /// fresh event).
    fn run_thread(&mut self, vpi: usize, tid: usize) {
        let chant = matches!(self.mode, LayerMode::Chant(_));

        // If the thread is parked at a receive test, perform it now: this
        // event fired at the test's own timestamp, so every arrival ≤ now
        // has been delivered.
        if self.vps[vpi].threads[tid].at_recv_test && !self.recv_test(vpi, tid) {
            return; // moved to a waiting state; the scheduler took over
        }
        // (On test success, recv_test consumed the receive and advanced
        // the pc; execution falls through to the next op.)

        loop {
            let (op, done) = {
                let th = &self.vps[vpi].threads[tid];
                if th.iter >= th.program.repeat {
                    (None, true)
                } else {
                    (Some(th.program.ops[th.pc]), false)
                }
            };
            if done {
                self.thread_done(vpi, tid);
                return;
            }
            match op.expect("op when not done") {
                SimOp::Compute(units) => {
                    let factor = self.jitter_factor();
                    self.vps[vpi].clock += units * self.cost.compute_unit_ns * factor / 100;
                    self.advance_pc(vpi, tid);
                }
                SimOp::ComputeBeta(units) => {
                    let factor = self.jitter_factor();
                    self.vps[vpi].clock += units * self.cost.beta_unit_ns * factor / 100;
                    self.advance_pc(vpi, tid);
                }
                SimOp::Send { to_vp, tag, bytes } => {
                    let mut cpu = self.cost.send_cpu_ns;
                    if chant {
                        cpu += self.cost.chant_send_ns;
                    }
                    self.vps[vpi].clock += cpu;
                    self.vps[vpi].metrics.sends += 1;
                    let arrival = self.vps[vpi].clock + self.cost.net_time(bytes);
                    let at = self.vps[vpi].clock;
                    self.emit(vpi, at, TraceKind::Send { to: to_vp, tag });
                    self.push(
                        arrival,
                        Ev::Arrive {
                            dst: to_vp,
                            src: vpi,
                            tag,
                        },
                    );
                    self.advance_pc(vpi, tid);
                }
                SimOp::Recv { from_vp, tag } => {
                    // Process mode's blocking crecv bundles posting and
                    // claiming into one call, costed at the claim.
                    let cpu = if chant {
                        self.cost.recv_post_ns + self.cost.chant_recv_ns
                    } else {
                        0
                    };
                    self.vps[vpi].clock += cpu;
                    let posted_at = self.vps[vpi].clock;
                    // An already-arrived (unexpected) message satisfies
                    // the receive at posting time.
                    let claimed = self.vps[vpi].claim_unexpected(from_vp, tag);
                    self.vps[vpi].threads[tid].recv = Some(RecvReq {
                        from_vp,
                        tag,
                        posted_at,
                        complete_at: claimed.map(|a| a.max(posted_at)),
                    });
                    self.vps[vpi].threads[tid].at_recv_test = true;
                    // The completion test is an observation: give pending
                    // arrivals ≤ test-time a chance to be delivered first.
                    let at = self.vps[vpi].clock;
                    self.schedule_step(vpi, at);
                    return;
                }
            }
        }
    }

    /// Perform the receive completion check for the running thread.
    /// Returns true if the receive completed and the thread continues.
    fn recv_test(&mut self, vpi: usize, tid: usize) -> bool {
        let clock = self.vps[vpi].clock;
        match self.policy() {
            None => {
                // Process mode: a blocking crecv. Claim if complete,
                // otherwise park the whole process until arrival.
                if self.vps[vpi].recv_complete(tid, clock) {
                    self.vps[vpi].clock += self.cost.crecv_claim_ns;
                    self.finish_recv(vpi, tid);
                    true
                } else {
                    self.vps[vpi].threads[tid].state = ThState::BlockedProc;
                    self.vps[vpi].running = None;
                    self.vps[vpi].mark_waiting(tid, clock);
                    self.run_scheduler(vpi);
                    false
                }
            }
            Some(policy) => {
                // One msgtest (paper Figures 5/6: test right after the
                // ireceive, then decide).
                self.vps[vpi].clock += self.cost.msgtest_ns;
                self.vps[vpi].metrics.msgtest_attempted += 1;
                let t = self.vps[vpi].clock;
                if self.vps[vpi].recv_complete(tid, t) {
                    // Figure 5's final `receive(args)`: claim the message.
                    self.vps[vpi].clock += self.cost.crecv_claim_ns;
                    self.vps[vpi].clear_waiting(tid, t);
                    self.finish_recv(vpi, tid);
                    return true;
                }
                self.vps[vpi].metrics.msgtest_failed += 1;
                self.vps[vpi].mark_waiting(tid, t);
                self.emit(vpi, t, TraceKind::BlockOnRecv { thread: tid });
                match policy {
                    PollingPolicy::ThreadPolls => {
                        // Yield; re-test on next dispatch (Figure 5).
                        self.vps[vpi].threads[tid].state = ThState::AwaitTp;
                        self.vps[vpi].ready.push_back(tid);
                    }
                    PollingPolicy::SchedulerPollsWq
                    | PollingPolicy::SchedulerPollsWqTestany => {
                        // Register with the scheduler's table (Figure 6).
                        self.vps[vpi].clock += self.cost.wq_register_ns;
                        self.vps[vpi].threads[tid].state = ThState::BlockedWq;
                        self.vps[vpi].wq.push(tid);
                    }
                    PollingPolicy::SchedulerPollsPs => {
                        // Pending request lives in the TCB; the dispatcher
                        // tests it before restoring (partial switch).
                        self.vps[vpi].threads[tid].state = ThState::PsPending;
                        self.vps[vpi].ready.push_back(tid);
                    }
                }
                self.vps[vpi].running = None;
                self.run_scheduler(vpi);
                false
            }
        }
    }

    /// Receive completed: consume the request and advance the program.
    /// The caller decides how execution continues (inline or via a fresh
    /// step event).
    fn finish_recv(&mut self, vpi: usize, tid: usize) {
        let th = &mut self.vps[vpi].threads[tid];
        th.recv = None;
        th.at_recv_test = false;
        self.vps[vpi].metrics.recvs += 1;
        let at = self.vps[vpi].clock;
        self.emit(vpi, at, TraceKind::RecvComplete { thread: tid });
        self.advance_pc(vpi, tid);
    }

    fn advance_pc(&mut self, vpi: usize, tid: usize) {
        let th = &mut self.vps[vpi].threads[tid];
        th.pc += 1;
        if th.pc == th.program.ops.len() {
            th.pc = 0;
            th.iter += 1;
        }
    }

    fn thread_done(&mut self, vpi: usize, tid: usize) {
        let vp = &mut self.vps[vpi];
        vp.threads[tid].state = ThState::Done;
        vp.live -= 1;
        vp.running = None;
        let at = self.vps[vpi].clock;
        self.emit(vpi, at, TraceKind::ThreadDone { thread: tid });
        self.run_scheduler(vpi);
    }

    // ------------------------------------------------------------------
    // The scheduler: one schedule point (hooks + one candidate round).
    // ------------------------------------------------------------------

    fn run_scheduler(&mut self, vpi: usize) {
        if self.vps[vpi].finished() {
            return;
        }
        let policy = self.policy();

        if policy.is_some() {
            self.vps[vpi].metrics.sched_points += 1;
            self.vps[vpi].clock += self.cost.sched_point_ns;
        }

        // Schedule-point hook: the WQ table scan.
        match policy {
            Some(PollingPolicy::SchedulerPollsWq) => self.wq_scan(vpi),
            Some(PollingPolicy::SchedulerPollsWqTestany) => self.wq_scan_testany(vpi),
            _ => {}
        }

        // Process mode: resume a process whose blocking crecv completed.
        if policy.is_none() {
            let clock = self.vps[vpi].clock;
            for tid in 0..self.vps[vpi].threads.len() {
                if self.vps[vpi].threads[tid].state == ThState::BlockedProc
                    && self.vps[vpi].recv_complete(tid, clock)
                {
                    self.vps[vpi].clear_waiting(tid, clock);
                    self.vps[vpi].threads[tid].state = ThState::Ready;
                    self.vps[vpi].ready.push_back(tid);
                }
            }
        }

        // One candidate round. PS defers unready candidates so they are
        // re-examined only after the next schedule point.
        let round = self.vps[vpi].ready.len();
        let mut deferred: Vec<usize> = Vec::new();
        let mut chosen: Option<usize> = None;
        for _ in 0..round {
            let Some(tid) = self.vps[vpi].ready.pop_front() else {
                break;
            };
            if self.vps[vpi].threads[tid].state == ThState::PsPending {
                // Partial switch: test the TCB's pending request.
                self.vps[vpi].clock += self.cost.msgtest_ns;
                self.vps[vpi].metrics.msgtest_attempted += 1;
                let t = self.vps[vpi].clock;
                if self.vps[vpi].recv_complete(tid, t) {
                    chosen = Some(tid);
                    break;
                }
                self.vps[vpi].metrics.msgtest_failed += 1;
                self.vps[vpi].metrics.partial_switches += 1;
                self.vps[vpi].clock += self.cost.ctxsw_partial_ns;
                deferred.push(tid);
            } else {
                chosen = Some(tid);
                break;
            }
        }
        for t in deferred {
            self.vps[vpi].ready.push_back(t);
        }

        match chosen {
            Some(tid) => self.dispatch(vpi, tid),
            None => {
                if self.vps[vpi].finished() {
                    return;
                }
                // Nothing runnable: the live scheduler spins polling
                // until a message arrives. We collapse the spin to the
                // next arrival and account for it retroactively at wake
                // (see `charge_idle_spin`).
                self.vps[vpi].idle = true;
                self.vps[vpi].idle_since = self.vps[vpi].clock;
                let at = self.vps[vpi].clock;
                self.emit(vpi, at, TraceKind::Idle);
            }
        }
    }

    fn dispatch(&mut self, vpi: usize, tid: usize) {
        if self.policy().is_some() {
            // Thread-layer context switch costs; the Process baseline has
            // no thread scheduler in the path.
            let same = self.vps[vpi].last_ran == Some(tid)
                && !self.vps[vpi].threads[tid].needs_restore;
            if same {
                self.vps[vpi].metrics.redispatches += 1;
                self.vps[vpi].clock += self.cost.redispatch_ns;
            } else {
                self.vps[vpi].metrics.full_switches += 1;
                self.vps[vpi].clock += self.cost.ctxsw_full_ns;
            }
            let at = self.vps[vpi].clock;
            self.emit(
                vpi,
                at,
                TraceKind::Dispatch {
                    thread: tid,
                    full_switch: !same,
                },
            );
        }
        // A PS candidate chosen by the dispatcher has a complete receive;
        // it resumes right after its (successful) pending test and claims
        // the message (Figure 5's final `receive(args)`).
        if self.vps[vpi].threads[tid].state == ThState::PsPending {
            let t = self.vps[vpi].clock;
            self.vps[vpi].clock += self.cost.crecv_claim_ns;
            self.vps[vpi].clear_waiting(tid, t);
            self.finish_recv(vpi, tid);
        }
        self.vps[vpi].threads[tid].state = ThState::Running;
        self.vps[vpi].threads[tid].needs_restore = false;
        self.vps[vpi].running = Some(tid);
        self.vps[vpi].last_ran = Some(tid);
        let at = self.vps[vpi].clock;
        self.schedule_step(vpi, at);
    }

    /// NX-style WQ scan: every outstanding request is tested in turn.
    fn wq_scan(&mut self, vpi: usize) {
        let mut i = 0;
        while i < self.vps[vpi].wq.len() {
            let tid = self.vps[vpi].wq[i];
            self.vps[vpi].clock += self.cost.msgtest_ns;
            self.vps[vpi].metrics.msgtest_attempted += 1;
            let t = self.vps[vpi].clock;
            if self.vps[vpi].recv_complete(tid, t) {
                self.vps[vpi].clock += self.cost.crecv_claim_ns;
                self.vps[vpi].wq.swap_remove(i);
                self.vps[vpi].clear_waiting(tid, t);
                self.vps[vpi].finish_wq_recv(tid);
            } else {
                self.vps[vpi].metrics.msgtest_failed += 1;
                i += 1;
            }
        }
    }

    /// MPI-style WQ scan: the paper's idealized form — "a single call to
    /// the communication system, inquiring whether any of the outstanding
    /// receive requests have been satisfied. If so, the value returned
    /// from the check would designate a waiting thread, which could then
    /// be enabled for execution" (§4.2). Exactly one `msgtestany` per
    /// schedule point; further completed requests surface at subsequent
    /// points.
    ///
    /// Backed by the completion list (`wq_ready`), mirroring the live
    /// runtime's `CompletionSet`: each delivery queued its thread, so
    /// the inquiry pops in O(1) at its base cost instead of probing all
    /// `n` outstanding requests.
    fn wq_scan_testany(&mut self, vpi: usize) {
        if self.vps[vpi].wq.is_empty() {
            return;
        }
        self.vps[vpi].clock += self.cost.testany_base_ns;
        self.vps[vpi].metrics.testany_calls += 1;
        let t = self.vps[vpi].clock;
        if let Some(tid) = self.vps[vpi].wq_ready.pop_front() {
            debug_assert_eq!(self.vps[vpi].threads[tid].state, ThState::BlockedWq);
            debug_assert!(
                self.vps[vpi].recv_complete(tid, t),
                "completion list held an incomplete receive"
            );
            self.vps[vpi].clock += self.cost.crecv_claim_ns;
            let pos = self.vps[vpi]
                .wq
                .iter()
                .position(|&x| x == tid)
                .expect("ready thread missing from the WQ table");
            self.vps[vpi].wq.swap_remove(pos);
            self.vps[vpi].clear_waiting(tid, t);
            self.vps[vpi].finish_wq_recv(tid);
        }
    }
}

/// Convenience: build, load, and run a complete simulation.
pub fn simulate(
    vp_count: usize,
    cost: CostModel,
    mode: LayerMode,
    threads: Vec<ThreadSpec>,
) -> Result<RunMetrics, SimError> {
    let mut engine = Engine::new(vp_count, cost, mode);
    engine.add_threads(threads);
    engine.run()
}
