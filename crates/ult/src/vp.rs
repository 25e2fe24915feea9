//! The virtual processor: a strict cooperative scheduler multiplexing
//! user-level threads, with the hook points Chant's polling policies need.
//!
//! A [`Vp`] corresponds to the paper's *(processing element, process)*
//! context: one address space's worth of lightweight threads. In the
//! paper's model exactly one thread of a VP executes at a time; the
//! executing thread holds the VP's *scheduling baton* and passes it on at
//! explicit points (`yield_now`, `block`, exit). Whoever holds the baton
//! also runs the scheduler — and therefore the installed
//! [`SchedulerHook`]s — which is how "the scheduler polls for outstanding
//! messages on each context switch" (paper §3.1) without any dedicated
//! scheduler thread.
//!
//! A lane is **one OS thread** — the caller of [`Vp::start`] for lane 0,
//! a `"{vp}-w{k}"` host thread for each further lane — and passing the
//! baton is a user-level context switch on that thread
//! ([`crate::ctx`]): the departing thread runs the scheduler *on its own
//! stack*, picks the next thread, and `dispatch_to` saves its registers
//! and restores the other's. A partial switch (PS) is then literally the
//! paper's: the scheduler peeks at the next TCB's pending request before
//! restoring its context, and puts the TCB back if the message is not
//! there. An exiting thread picks its successor the same way and the
//! context layer makes the final switch once the thread's closure is
//! gone; the lane's last exit switches back to the host, and
//! [`Vp::start`] returns.
//!
//! # Multi-VP mode
//!
//! With [`VpConfig::n_vps`] > 1 the VP multiplexes its threads over N
//! *worker lanes*, one scheduling baton and one OS thread each, so a
//! multicore PE can run N user-level threads truly in parallel. Each
//! lane owns a run queue. A thread is placed on a *home* lane at spawn —
//! round-robin, or pinned with
//! [`SpawnAttr::affinity`](crate::SpawnAttr::affinity) — and placement
//! is final: the thread is queued only on its home lane, and only that
//! lane's OS thread ever pops and resumes it, from its first instruction
//! to its exit. A thread that yields or blocks is on its home queue
//! *before* its registers are saved, but the only scheduler that can pop
//! it then is the one running on its own stack, which redispatches it in
//! place. Other lanes touch a lane only to make one of its threads ready
//! (a push onto the home queue, then [`Vp::wake`]) and through scheduler
//! hooks, which stay effectively single-threaded: the schedule-point
//! sweep is serialized by a try-lock gate (contending lanes skip, they
//! do not wait). At `n_vps == 1` this is the paper's single-baton
//! scheduler: the gate is never contended, so counter streams are
//! bit-identical to the pre-multi-VP scheduler while anything is
//! runnable.
//!
//! # Waiting
//!
//! "Nothing to run" is a kernel sleep. A lane whose round dispatched
//! nothing — own queue empty, every partial-switch candidate requeued —
//! fires the timers that are due and otherwise **parks its OS thread**
//! until the nearest armed deadline or [`Vp::wake`] (see [`crate::park`]
//! for the parker and why no wake-up is lost). Everything that can make
//! a thread runnable ends the park: [`Vp::unblock`], [`Vp::spawn`],
//! [`Vp::cancel`], [`Vp::set_priority`], a timer, the last thread's
//! exit — and, from outside
//! the VP, whoever completes what a scheduler hook is polling for calls
//! [`Vp::wake`] itself (Chant's endpoints do on every delivery). Timed
//! waits ([`Vp::block_until`], [`Vp::timer_arm`]) register a deadline in
//! the VP's timer queue instead of staying ready to watch a clock; due
//! timers fire at every schedule point, so a busy lane honours them too.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::attr::{Priority, SpawnAttr};
use crate::config::VpConfig;
use crate::ctx::{Context, Host, Kind};
use crate::current::{self, UltContext};
use crate::error::{JoinError, UltError};
use crate::hooks::{DispatchDecision, HookRef, PendingPoll};
use crate::park::{Parker, TimerKey, Timers, Woke};
use crate::stats::VpStats;
use crate::tcb::{Lifecycle, Outcome, Phase, Tcb, Tid, MAIN_TID};

/// How long a hook-free VP with every live thread blocked and no timer
/// armed must go without a single wake-up before it is declared
/// deadlocked. Only an OS thread outside the VP could still unblock
/// anyone by then, and it has had this long to do so.
const DEADLOCK_GRACE: Duration = Duration::from_secs(1);

/// How often a busy lane runs the progress source's turn at a schedule
/// point ([`Vp::set_progress`]). An idle lane needs no interval — it
/// sleeps on the source's fd and turns the moment it is readable — but
/// a lane that never sleeps would otherwise leave arrivals unread. A
/// turn costs a syscall, and a fan-out switches threads every
/// microsecond or so: turning at every schedule point measurably
/// raised the CPU per operation there, while 50 µs is a fraction of a
/// socket round trip (≈ 100 µs on loopback), so a waiter sees its
/// reply in well under one more trip.
const PROGRESS_INTERVAL_NS: u64 = 50_000;

/// An external event source the lanes drive (see [`Vp::set_progress`]).
type ProgressTurn = Box<dyn Fn(bool) + Send + Sync>;

/// Panic payload used to unwind a cancelled thread (cf.
/// `pthread_chanter_cancel`). Recognized and silenced by our panic hook.
struct CancelPayload;

/// Install a process-wide panic hook that silences cancellation unwinds
/// while delegating every other panic to the previously installed hook —
/// after saying *which user-level thread* panicked: the OS thread the
/// default report names is the lane, shared by every thread on it.
fn install_cancel_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CancelPayload>() {
                return; // orderly cancellation, not an error
            }
            if let Some(who) = current::describe_current() {
                eprintln!("user-level thread {who} panicked:");
            }
            prev(info);
        }));
    });
}

/// How the baton holder is departing when it invokes the dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Departure {
    /// Voluntary yield: requeue me, run someone (possibly me again).
    Yield,
    /// I am blocked: do not requeue me; switch away.
    Block,
    /// I am exiting: choose my successor, do not come back.
    Exit,
    /// Initial dispatch from [`Vp::start`]'s calling thread (or one of
    /// its worker-lane host threads).
    Bootstrap,
}

/// Externally visible lifecycle state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// On the ready queue awaiting dispatch.
    Ready,
    /// Currently executing.
    Running,
    /// Waiting for an explicit unblock.
    Blocked,
    /// Finished (exit value possibly unclaimed).
    Done,
}

/// Introspection data about one thread (cf. the paper's Figure 2
/// "Information: thread id, attribute info, scheduling info").
#[derive(Clone, Debug)]
pub struct ThreadInfo {
    /// Local thread id.
    pub id: Tid,
    /// Thread name (from [`SpawnAttr::name`] or generated).
    pub name: String,
    /// Current priority class.
    pub priority: Priority,
    /// Lifecycle state at the time of the query.
    pub state: ThreadState,
    /// Whether the thread is detached.
    pub detached: bool,
}

/// Thread directory and lifecycle bookkeeping, shared by all worker
/// lanes. Deliberately holds no run queue: the queues live per-lane in
/// [`Worker`] so ready-queue traffic never contends on this lock.
struct Shared {
    tcbs: HashMap<Tid, Arc<Tcb>>,
    next_tid: Tid,
    /// Threads not yet Done.
    live: usize,
    shutdown: bool,
    /// Round-robin cursor for spawn placement across worker lanes.
    next_place: usize,
    /// Threads blocked in [`Vp::wait_live_at_most`], with the live count
    /// each is waiting for; woken by the exit that reaches it.
    exit_watchers: Vec<(Arc<Tcb>, usize)>,
}

/// One worker lane: a run queue plus the lane's scheduling baton state.
/// The lane's scheduler always runs on the lane's one OS thread, on
/// whichever stack — a thread's or the host's — that thread is on.
struct Worker {
    /// This lane's ready queue, one FIFO per priority class: the threads
    /// homed here. Any lane may push (an unblock comes from anywhere);
    /// only this lane pops, from the front.
    ///
    /// Entries are the TCBs themselves, so a dispatch candidate costs no
    /// directory lookup; an entry whose thread has since finished is
    /// recognised by `phase == Done` and skipped.
    ready: Mutex<[VecDeque<Arc<Tcb>>; Priority::LEVELS]>,
    /// Tid last dispatched on this lane (0 = none yet), for introspection.
    current: AtomicU32,
    /// Where this lane's baton holder sleeps when a round finds nothing.
    parker: Parker,
    /// When this lane last ran the progress turn (ns on the timers'
    /// clock). Only the lane's own OS thread touches it.
    last_turn_ns: AtomicU64,
    /// The context of the OS thread hosting this lane, while one is
    /// inside [`Vp::start`]: what the lane's last exit switches back to.
    host: Mutex<Option<Context>>,
}

/// A virtual processor hosting cooperative user-level threads.
///
/// See the [crate documentation](crate) for the execution model.
pub struct Vp {
    cfg: VpConfig,
    /// Worker-lane count; `cfg.n_vps` clamped to ≥ 1.
    n: usize,
    shared: Mutex<Shared>,
    workers: Box<[Worker]>,
    done_cv: Condvar,
    /// Installed scheduler hooks. Kept as a shared slice so the hot
    /// scheduling loop snapshots with one refcount bump and iterates
    /// with no extra indirection or allocation.
    hooks: RwLock<Arc<[HookRef]>>,
    /// Serializes the `at_schedule_point` hook sweep across worker lanes
    /// (try-lock: a contending lane skips its sweep rather than waiting —
    /// the holder's sweep is doing the work).
    hook_gate: Mutex<()>,
    /// Deadlines of timed waits, shared by all lanes.
    timers: Timers,
    /// The external event source every lane drives, once installed.
    progress: OnceLock<ProgressTurn>,
    /// How this VP's threads are carried (see [`crate::ctx`]). Always
    /// [`Kind::DEFAULT`] outside this crate's own tests.
    kind: Kind,
    /// Ensures exactly one lane reports a detected deadlock.
    deadlock_reported: AtomicBool,
    stats: VpStats,
    /// Trace lane + cached histogram handles; `None` when no tracer was
    /// installed at construction time.
    obs: Option<crate::obs::VpObs>,
}

impl std::fmt::Debug for Vp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vp")
            .field("name", &self.cfg.name)
            .field("n_vps", &self.n)
            .finish()
    }
}

/// Handle to a spawned thread's eventual result (cf. `pthread_chanter_join`).
pub struct JoinHandle<T> {
    vp: Arc<Vp>,
    tid: Tid,
    detached: bool,
    _marker: PhantomData<fn() -> T>,
}

impl Vp {
    /// Create a new, empty virtual processor.
    pub fn new(cfg: VpConfig) -> Arc<Vp> {
        Vp::with_kind(cfg, Kind::DEFAULT)
    }

    /// A VP whose threads are carried by OS threads whatever the target:
    /// the reference implementation the native switch is tested against.
    #[cfg(test)]
    pub(crate) fn new_os_threaded(cfg: VpConfig) -> Arc<Vp> {
        Vp::with_kind(cfg, Kind::OsThread)
    }

    fn with_kind(cfg: VpConfig, kind: Kind) -> Arc<Vp> {
        install_cancel_hook();
        let obs = crate::obs::VpObs::register(&cfg.name);
        let n = cfg.n_vps.max(1);
        let workers: Box<[Worker]> = (0..n)
            .map(|_| Worker {
                ready: Mutex::new(Default::default()),
                current: AtomicU32::new(0),
                parker: Parker::new(),
                last_turn_ns: AtomicU64::new(0),
                host: Mutex::new(None),
            })
            .collect();
        Arc::new(Vp {
            cfg,
            n,
            shared: Mutex::new(Shared {
                tcbs: HashMap::new(),
                next_tid: MAIN_TID,
                live: 0,
                shutdown: false,
                next_place: 0,
                exit_watchers: Vec::new(),
            }),
            workers,
            done_cv: Condvar::new(),
            hooks: RwLock::new(Arc::from(Vec::new())),
            hook_gate: Mutex::new(()),
            timers: Timers::new(),
            progress: OnceLock::new(),
            kind,
            deadlock_reported: AtomicBool::new(false),
            stats: VpStats::default(),
            obs,
        })
    }

    /// The VP's trace lane, when a tracer was active at construction.
    /// Layers above (e.g. the RSR server) emit their own events here so
    /// they land on the VP's timeline track.
    pub fn obs_lane(&self) -> Option<&chant_obs::LaneHandle> {
        self.obs.as_ref().map(|o| &o.lane)
    }

    /// The VP's configured name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Number of worker lanes this VP schedules across (≥ 1).
    pub fn n_vps(&self) -> usize {
        self.n
    }

    /// Scheduling statistics for this VP.
    pub fn stats(&self) -> &VpStats {
        &self.stats
    }

    /// Install a scheduler hook. Hooks run at every schedule point in
    /// installation order; see [`crate::SchedulerHook`].
    pub fn install_hook(&self, hook: Arc<dyn crate::SchedulerHook>) {
        let mut guard = self.hooks.write();
        let mut v: Vec<HookRef> = guard.to_vec();
        v.push(hook);
        *guard = Arc::from(v);
    }

    /// Remove all scheduler hooks.
    pub fn clear_hooks(&self) {
        *self.hooks.write() = Arc::from(Vec::new());
    }

    fn hooks_snapshot(&self) -> Arc<[HookRef]> {
        Arc::clone(&self.hooks.read())
    }

    // ------------------------------------------------------------------
    // Sleeping and waking.
    // ------------------------------------------------------------------

    /// End every sleeping lane's park so it looks for work again — or,
    /// for a lane that is awake, make its next park return at once.
    ///
    /// Call this *after* publishing whatever a lane's scan should find:
    /// the VP calls it itself for everything it knows about (unblocks,
    /// spawns, cancels, timers); an event source outside the VP calls it
    /// when it completes something a scheduler hook polls for — a
    /// message arrival, an externally set [`PendingPoll`] flag. Safe from
    /// any thread; one load per lane that already has a wake pending,
    /// a syscall only for lanes that are really asleep.
    pub fn wake(&self) {
        for w in self.workers.iter() {
            w.parker.unpark();
        }
    }

    /// Make every lane drive an external event source — a transport
    /// with no thread of its own. Each lane's sleep also waits on `fd`
    /// (readable while the source has work), and the lane runs
    /// `turn(true)` when it wakes on it and `turn(false)` — while busy —
    /// at a schedule point once 50 µs have passed since its last turn.
    /// `turn` may run on several lanes at once and must not block,
    /// except that `turn(true)` — from a lane with nothing else to do —
    /// should wait out a turn in progress elsewhere: the fd stays
    /// readable until that one ends, and a lane that skipped would only
    /// wake again at once. One source per VP, for the VP's lifetime:
    /// the fd must stay open (or close, which drops it from every set).
    ///
    /// # Panics
    /// On a second call, or when `fd` cannot be added to a lane's set.
    #[cfg(target_os = "linux")]
    pub fn set_progress(
        &self,
        fd: std::os::unix::io::RawFd,
        turn: impl Fn(bool) + Send + Sync + 'static,
    ) {
        assert!(
            self.progress.set(Box::new(turn)).is_ok(),
            "a VP drives one progress source"
        );
        for w in self.workers.iter() {
            w.parker
                .watch(fd)
                .unwrap_or_else(|e| panic!("cannot watch the progress fd: {e}"));
        }
    }

    /// Run the progress turn on `worker`: when the lane woke on the fd
    /// (`woken`), or when it last turned [`PROGRESS_INTERVAL_NS`] ago.
    #[inline]
    fn drive_progress(&self, worker: usize, woken: bool) {
        let Some(turn) = self.progress.get() else {
            return;
        };
        let last = &self.workers[worker].last_turn_ns;
        let now = self.timers.now_ns();
        if woken || now.saturating_sub(last.load(Ordering::Relaxed)) >= PROGRESS_INTERVAL_NS {
            last.store(now, Ordering::Relaxed);
            turn(woken);
        }
    }

    /// Arm a timer for the calling thread: at `deadline` the thread is
    /// made ready if it is blocked, and in any case a lane runs a fresh
    /// scheduling round (so a [`PendingPoll`] that reads the clock is
    /// re-tested). Pair with [`Vp::timer_disarm`].
    pub fn timer_arm(self: &Arc<Vp>, deadline: Instant) -> TimerKey {
        self.timer_arm_for(&self.current_tcb(), deadline)
    }

    fn timer_arm_for(&self, tcb: &Arc<Tcb>, deadline: Instant) -> TimerKey {
        let (key, nearest) = self.timers.arm(deadline, Arc::clone(tcb));
        if nearest {
            // A lane asleep until a later deadline (or for good) must
            // re-plan its park.
            self.wake();
        }
        key
    }

    /// Disarm a timer armed with [`Vp::timer_arm`]. Idempotent, and a
    /// no-op once the timer has fired; when it returns the timer is not
    /// firing and never will.
    pub fn timer_disarm(&self, key: TimerKey) {
        self.timers.disarm(key);
    }

    /// Fire every due timer: blocked owners become ready. Called at each
    /// schedule point, just before the round that will find them.
    fn expire_timers(&self) {
        let mut woke = false;
        self.timers.expire(|tcb| {
            // Never a wake token: a thread that is not blocked has no
            // wait for this timer to end.
            let life = tcb.life.lock();
            if life.phase == Phase::Blocked {
                self.make_ready(tcb, life);
                woke = true;
            }
        });
        if woke {
            self.wake();
        }
    }

    /// Make a thread found Blocked ready (`life` is its held lifecycle
    /// lock) and queue it on its home lane. Does not wake sleeping
    /// lanes — callers do, once, after their last push.
    fn make_ready(&self, tcb: &Arc<Tcb>, mut life: MutexGuard<'_, Lifecycle>) {
        debug_assert_eq!(life.phase, Phase::Blocked);
        life.phase = Phase::Ready;
        drop(life);
        self.push_home(tcb);
        self.stats.unblocks.incr();
        if let Some(o) = &self.obs {
            let now = o.lane.now_ns();
            o.blocked_ns
                .record(now.saturating_sub(tcb.blocked_at_ns.load(Ordering::Relaxed)));
            o.lane.emit_at(now, chant_obs::Event::Unblock { thread: tcb.id });
        }
    }

    // ------------------------------------------------------------------
    // Run-queue plumbing. Lock discipline: never hold the `shared` lock
    // and a worker queue lock at the same time, and never hold either
    // while taking a TCB's `life` lock — each helper takes exactly one.
    // ------------------------------------------------------------------

    /// Queue a ready thread on its home lane.
    fn push_home(&self, tcb: &Arc<Tcb>) {
        self.workers[tcb.home].ready.lock()[tcb.priority().index()].push_back(Arc::clone(tcb));
    }

    /// Pop the frontmost thread of the highest non-empty priority class
    /// of this lane's own queue.
    fn pop_local(&self, worker: usize) -> Option<Arc<Tcb>> {
        let mut q = self.workers[worker].ready.lock();
        for lane in q.iter_mut().rev() {
            if let Some(t) = lane.pop_front() {
                return Some(t);
            }
        }
        None
    }

    fn local_len(&self, worker: usize) -> usize {
        self.workers[worker].ready.lock().iter().map(VecDeque::len).sum()
    }

    /// Spawn a user-level thread on this VP. May be called from outside
    /// the VP (before or after [`Vp::start`]) or from one of its threads
    /// (cf. `pthread_chanter_create` with `pe == LOCAL`).
    ///
    /// The thread does not run until the scheduler dispatches it. On a
    /// multi-lane VP its home lane is the spawn attr's affinity (modulo
    /// the lane count) or the next round-robin slot, and it runs on no
    /// other lane.
    pub fn spawn<T, F>(self: &Arc<Vp>, attr: SpawnAttr, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&Arc<Vp>) -> T + Send + 'static,
    {
        let (tcb, detached) = {
            let mut shared = self.shared.lock();
            assert!(!shared.shutdown, "spawn on a shut-down VP");
            let tid = shared.next_tid;
            shared.next_tid += 1;
            let name = attr
                .name
                .clone()
                .unwrap_or_else(|| format!("{}-t{}", self.cfg.name, tid));
            let home = match attr.affinity {
                Some(a) => a % self.n,
                None => {
                    let p = shared.next_place % self.n;
                    shared.next_place += 1;
                    p
                }
            };
            let tcb = Tcb::new(tid, name, attr.priority, attr.detached, home);
            shared.tcbs.insert(tid, Arc::clone(&tcb));
            shared.live += 1;
            (tcb, attr.detached)
        };
        let vp = Arc::clone(self);
        let me = Arc::clone(&tcb);
        let entry = Box::new(move || {
            // First dispatch: this thread is what its lane's OS thread
            // runs now (the thread that switched here took itself out).
            current::swap_current(Some(UltContext {
                vp: Arc::clone(&vp),
                tcb: Arc::clone(&me),
            }));
            // The root of the thread: neither a panic nor a cancellation
            // unwinds past this frame (and so never into the context
            // layer's `extern "C"` root, let alone its asm).
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&vp)));
            let outcome = match result {
                Ok(v) => Outcome::Value(Box::new(v) as Box<dyn Any + Send>),
                Err(payload) if payload.is::<CancelPayload>() => Outcome::Cancelled,
                Err(payload) => Outcome::Panicked(payload),
            };
            let successor = vp.finish(&me, outcome);
            current::swap_current(None);
            // `vp` and `me` are dropped with this closure; the context
            // layer switches to `successor` once nothing is left here.
            successor
        });
        let ctx = Context::new(self.kind, entry, attr.stack_size)
            .expect("failed to allocate a stack for a user-level thread");
        assert!(tcb.ctx.set(ctx).is_ok(), "fresh TCB already has a context");
        // Reachable by the dispatcher only from here on.
        self.push_home(&tcb);
        self.wake();
        self.stats.spawned.incr();

        JoinHandle {
            vp: Arc::clone(self),
            tid: tcb.id,
            detached,
            _marker: PhantomData,
        }
    }

    /// Run the scheduler from the calling (non-ULT) thread until every
    /// thread of the VP has finished. Typically called once after the
    /// initial spawns; threads spawned later by running threads are
    /// awaited too.
    ///
    /// The calling OS thread *is* lane 0 for the duration: every thread
    /// dispatched on that lane runs on it, on its own stack, and the
    /// lane's last exit switches back here. On a multi-lane VP this
    /// additionally spawns one host OS thread per extra lane, named
    /// `"{vp}-w{k}"`; they are joined before returning.
    pub fn start(self: &Arc<Vp>) {
        assert!(
            !current::is_ult_context(),
            "Vp::start must not be called from a user-level thread"
        );
        let mut hosts = Vec::with_capacity(self.n.saturating_sub(1));
        for w in 1..self.n {
            let vp = Arc::clone(self);
            hosts.push(
                std::thread::Builder::new()
                    .name(format!("{}-w{}", self.cfg.name, w))
                    .spawn(move || vp.host_lane(w))
                    .expect("failed to spawn VP worker-lane host thread"),
            );
        }
        self.host_lane(0);
        {
            let mut shared = self.shared.lock();
            while shared.live > 0 {
                self.done_cv.wait(&mut shared);
            }
        }
        for h in hosts {
            let _ = h.join();
        }
    }

    /// Run lane `w` on the calling OS thread until the VP has no live
    /// thread left.
    fn host_lane(self: &Arc<Vp>, w: usize) {
        let host = Host::enter(self.kind);
        *self.workers[w].host.lock() = Some(host.context().clone());
        let successor = self.reschedule(w, None, Departure::Bootstrap);
        debug_assert!(successor.is_none());
        *self.workers[w].host.lock() = None;
    }

    /// Convenience: spawn `f` as the main thread, run the VP to
    /// completion, and return `f`'s value.
    pub fn run<T, F>(self: &Arc<Vp>, f: F) -> Result<T, JoinError>
    where
        T: Send + 'static,
        F: FnOnce(&Arc<Vp>) -> T + Send + 'static,
    {
        let h = self.spawn(SpawnAttr::new().name("main"), f);
        self.start();
        h.join()
    }

    // ------------------------------------------------------------------
    // Operations invoked by the currently running thread.
    // ------------------------------------------------------------------

    fn current_tcb(self: &Arc<Vp>) -> Arc<Tcb> {
        current::with_current(|c| {
            let ctx = c.expect("not inside a user-level thread");
            assert!(
                Arc::ptr_eq(&ctx.vp, self),
                "thread belongs to a different VP"
            );
            Arc::clone(&ctx.tcb)
        })
    }

    /// Yield the processor to the next ready thread, as determined by the
    /// scheduler (cf. `pthread_chanter_yield`). Cancellation point.
    pub fn yield_now(self: &Arc<Vp>) {
        let me = self.current_tcb();
        self.testcancel_tcb(&me);
        self.stats.yields.incr();
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Yield { thread: me.id });
        }
        me.life.lock().phase = Phase::Ready;
        self.push_home(&me);
        self.reschedule(me.home, Some(&me), Departure::Yield);
        self.testcancel_tcb(&me);
    }

    /// Block the calling thread until some other agent calls
    /// [`Vp::unblock`] for it. A wakeup that raced ahead of the block (the
    /// "token" case) is consumed instead of blocking. Cancellation point.
    pub fn block(self: &Arc<Vp>) {
        let me = self.current_tcb();
        self.block_inner(&me, None);
    }

    /// Like [`Vp::block`], but also return once `deadline` has passed.
    /// The deadline is a timer in the VP's queue, not a polling loop: the
    /// thread is off the ready queue for the whole wait, and a lane with
    /// nothing else to run sleeps until the deadline. As with `block`,
    /// spurious returns are possible; callers re-check their condition
    /// and the clock. Cancellation point.
    pub fn block_until(self: &Arc<Vp>, deadline: Instant) {
        let me = self.current_tcb();
        let key = self.timer_arm_for(&me, deadline);
        self.block_inner(&me, Some(deadline));
        self.timer_disarm(key);
    }

    fn block_inner(self: &Arc<Vp>, me: &Arc<Tcb>, deadline: Option<Instant>) {
        self.testcancel_tcb(me);
        {
            // The `life` lock orders this decision against `unblock`: an
            // unblocker either sets the token while we hold `life` here
            // (we consume it and return), or observes phase == Blocked
            // and requeues us.
            let mut life = me.life.lock();
            if me.cancel_requested.load(Ordering::Relaxed) {
                return; // re-checked below; don't sleep through a cancel
            }
            if std::mem::take(&mut *me.wake_token.lock()) {
                return; // consume a pending wakeup token
            }
            // A timer only ever wakes a thread it finds Blocked, and it
            // fires no earlier than its deadline: if it has fired
            // already, the clock (read under `life`, after its look at
            // our phase) says so.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return;
            }
            // Stamp before publishing Blocked so an unblocker racing in
            // right after the lock drops reads a fresh timestamp.
            if let Some(o) = &self.obs {
                me.blocked_at_ns.store(o.lane.now_ns(), Ordering::Relaxed);
            }
            life.phase = Phase::Blocked;
        }
        self.stats.blocks.incr();
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Block { thread: me.id });
        }
        self.reschedule(me.home, Some(me), Departure::Block);
        self.testcancel_tcb(me);
    }

    /// Make a blocked thread ready again. If the target is not currently
    /// blocked, a wakeup token is left for its next [`Vp::block`]. May be
    /// called from any OS thread, including scheduler hooks.
    pub fn unblock(&self, tid: Tid) -> Result<(), UltError> {
        let tcb = self
            .shared
            .lock()
            .tcbs
            .get(&tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(tid))?;
        self.unblock_tcb(&tcb);
        Ok(())
    }

    /// [`Vp::unblock`] for callers that already hold the TCB (joiner and
    /// watcher lists): no directory lookup.
    fn unblock_tcb(&self, tcb: &Arc<Tcb>) {
        let life = tcb.life.lock();
        match life.phase {
            Phase::Blocked => {
                self.make_ready(tcb, life);
                self.wake();
            }
            Phase::Done => {}
            _ => {
                // Token set under `life`, pairing with `block`'s
                // check-under-`life`: the wakeup cannot fall between its
                // token test and its Blocked store.
                *tcb.wake_token.lock() = true;
            }
        }
    }

    /// Store a pending poll request in the calling thread's TCB (the PS
    /// algorithm's per-TCB request slot, paper §4.2).
    pub fn set_current_pending(self: &Arc<Vp>, poll: Box<dyn PendingPoll>) {
        let me = self.current_tcb();
        me.set_pending(poll);
    }

    /// Clear and return the calling thread's pending poll request.
    pub fn take_current_pending(self: &Arc<Vp>) -> Option<Box<dyn PendingPoll>> {
        let me = self.current_tcb();
        me.take_pending()
    }

    /// Request cancellation of a thread (cf. `pthread_chanter_cancel`).
    /// Delivery is cooperative: the target exits at its next cancellation
    /// point (`yield_now`, `block`, or an explicit [`Vp::testcancel`]).
    pub fn cancel(&self, tid: Tid) -> Result<(), UltError> {
        let tcb = self
            .shared
            .lock()
            .tcbs
            .get(&tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(tid))?;
        tcb.cancel_requested.store(true, Ordering::Relaxed);
        // If it is blocked, wake it so it can observe the request; if it
        // is queued behind a pending poll, the dispatcher must look at it
        // again (a cancel-requested candidate always runs).
        self.unblock_tcb(&tcb);
        self.wake();
        Ok(())
    }

    /// Whether a thread has a pending (or already-honoured) cancellation
    /// request. Sync primitives use this to skip doomed waiters: handing
    /// a wakeup to a thread that will only unwind would strand the live
    /// waiters queued behind it. `false` for unknown/reaped tids.
    pub fn is_cancel_requested(&self, tid: Tid) -> bool {
        let shared = self.shared.lock();
        shared
            .tcbs
            .get(&tid)
            .is_some_and(|tcb| tcb.cancel_requested.load(Ordering::Relaxed))
    }

    /// Explicit cancellation point for long computations.
    pub fn testcancel(self: &Arc<Vp>) {
        let me = self.current_tcb();
        self.testcancel_tcb(&me);
    }

    fn testcancel_tcb(&self, me: &Tcb) {
        if me.cancel_requested.load(Ordering::Relaxed) {
            panic::panic_any(CancelPayload);
        }
    }

    /// Change a thread's priority class.
    pub fn set_priority(&self, tid: Tid, priority: Priority) -> Result<(), UltError> {
        let shared = self.shared.lock();
        let tcb = shared.tcbs.get(&tid).ok_or(UltError::NoSuchThread(tid))?;
        tcb.set_priority(priority);
        // Note: if the thread is already queued, it stays in its old class
        // until next requeue — matching typical pthread implementations.
        drop(shared);
        self.wake();
        Ok(())
    }

    /// Mark a thread detached so its resources are reclaimed on exit
    /// (cf. `pthread_chanter_detach`).
    pub fn detach(&self, tid: Tid) -> Result<(), UltError> {
        let mut shared = self.shared.lock();
        let tcb = shared
            .tcbs
            .get(&tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(tid))?;
        tcb.detached.store(true, Ordering::Relaxed);
        let done = tcb.life.lock().phase == Phase::Done;
        if done {
            shared.tcbs.remove(&tid);
        }
        Ok(())
    }

    /// Introspect a thread.
    pub fn thread_info(&self, tid: Tid) -> Option<ThreadInfo> {
        let shared = self.shared.lock();
        let tcb = shared.tcbs.get(&tid)?;
        let state = match tcb.life.lock().phase {
            Phase::Ready => ThreadState::Ready,
            Phase::Running => ThreadState::Running,
            Phase::Blocked => ThreadState::Blocked,
            Phase::Done => ThreadState::Done,
        };
        Some(ThreadInfo {
            id: tcb.id,
            name: tcb.name.clone(),
            priority: tcb.priority(),
            state,
            detached: tcb.detached.load(Ordering::Relaxed),
        })
    }

    /// Number of threads that have not yet finished.
    pub fn live_threads(&self) -> usize {
        self.shared.lock().live
    }

    /// Block the calling thread until thread `tid` has finished (or is
    /// already gone). Unlike [`JoinHandle::join`] this claims nothing and
    /// works for detached threads: it is the "tell me when it exits"
    /// half of a join, for runtimes that keep their own exit table.
    /// Cancellation point.
    pub fn wait_exit(self: &Arc<Vp>, tid: Tid) {
        let me = self.current_tcb();
        let Some(tcb) = self.shared.lock().tcbs.get(&tid).cloned() else {
            return;
        };
        loop {
            {
                let mut life = tcb.life.lock();
                if life.phase == Phase::Done {
                    return;
                }
                if !life.joiners.iter().any(|j| j.id == me.id) {
                    life.joiners.push(Arc::clone(&me));
                }
            }
            self.block_inner(&me, None);
        }
    }

    /// Block the calling thread until at most `n` threads of this VP are
    /// still live (itself included). Woken by the exit that gets there,
    /// not by polling [`Vp::live_threads`]. Cancellation point.
    pub fn wait_live_at_most(self: &Arc<Vp>, n: usize) {
        let me = self.current_tcb();
        loop {
            {
                let mut shared = self.shared.lock();
                if shared.live <= n {
                    shared.exit_watchers.retain(|(t, _)| t.id != me.id);
                    return;
                }
                if !shared.exit_watchers.iter().any(|(t, _)| t.id == me.id) {
                    shared.exit_watchers.push((Arc::clone(&me), n));
                }
            }
            self.block_inner(&me, None);
        }
    }

    // ------------------------------------------------------------------
    // The dispatcher.
    // ------------------------------------------------------------------

    /// Thread exit: record the outcome, wake joiners, and run the
    /// scheduler one last time — on the exiting thread's own stack — to
    /// choose the context that takes the lane over: the next thread, or
    /// the lane's host once the VP has no live thread left.
    fn finish(self: &Arc<Vp>, me: &Arc<Tcb>, outcome: Outcome) -> Context {
        let joiners: Vec<Arc<Tcb>> = {
            let mut life = me.life.lock();
            life.phase = Phase::Done;
            life.outcome = Some(outcome);
            std::mem::take(&mut life.joiners)
        };
        me.ext_cv_notify();
        for j in joiners {
            self.unblock_tcb(&j);
        }
        let (live, watchers): (usize, Vec<Arc<Tcb>>) = {
            let mut shared = self.shared.lock();
            if me.detached.load(Ordering::Relaxed) {
                shared.tcbs.remove(&me.id);
            }
            shared.live -= 1;
            self.stats.exited.incr();
            if shared.live == 0 {
                self.done_cv.notify_all();
            }
            let live = shared.live;
            let due = shared
                .exit_watchers
                .iter()
                .filter(|(_, n)| live <= *n)
                .map(|(t, _)| Arc::clone(t))
                .collect();
            (live, due)
        };
        for w in watchers {
            self.unblock_tcb(&w);
        }
        if live == 0 {
            // The last exit ends every lane's run: sleeping ones must
            // wake to see it and return.
            self.wake();
        }
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::ThreadDone { thread: me.id });
        }
        self.reschedule(me.home, Some(me), Departure::Exit)
            .expect("an exiting thread always has a successor")
    }

    /// Whether a popped queue entry is worth examining: `false` for the
    /// stale entry of a thread that has since exited.
    fn is_live(tcb: &Tcb) -> bool {
        tcb.life.lock().phase != Phase::Done
    }

    /// Run the pre-dispatch hooks for a candidate (the PS partial-switch
    /// test). Not gate-serialized: each lane tests only the threads
    /// homed on it, each under its TCB's `pending` lock.
    fn dispatch_decision(
        &self,
        hooks: &[HookRef],
        wants_check: bool,
        tcb: &Tcb,
    ) -> DispatchDecision {
        // A cancel-requested thread must run so it can observe the
        // request at its next cancellation point, even if a polling
        // hook would otherwise keep requeueing it.
        if tcb.cancel_requested.load(Ordering::Relaxed) {
            return DispatchDecision::Run;
        }
        if !wants_check {
            return DispatchDecision::Run;
        }
        let pending = tcb.pending.lock();
        let mut d = DispatchDecision::Run;
        for h in hooks.iter().filter(|h| h.wants_dispatch_check()) {
            d = h.before_dispatch(tcb.id, pending.as_deref());
            if d == DispatchDecision::Requeue {
                break;
            }
        }
        d
    }

    /// Core scheduling loop for one worker lane. Runs on the lane's OS
    /// thread, on the departing thread's stack (or the host's). For
    /// `Yield`/`Block`/`Bootstrap` departures it switches to the thread
    /// it picked and returns `None` once *this* context has been resumed
    /// — on the same lane, so on the same OS thread. For `Exit` it
    /// switches nowhere: it returns the context that takes the lane
    /// over, and the caller unwinds its stack before the final switch.
    ///
    /// Only this lane pops its queue, so a popped thread whose context
    /// is still running can only be `me`, requeued before it switched
    /// away: dispatching it is a self-redispatch, not a second resume.
    fn reschedule(
        self: &Arc<Vp>,
        worker: usize,
        me: Option<&Arc<Tcb>>,
        dep: Departure,
    ) -> Option<Context> {
        let parker = &self.workers[worker].parker;
        let mut idle_traced = false;
        loop {
            self.stats.schedule_points.incr();
            let sched_start_ns = self.obs.as_ref().map(|o| o.lane.now_ns());
            // Before the scan: what the turn delivers, this round sees
            // (and the wake-up it sends this lane, the scan consumes).
            self.drive_progress(worker, false);
            // From here on, whatever a waker publishes is either seen by
            // this round's scan or leaves a token that voids the park.
            parker.begin_scan();
            self.expire_timers();
            let hooks = self.hooks_snapshot();
            if !hooks.is_empty() {
                // Gate-serialized across lanes; skip if another lane's
                // sweep is in flight (its scan unblocks our threads too).
                if let Some(_g) = self.hook_gate.try_lock() {
                    for h in hooks.iter() {
                        h.at_schedule_point();
                    }
                }
            }
            let wants_check = hooks.iter().any(|h| h.wants_dispatch_check());

            // Examine at most one full round of the lane's own queue;
            // requeued (partially switched) candidates are held aside
            // until the round ends so a high-priority thread with an
            // unready pending request cannot monopolize the round, then
            // retried next round after the schedule-point hooks have run
            // again.
            let round_len = self.local_len(worker);
            let mut deferred: Vec<Arc<Tcb>> = Vec::new();
            let mut dispatched = false;
            let mut successor = None;
            let mut examined = 0usize;
            while examined < round_len.max(1) {
                let Some(tcb) = self.pop_local(worker) else { break };
                examined += 1;
                if !Self::is_live(&tcb) {
                    continue;
                }
                match self.dispatch_decision(&hooks, wants_check, &tcb) {
                    DispatchDecision::Requeue => {
                        self.stats.partial_switches.incr();
                        if let Some(o) = &self.obs {
                            o.emit(chant_obs::Event::PartialSwitch { thread: tcb.id });
                        }
                        deferred.push(tcb);
                    }
                    DispatchDecision::Run => {
                        // Requeue the partially-switched candidates before
                        // handing off, or they would be lost.
                        for t in deferred.drain(..) {
                            self.push_home(&t);
                        }
                        successor = self.dispatch_to(worker, &tcb, me, dep);
                        dispatched = true;
                        break;
                    }
                }
            }
            if !dispatched && !deferred.is_empty() {
                for t in deferred.drain(..) {
                    self.push_home(&t);
                }
            }

            if dispatched {
                // Attribute the search cost only for rounds that found a
                // thread; sleeping is accounted by `idle_spins`.
                if let Some(o) = &self.obs {
                    if let Some(start) = sched_start_ns {
                        o.sched_point_ns
                            .record(o.lane.now_ns().saturating_sub(start));
                    }
                }
                return successor;
            }

            // Nothing runnable this round.
            if self.shared.lock().live == 0 {
                self.done_cv.notify_all();
                return match dep {
                    // The lane's last exit: back to the host, so that
                    // `Vp::start` returns.
                    Departure::Exit => Some(self.lane_host(worker)),
                    Departure::Bootstrap => None,
                    Departure::Yield | Departure::Block => {
                        unreachable!("a live thread found the VP empty")
                    }
                };
            }
            // Sleep until something can have changed: a wake-up, the
            // progress fd, or the nearest deadline. A hook-free VP with no
            // timer armed and no progress source has no event source but
            // its own threads, so its park is bounded by the deadlock
            // grace period instead.
            let (woke, unattended) = loop {
                let until_timer = self.timers.until_next();
                if until_timer.is_some_and(|d| d.is_zero()) {
                    break (Woke::default(), false); // due: the next round fires it
                }
                let unattended =
                    hooks.is_empty() && until_timer.is_none() && self.progress.get().is_none();
                self.stats.idle_spins.incr();
                // One Idle event per idle *period*, not per park.
                if !std::mem::replace(&mut idle_traced, true) {
                    if let Some(o) = &self.obs {
                        o.emit(chant_obs::Event::Idle);
                    }
                }
                let woke = parker.park(until_timer.or(unattended.then_some(DEADLOCK_GRACE)));
                if !woke.source || woke.unparked {
                    break (woke, unattended);
                }
                // The progress fd alone: turn, then scan again only if
                // the turn made work here (a delivery to this VP unparks
                // this lane); otherwise the last scan still stands.
                self.drive_progress(worker, true);
                if parker.token_pending() {
                    break (woke, false);
                }
            };
            if unattended && !woke.unparked && !self.timers.any_armed() {
                if let Some(report) = self.detect_deadlock() {
                    // The blocked threads have been cancelled and unwind
                    // in an orderly fashion. Report by panicking the
                    // detecting thread (whose joiner sees it) — unless
                    // this stack has no thread left to panic: an exited
                    // thread's or the host's, still needed to dispatch
                    // the unwinding ones.
                    if matches!(dep, Departure::Yield | Departure::Block) {
                        panic!("{report}");
                    }
                    eprintln!("{report}");
                }
            }
        }
    }

    /// Called by a lane of a hook-free VP that slept a whole
    /// [`DEADLOCK_GRACE`] with no timer armed and was never woken: if
    /// every live thread is blocked, nothing inside the VP can ever run
    /// again. Unwedge it — cancel every blocked thread — and return the
    /// report. With several lanes, *this* lane sleeping through the grace
    /// only means the work lives elsewhere — hence the all-blocked check
    /// — and exactly one lane reports.
    fn detect_deadlock(&self) -> Option<String> {
        let (all_blocked, blocked) = {
            let shared = self.shared.lock();
            let mut all = true;
            let mut blocked = Vec::new();
            for t in shared.tcbs.values() {
                match t.life.lock().phase {
                    Phase::Blocked => blocked.push(t.id),
                    Phase::Done => {}
                    _ => {
                        all = false;
                        break;
                    }
                }
            }
            (all, blocked)
        };
        if !all_blocked
            || self
                .deadlock_reported
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return None;
        }
        for t in &blocked {
            let _ = self.cancel(*t);
        }
        Some(format!(
            "ULT deadlock on VP '{}': {} thread(s) blocked with none ready, no timer \
             armed and no scheduler hooks that could make progress (cancelled: {blocked:?})",
            self.cfg.name,
            blocked.len()
        ))
    }

    /// The context of the OS thread hosting lane `worker`.
    fn lane_host(&self, worker: usize) -> Context {
        self.workers[worker]
            .host
            .lock()
            .clone()
            .expect("a thread is running on a lane that has no host inside Vp::start")
    }

    /// Complete a context switch to `next` on lane `worker` — or, for an
    /// exiting `me`, return `next`'s context as its successor.
    fn dispatch_to(
        self: &Arc<Vp>,
        worker: usize,
        next: &Arc<Tcb>,
        me: Option<&Arc<Tcb>>,
        dep: Departure,
    ) -> Option<Context> {
        self.workers[worker].current.store(next.id, Ordering::Relaxed);
        next.life.lock().phase = Phase::Running;
        if me.is_some_and(|me| me.id == next.id) {
            // "The scheduler simply returns without having to perform a
            // context switch" (paper §4.1).
            self.stats.self_redispatches.incr();
            if let Some(o) = &self.obs {
                o.emit(chant_obs::Event::Dispatch {
                    thread: next.id,
                    full_switch: false,
                });
            }
            debug_assert!(dep != Departure::Exit, "exiting thread re-dispatched");
            return None;
        }
        self.stats.full_switches.incr();
        // Emit before switching: the incoming thread's events must follow
        // its Dispatch in the lane.
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Dispatch {
                thread: next.id,
                full_switch: true,
            });
        }
        match dep {
            Departure::Exit => return Some(next.ctx().clone()),
            Departure::Bootstrap => {
                // Returns once the lane's last exit has switched back here.
                Context::switch(&self.lane_host(worker), next.ctx());
            }
            Departure::Yield | Departure::Block => {
                let me = me.expect("yield/block without a current thread");
                // The lane's "current thread" slot belongs to whoever runs
                // on it next; ours goes back in when we are resumed.
                let mine = current::swap_current(None);
                Context::switch(me.ctx(), next.ctx());
                current::swap_current(mine);
            }
        }
        None
    }
}

impl<T: 'static> JoinHandle<T> {
    /// The local thread id this handle refers to.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Wait for the thread to finish and return its value. Callable from a
    /// user-level thread of the same VP (blocks cooperatively) or from an
    /// ordinary OS thread (blocks the OS thread).
    pub fn join(self) -> Result<T, JoinError> {
        if self.detached {
            return Err(UltError::Detached(self.tid).into());
        }
        let tcb = self
            .vp
            .shared
            .lock()
            .tcbs
            .get(&self.tid)
            .cloned()
            .ok_or(UltError::NoSuchThread(self.tid))?;

        let from_ult = current::with_current(|c| {
            c.map(|ctx| (Arc::ptr_eq(&ctx.vp, &self.vp), ctx.tcb.id))
        });

        match from_ult {
            Some((true, my_tid)) => {
                if my_tid == self.tid {
                    return Err(UltError::JoinSelf(self.tid).into());
                }
                self.vp.wait_exit(self.tid);
            }
            _ => {
                // External OS thread (or a ULT of another VP, which we
                // treat the same way: park its OS thread).
                let mut life = tcb.life.lock();
                while life.phase != Phase::Done {
                    tcb.ext_cv.wait(&mut life);
                }
            }
        }

        let outcome = {
            let mut life = tcb.life.lock();
            if life.joined {
                return Err(UltError::AlreadyJoined(self.tid).into());
            }
            life.joined = true;
            life.outcome.take()
        };
        // Reap the zombie now that its value is claimed.
        self.vp.shared.lock().tcbs.remove(&self.tid);

        match outcome {
            Some(Outcome::Value(v)) => Ok(*v
                .downcast::<T>()
                .expect("join handle type mismatch (internal error)")),
            Some(Outcome::Panicked(p)) => Err(JoinError::Panicked(p)),
            Some(Outcome::Cancelled) => Err(JoinError::Cancelled),
            None => Err(UltError::AlreadyJoined(self.tid).into()),
        }
    }

    /// True once the thread has finished (join would not block).
    pub fn is_finished(&self) -> bool {
        let shared = self.vp.shared.lock();
        match shared.tcbs.get(&self.tid) {
            Some(tcb) => tcb.life.lock().phase == Phase::Done,
            None => true,
        }
    }
}

/// Yield the current user-level thread (free-function convenience).
///
/// From an ordinary OS thread this is a no-op: there is no ULT scheduler
/// to yield to, and aborting would make every library that politely
/// yields unusable off-VP (likelier than ever now that a VP's threads
/// span several OS threads).
pub fn yield_now() {
    if let Some(vp) = current::current_vp() {
        vp.yield_now();
    }
}

/// Whether a caught panic payload is this crate's cancellation unwind.
///
/// Runtimes layered above (like Chant) that wrap user code in their own
/// `catch_unwind` must re-raise such payloads with
/// `std::panic::resume_unwind` so the thread's outcome is recorded as
/// `Cancelled` rather than a value.
pub fn is_cancel_payload(payload: &(dyn Any + Send)) -> bool {
    payload.is::<CancelPayload>()
}
