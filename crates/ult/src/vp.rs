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
//! A VP is **one lane: one OS thread**, the caller of [`Vp::start`], and
//! passing the baton is a user-level context switch on that thread
//! ([`crate::ctx`]): the departing thread runs the scheduler *on its own
//! stack*, picks the next thread, and `dispatch_to` saves its registers
//! and restores the other's. A partial switch (PS) is then literally the
//! paper's: the scheduler peeks at the next TCB's pending request before
//! restoring its context, and puts the TCB back if the message is not
//! there. An exiting thread picks its successor the same way and the
//! context layer makes the final switch once the thread's closure is
//! gone; the last exit switches back to the host, and [`Vp::start`]
//! returns.
//!
//! Every thread of the VP therefore runs on that one OS thread, from its
//! first instruction to its exit, and the scheduler and its hooks never
//! run concurrently with themselves. Other OS threads — another VP's
//! lane, a plain thread — touch the VP only to make one of its threads
//! ready (a push onto the run queue, then [`Vp::wake`]) or to spawn one.
//!
//! # Waiting
//!
//! "Nothing to run" is a kernel sleep. A lane whose round dispatched
//! nothing — run queue empty, every partial-switch candidate requeued —
//! fires the timers that are due and otherwise **parks its OS thread**
//! until the nearest armed deadline or [`Vp::wake`] (see [`crate::park`]
//! for the parker and why no wake-up is lost). Everything that can make
//! a thread runnable ends the park: [`Vp::unblock`] /
//! [`Vp::unblock_all`], [`Vp::spawn`],
//! [`Vp::cancel`], [`Vp::set_priority`], a timer, the last thread's
//! exit — and, from outside
//! the VP, whoever completes what a scheduler hook is polling for calls
//! [`Vp::wake`] itself (Chant's endpoints do on every delivery). Timed
//! waits ([`Vp::block_until`], [`Vp::timer_arm`]) register a deadline in
//! the VP's timer queue instead of staying ready to watch a clock; due
//! timers fire at every schedule point, so a busy lane honours them too.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::os::raw::c_int;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::attr::{Priority, SpawnAttr};
use crate::config::VpConfig;
use crate::ctx::{Context, Host, Kind};
use crate::current::{self, UltContext};
use crate::error::{JoinError, UltError};
use crate::hooks::{DispatchDecision, HookRef, PendingPoll};
use crate::park::{Parker, TimerKey, Timers, Woke};
use crate::stats::VpStats;
use crate::tcb::{Outcome, Phase, Tcb, Tid, MAIN_TID};

/// How long a hook-free VP with every live thread blocked and no timer
/// armed must go without a single wake-up before it is declared
/// deadlocked. Only an OS thread outside the VP could still unblock
/// anyone by then, and it has had this long to do so.
const DEADLOCK_GRACE: Duration = Duration::from_secs(1);

/// How often a busy lane runs the progress source's turn at a schedule
/// point ([`Vp::set_progress`]). An idle lane needs no interval — it
/// sleeps on the source's fd and turns the moment it is readable — but
/// a lane that never sleeps would otherwise leave arrivals unread, and
/// the sends its threads left for the source unwritten: this bounds how
/// long a busy lane holds both. A turn costs a syscall, and a fan-out
/// switches threads every microsecond or so: turning at every schedule
/// point measurably raised the CPU per operation there, while 50 µs is
/// a fraction of a socket round trip (≈ 100 µs on loopback), so a
/// waiter sees its reply, and a peer a held request, in well under one
/// more trip. [`yield_if_due`] holds a thread that never blocks to
/// the same bound.
const PROGRESS_INTERVAL_NS: u64 = 50_000;

/// An external event source the lane drives (see [`Vp::set_progress`]).
struct ProgressSource {
    fd: c_int,
    turn: Box<dyn Fn() + Send + Sync>,
    flush: Box<dyn Fn() + Send + Sync>,
}

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
    /// Initial dispatch from [`Vp::start`]'s calling thread.
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

/// The directory's hasher: tids are small sequential integers, so one
/// multiply (Fibonacci hashing) spreads them over the table's buckets
/// and control bytes alike, where SipHash's resistance to chosen keys
/// buys nothing and costs a wake-up tens of ns.
#[derive(Default)]
struct TidHasher(u64);

impl Hasher for TidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Thread directory and lifecycle bookkeeping. Deliberately holds no
/// run queue, so ready-queue traffic never contends on this lock.
struct Shared {
    tcbs: HashMap<Tid, Arc<Tcb>, BuildHasherDefault<TidHasher>>,
    next_tid: Tid,
    /// Threads not yet Done.
    live: usize,
    shutdown: bool,
    /// Threads blocked in [`Vp::wait_live_at_most`], with the live count
    /// each is waiting for; woken by the exit that reaches it.
    exit_watchers: Vec<(Arc<Tcb>, usize)>,
}

/// The ready queue, one FIFO per priority class, plus the candidates
/// the current scheduling round has held aside.
#[derive(Default)]
struct RunQueue {
    classes: [VecDeque<Arc<Tcb>>; Priority::LEVELS],
    /// Partially switched candidates of the round in progress, in the
    /// order they were examined; empty between rounds. Only the lane
    /// touches it, and it keeps its capacity, so holding a candidate
    /// aside allocates nothing once the lane has warmed up.
    aside: Vec<Arc<Tcb>>,
}

impl RunQueue {
    fn push(&mut self, tcb: Arc<Tcb>) {
        self.classes[tcb.priority().index()].push_back(tcb);
    }

    /// Pop the frontmost thread of the highest non-empty priority class.
    fn pop(&mut self) -> Option<Arc<Tcb>> {
        self.classes.iter_mut().rev().find_map(VecDeque::pop_front)
    }

    fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Requeue every held-aside candidate, in the order it was examined.
    fn restore_aside(&mut self) {
        let RunQueue { classes, aside } = self;
        for t in aside.drain(..) {
            classes[t.priority().index()].push_back(t);
        }
    }
}

/// A batch of wake-ups: each thread's `life` lock in turn, one run-queue
/// lock for every thread the batch makes ready (taken at the first), and
/// one lane wake at the end.
struct Wakes<'a> {
    vp: &'a Vp,
    queue: Option<MutexGuard<'a, RunQueue>>,
    readied: u64,
}

impl<'a> Wakes<'a> {
    fn new(vp: &'a Vp) -> Wakes<'a> {
        Wakes {
            vp,
            queue: None,
            readied: 0,
        }
    }

    /// Make `tcb` ready if it is Blocked. A Ready or Running thread gets
    /// a wake token instead when `token` is set (its next `block` returns
    /// at once); a Done one is skipped.
    fn offer(&mut self, tcb: &Arc<Tcb>, token: bool) {
        let mut life = tcb.life.lock();
        match life.phase {
            Phase::Blocked => {
                life.phase = Phase::Ready;
                // Lock order: run queue before `life`. A thread that is
                // Ready but not yet queued is invisible to the lane
                // until the push below, and to every other waker only a
                // token target.
                drop(life);
                let vp = self.vp;
                self.queue
                    .get_or_insert_with(|| vp.ready.lock())
                    .push(Arc::clone(tcb));
                self.readied += 1;
                if let Some(o) = &vp.obs {
                    let now = o.lane.now_ns();
                    o.blocked_ns
                        .record(now.saturating_sub(tcb.blocked_at_ns.load(Ordering::Relaxed)));
                    o.lane
                        .emit_at(now, chant_obs::Event::Unblock { thread: tcb.id });
                }
            }
            Phase::Done => {}
            // Token set under `life`, pairing with `block`'s
            // check-under-`life`: the wakeup cannot fall between its
            // token test and its Blocked store.
            _ if token => tcb.wake_token.store(true, Ordering::Relaxed),
            _ => {}
        }
    }

    /// Release the run queue and wake the lane once, if anything was
    /// made ready.
    fn finish(self) {
        drop(self.queue);
        if self.readied > 0 {
            self.vp.stats.unblocks.add(self.readied);
            self.vp.wake();
        }
    }
}

/// A virtual processor hosting cooperative user-level threads.
///
/// See the [crate documentation](crate) for the execution model.
pub struct Vp {
    cfg: VpConfig,
    shared: Mutex<Shared>,
    /// The ready queue, one FIFO per priority class. Any OS thread may
    /// push (an unblock comes from anywhere); only the lane pops, from
    /// the front.
    ///
    /// Entries are the TCBs themselves, so a dispatch candidate costs no
    /// directory lookup; an entry whose thread has since finished is
    /// recognised by its `done` flag and skipped.
    ready: Mutex<RunQueue>,
    /// Where the lane sleeps when a round finds nothing.
    parker: Parker,
    /// When the lane last ran the progress turn (ns on the timers'
    /// clock). Only the lane's OS thread touches it.
    last_turn_ns: AtomicU64,
    /// When the lane last passed a schedule point (ns on the timers'
    /// clock), for [`yield_if_due`]. Only the lane's OS thread touches it.
    last_sched_ns: AtomicU64,
    /// The context of the OS thread inside [`Vp::start`], while there is
    /// one: what the last exit switches back to.
    host: Mutex<Option<Context>>,
    /// Hooks installed so far; moved into `hooks` when the lane starts.
    staged_hooks: Mutex<Vec<HookRef>>,
    /// The scheduler hooks, fixed from the first [`Vp::start`] on: the
    /// scheduling loop reads them with one load, no lock and no refcount.
    hooks: OnceLock<Box<[HookRef]>>,
    /// Deadlines of timed waits.
    timers: Timers,
    /// The external event source the lane drives, once installed.
    progress: OnceLock<ProgressSource>,
    /// How this VP's threads are carried (see [`crate::ctx`]). Always
    /// [`Kind::DEFAULT`] outside this crate's own tests.
    kind: Kind,
    stats: VpStats,
    /// Trace lane + cached histogram handles; `None` when no tracer was
    /// installed at construction time.
    obs: Option<crate::obs::VpObs>,
}

impl std::fmt::Debug for Vp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vp").field("name", &self.cfg.name).finish()
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
        Arc::new(Vp {
            cfg,
            shared: Mutex::new(Shared {
                tcbs: HashMap::default(),
                next_tid: MAIN_TID,
                live: 0,
                shutdown: false,
                exit_watchers: Vec::new(),
            }),
            ready: Mutex::new(Default::default()),
            parker: Parker::new(),
            last_turn_ns: AtomicU64::new(0),
            last_sched_ns: AtomicU64::new(0),
            host: Mutex::new(None),
            staged_hooks: Mutex::new(Vec::new()),
            hooks: OnceLock::new(),
            timers: Timers::new(),
            progress: OnceLock::new(),
            kind,
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

    /// Scheduling statistics for this VP.
    pub fn stats(&self) -> &VpStats {
        &self.stats
    }

    /// Install a scheduler hook. Hooks run at every schedule point in
    /// installation order; see [`crate::SchedulerHook`]. The set is fixed
    /// when the lane starts, so every hook is installed before the first
    /// [`Vp::start`].
    ///
    /// # Panics
    /// Once [`Vp::start`] has been called.
    pub fn install_hook(&self, hook: Arc<dyn crate::SchedulerHook>) {
        let mut staged = self.staged_hooks.lock();
        assert!(
            self.hooks.get().is_none(),
            "scheduler hooks are fixed once the VP has started"
        );
        staged.push(hook);
    }

    /// Fix the hook set (the first `start` does; later calls keep it).
    fn seal_hooks(&self) {
        let mut staged = self.staged_hooks.lock();
        let _ = self
            .hooks
            .set(std::mem::take(&mut *staged).into_boxed_slice());
    }

    /// The fixed hook set. Empty before the first `start` — when nothing
    /// runs a schedule point anyway.
    fn hooks(&self) -> &[HookRef] {
        self.hooks.get().map_or(&[], |h| h)
    }

    // ------------------------------------------------------------------
    // Sleeping and waking.
    // ------------------------------------------------------------------

    /// End the lane's park so it looks for work again — or, if the lane
    /// is awake, make its next park return at once.
    ///
    /// Call this *after* publishing whatever the lane's scan should find:
    /// the VP calls it itself for everything it knows about (unblocks,
    /// spawns, cancels, timers); an event source outside the VP calls it
    /// when it completes something a scheduler hook polls for — a
    /// message arrival, an externally set [`PendingPoll`] flag. Safe from
    /// any thread; one load when a wake is already pending, a syscall
    /// only when the lane is really asleep.
    pub fn wake(&self) {
        self.parker.unpark();
    }

    /// Make the lane drive an external event source — a transport with
    /// no thread of its own. The lane's sleep also waits on `fd`
    /// (readable while the source has work), and the lane runs `turn`
    /// when it wakes on it and — while busy — at a schedule point once
    /// 50 µs have passed since its last turn. Whenever a round finds
    /// nothing to run — before the lane parks, and before [`Vp::start`]
    /// returns — it runs `flush`, which writes what the VP's threads left
    /// for the source to send: the source may leave a send to the lane
    /// when its caller's VP reports `fd` ([`crate::current_progress_fd`]).
    /// Neither `turn` nor `flush` may wait for readiness, only (briefly)
    /// for another thread's pass over the source to end. One source per
    /// VP, for the VP's lifetime: the fd must stay open (or close, which
    /// drops it from the set).
    ///
    /// # Panics
    /// On a second call, or when `fd` cannot be added to the lane's set.
    #[cfg(target_os = "linux")]
    pub fn set_progress(
        &self,
        fd: c_int,
        turn: impl Fn() + Send + Sync + 'static,
        flush: impl Fn() + Send + Sync + 'static,
    ) {
        let (turn, flush) = (Box::new(turn), Box::new(flush));
        assert!(
            self.progress.set(ProgressSource { fd, turn, flush }).is_ok(),
            "a VP drives one progress source"
        );
        self.parker
            .watch(fd)
            .unwrap_or_else(|e| panic!("cannot watch the progress fd: {e}"));
    }

    /// The fd of the source this VP's lane drives, once installed.
    pub(crate) fn progress_fd(&self) -> Option<c_int> {
        self.progress.get().map(|p| p.fd)
    }

    /// Run the progress turn: when the lane woke on the fd (`woken`), or
    /// when it last turned [`PROGRESS_INTERVAL_NS`] before `now`.
    #[inline]
    fn drive_progress(&self, now: u64, woken: bool) {
        let Some(source) = self.progress.get() else {
            return;
        };
        let last = &self.last_turn_ns;
        if woken || now.saturating_sub(last.load(Ordering::Relaxed)) >= PROGRESS_INTERVAL_NS {
            last.store(now, Ordering::Relaxed);
            (source.turn)();
        }
    }

    /// Arm a timer for the calling thread: at `deadline` the thread is
    /// made ready if it is blocked, and in any case the lane runs a fresh
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

    /// Fire every timer due by `now`: blocked owners become ready.
    /// Called at each schedule point, just before the round that will
    /// find them.
    fn expire_timers(&self, now: u64) {
        let mut wakes = Wakes::new(self);
        // Never a wake token: a thread that is not blocked has no wait
        // for this timer to end.
        self.timers.expire(now, |tcb| wakes.offer(tcb, false));
        wakes.finish();
    }

    // ------------------------------------------------------------------
    // Run-queue plumbing. Lock order: the directory (`shared`), then the
    // run queue, then a TCB's `life`; nothing takes a lock that comes
    // before one it holds.
    // ------------------------------------------------------------------

    /// Queue a ready thread.
    fn push_ready(&self, tcb: &Arc<Tcb>) {
        self.ready.lock().push(Arc::clone(tcb));
    }

    /// Spawn a user-level thread on this VP. May be called from outside
    /// the VP (before or after [`Vp::start`]) or from one of its threads
    /// (cf. `pthread_chanter_create` with `pe == LOCAL`).
    ///
    /// The thread does not run until the scheduler dispatches it.
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
            let tcb = Tcb::new(tid, name, attr.priority, attr.detached);
            shared.tcbs.insert(tid, Arc::clone(&tcb));
            shared.live += 1;
            (tcb, attr.detached)
        };
        let vp = Arc::clone(self);
        let me = Arc::clone(&tcb);
        let entry = Box::new(move || {
            // First dispatch: this thread is what the lane's OS thread
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
        self.push_ready(&tcb);
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
    /// The calling OS thread *is* the VP's lane for the duration: every
    /// thread runs on it, on its own stack, and the last exit switches
    /// back here.
    ///
    /// # Panics
    /// From a user-level thread, or while another OS thread is inside
    /// `start` for this VP.
    pub fn start(self: &Arc<Vp>) {
        assert!(
            !current::is_ult_context(),
            "Vp::start must not be called from a user-level thread"
        );
        self.seal_hooks();
        let host = Host::enter(self.kind);
        {
            let mut slot = self.host.lock();
            assert!(
                slot.is_none(),
                "Vp::start is already running on another OS thread"
            );
            *slot = Some(host.context().clone());
        }
        let successor = self.reschedule(None, Departure::Bootstrap);
        debug_assert!(successor.is_none());
        *self.host.lock() = None;
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
        self.stats.yields.incr_local();
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Yield { thread: me.id });
        }
        me.life.lock().phase = Phase::Ready;
        self.push_ready(&me);
        self.reschedule(Some(&me), Departure::Yield);
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
            // Under `life`, as every write of the token is: a load and a
            // store, no atomic exchange.
            if me.wake_token.load(Ordering::Relaxed) {
                me.wake_token.store(false, Ordering::Relaxed);
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
        self.stats.blocks.incr_local();
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Block { thread: me.id });
        }
        self.reschedule(Some(me), Departure::Block);
        self.testcancel_tcb(me);
    }

    /// Make a blocked thread ready again. If the target is not currently
    /// blocked, a wakeup token is left for its next [`Vp::block`]. May be
    /// called from any OS thread, including scheduler hooks. The
    /// one-thread case of [`Vp::unblock_all`].
    pub fn unblock(&self, tid: Tid) -> Result<(), UltError> {
        match self.unblock_all(&[tid]) {
            0 => Err(UltError::NoSuchThread(tid)),
            _ => Ok(()),
        }
    }

    /// [`Vp::unblock`] every thread of `tids`, in order, as one batch:
    /// one directory lock, each thread's lifecycle lock in turn, one
    /// run-queue lock for every thread made ready, and one lane wake. A
    /// Blocked thread becomes ready; a Ready or Running one gets a wakeup
    /// token; a finished one, and a tid the VP does not know, is skipped.
    /// Returns how many of `tids` the VP knew. May be called from any OS
    /// thread, including scheduler hooks.
    pub fn unblock_all(&self, tids: &[Tid]) -> usize {
        let shared = self.shared.lock();
        let mut wakes = Wakes::new(self);
        let mut known = 0;
        for tcb in tids.iter().filter_map(|tid| shared.tcbs.get(tid)) {
            known += 1;
            wakes.offer(tcb, true);
        }
        drop(shared);
        wakes.finish();
        known
    }

    /// [`Vp::unblock`] for callers that already hold the TCB (joiner and
    /// watcher lists): no directory lookup.
    fn unblock_tcb(&self, tcb: &Arc<Tcb>) {
        let mut wakes = Wakes::new(self);
        wakes.offer(tcb, true);
        wakes.finish();
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
    /// the host once the VP has no live thread left.
    fn finish(self: &Arc<Vp>, me: &Arc<Tcb>, outcome: Outcome) -> Context {
        let joiners: Vec<Arc<Tcb>> = {
            let mut life = me.life.lock();
            life.phase = Phase::Done;
            me.done.store(true, Ordering::Release);
            life.outcome = Some(outcome);
            // Foreign-OS-thread joiners sleep on `ext_cv`; wake them
            // under the lock they counted themselves under.
            if life.ext_sleepers > 0 {
                me.ext_cv.notify_all();
            }
            std::mem::take(&mut life.joiners)
        };
        for j in joiners {
            self.unblock_tcb(&j);
        }
        let watchers: Vec<Arc<Tcb>> = {
            let mut shared = self.shared.lock();
            if me.detached.load(Ordering::Relaxed) {
                shared.tcbs.remove(&me.id);
            }
            shared.live -= 1;
            self.stats.exited.incr();
            let live = shared.live;
            shared
                .exit_watchers
                .iter()
                .filter(|(_, n)| live <= *n)
                .map(|(t, _)| Arc::clone(t))
                .collect()
        };
        for w in watchers {
            self.unblock_tcb(&w);
        }
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::ThreadDone { thread: me.id });
        }
        self.reschedule(Some(me), Departure::Exit)
            .expect("an exiting thread always has a successor")
    }

    /// One round over the run queue: examine at most one queue's length
    /// of candidates and return the first one to run — with every
    /// candidate held aside before it already back in the queue — or
    /// `None` (everything requeued, nothing queued).
    ///
    /// A partially switched candidate is held aside until the round ends,
    /// so a high-priority thread with an unready pending request cannot
    /// monopolize the round; it is retried next round, after the
    /// schedule-point hooks have run again. One lock reads the length
    /// and pops the first candidate, one holds a candidate aside and pops
    /// the next, one puts the held-aside back; none is held while a hook
    /// looks at a candidate.
    fn pick_next(&self, hooks: &[HookRef], wants_check: bool) -> Option<Arc<Tcb>> {
        let mut q = self.ready.lock();
        let round_len = q.len().max(1);
        let mut held_aside = false;
        for _ in 0..round_len {
            let Some(tcb) = q.pop() else { break };
            drop(q);
            // A stale entry: the thread exited after it was queued.
            let decision = (!tcb.done.load(Ordering::Acquire))
                .then(|| self.dispatch_decision(hooks, wants_check, &tcb));
            if decision == Some(DispatchDecision::Run) {
                if held_aside {
                    self.ready.lock().restore_aside();
                }
                return Some(tcb);
            }
            if decision == Some(DispatchDecision::Requeue) {
                self.stats.partial_switches.incr_local();
                if let Some(o) = &self.obs {
                    o.emit(chant_obs::Event::PartialSwitch { thread: tcb.id });
                }
                q = self.ready.lock();
                q.aside.push(tcb);
                held_aside = true;
            } else {
                q = self.ready.lock();
            }
        }
        q.restore_aside();
        None
    }

    /// Run the pre-dispatch hooks for a candidate (the PS partial-switch
    /// test), under its TCB's `pending` lock.
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

    /// The scheduling loop. Runs on the lane's OS thread, on the
    /// departing thread's stack (or the host's). For
    /// `Yield`/`Block`/`Bootstrap` departures it switches to the thread
    /// it picked and returns `None` once *this* context has been resumed
    /// — on the same OS thread. For `Exit` it switches nowhere: it
    /// returns the context that takes the lane over, and the caller
    /// unwinds its stack before the final switch.
    ///
    /// Only the lane pops the queue, so a popped thread whose context is
    /// still running can only be `me`, requeued before it switched away:
    /// dispatching it is a self-redispatch, not a second resume.
    fn reschedule(self: &Arc<Vp>, me: Option<&Arc<Tcb>>, dep: Departure) -> Option<Context> {
        let parker = &self.parker;
        let hooks = self.hooks();
        let mut idle_traced = false;
        loop {
            self.stats.schedule_points.incr_local();
            let sched_start_ns = self.obs.as_ref().map(|o| o.lane.now_ns());
            // The schedule point's one clock read: the progress interval,
            // `yield_if_due`'s stamp and the timers all use it, so a
            // timer that falls due during the turn fires next round.
            let now = self.timers.now_ns();
            self.last_sched_ns.store(now, Ordering::Relaxed);
            // Before the scan: what the turn delivers, this round sees
            // (and the wake-up it sends this lane, the scan consumes).
            self.drive_progress(now, false);
            // From here on, whatever a waker publishes is either seen by
            // this round's scan or leaves a token that voids the park.
            parker.begin_scan();
            self.expire_timers(now);
            for h in hooks {
                h.at_schedule_point();
            }
            let wants_check = hooks.iter().any(|h| h.wants_dispatch_check());

            if let Some(next) = self.pick_next(hooks, wants_check) {
                let successor = self.dispatch_to(&next, me, dep);
                // Attribute the search cost only for rounds that found a
                // thread; sleeping is accounted by `idle_spins`.
                if let (Some(o), Some(start)) = (&self.obs, sched_start_ns) {
                    o.sched_point_ns
                        .record(o.lane.now_ns().saturating_sub(start));
                }
                return successor;
            }

            // Nothing runnable this round. Before the lane sleeps or hands
            // its OS thread back, what its threads sent goes out.
            if let Some(source) = self.progress.get() {
                (source.flush)();
            }
            if self.shared.lock().live == 0 {
                return match dep {
                    // The last exit: back to the host, so that
                    // `Vp::start` returns.
                    Departure::Exit => Some(self.host_context()),
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
                self.stats.idle_spins.incr_local();
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
                // the lane); otherwise the last scan still stands.
                self.drive_progress(self.timers.now_ns(), true);
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

    /// Called by the lane of a hook-free VP that slept a whole
    /// [`DEADLOCK_GRACE`] with no timer armed and was never woken: if
    /// every live thread is blocked, nothing inside the VP can ever run
    /// again. Unwedge it — cancel every blocked thread — and return the
    /// report. (A thread another OS thread is still spawning is Ready
    /// but not yet queued: then there is no deadlock.)
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
        if !all_blocked {
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

    /// The context of the OS thread inside [`Vp::start`].
    fn host_context(&self) -> Context {
        self.host
            .lock()
            .clone()
            .expect("a thread is running on a VP with no host inside Vp::start")
    }

    /// Complete a context switch to `next` — or, for an exiting `me`,
    /// return `next`'s context as its successor.
    fn dispatch_to(
        self: &Arc<Vp>,
        next: &Arc<Tcb>,
        me: Option<&Arc<Tcb>>,
        dep: Departure,
    ) -> Option<Context> {
        next.life.lock().phase = Phase::Running;
        if me.is_some_and(|me| me.id == next.id) {
            // "The scheduler simply returns without having to perform a
            // context switch" (paper §4.1).
            self.stats.self_redispatches.incr_local();
            if let Some(o) = &self.obs {
                o.emit(chant_obs::Event::Dispatch {
                    thread: next.id,
                    full_switch: false,
                });
            }
            debug_assert!(dep != Departure::Exit, "exiting thread re-dispatched");
            return None;
        }
        self.stats.full_switches.incr_local();
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
                // Returns once the last exit has switched back here.
                Context::switch(&self.host_context(), next.ctx());
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

    /// A reader of how many foreign OS threads sleep in `join` on this
    /// thread, usable after the handle has moved to one of them.
    #[cfg(test)]
    pub(crate) fn ext_sleepers(&self) -> impl Fn() -> u32 {
        let tcb = self.vp.shared.lock().tcbs.get(&self.tid).cloned();
        let tcb = tcb.expect("the thread is not reaped before its join");
        move || tcb.life.lock().ext_sleepers
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
                    life.ext_sleepers += 1;
                    tcb.ext_cv.wait(&mut life);
                    life.ext_sleepers -= 1;
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
/// yields unusable off-VP.
pub fn yield_now() {
    if let Some(vp) = current::current_vp() {
        vp.yield_now();
    }
}

/// Yield the current user-level thread when its lane has passed no
/// schedule point for 50 µs (the interval a busy lane turns its
/// progress source at); otherwise return at once. A thread that serves
/// work in place without blocking calls this after each piece, so a
/// loop of such work cannot hold its lane from its siblings, its timers
/// and its progress turn for longer than a busy lane holds them anyway. From an ordinary OS thread it does
/// nothing: there is no lane to starve.
pub fn yield_if_due() {
    let due = current::with_current(|c| {
        c.is_some_and(|ctx| {
            let vp = &ctx.vp;
            let last = vp.last_sched_ns.load(Ordering::Relaxed);
            vp.timers.now_ns().saturating_sub(last) >= PROGRESS_INTERVAL_NS
        })
    });
    if due {
        yield_now();
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
