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
//! # Multi-VP mode
//!
//! With [`VpConfig::n_vps`] > 1 the VP multiplexes its threads over N
//! *worker lanes*, one scheduling baton each, so a multicore PE can run N
//! user-level threads truly in parallel. Each lane owns a run queue;
//! threads have a *home* lane (round-robin at spawn, or pinned with
//! [`SpawnAttr::affinity`](crate::SpawnAttr::affinity)) that they requeue
//! on at every yield/unblock. An idle lane steals single dispatches from
//! the back of other lanes' queues — a steal moves one quantum of
//! computation, never the home, and never any endpoint or matching-table
//! ownership. Scheduler hooks stay effectively single-threaded: the
//! schedule-point sweep is serialized by a try-lock gate (contending
//! lanes skip, they do not wait). At `n_vps == 1` all of this
//! degenerates to the paper's single-baton scheduler: the gate is never
//! contended and no candidate is ever deferred by the steal-safety
//! check, so counter streams are bit-identical to the pre-multi-VP
//! scheduler while anything is runnable.
//!
//! # Waiting
//!
//! "Nothing to run" is a kernel sleep. A lane whose round dispatched
//! nothing — own queue, steal, every partial-switch candidate requeued —
//! fires the timers that are due and otherwise **parks its OS thread**
//! until the nearest armed deadline or [`Vp::wake`] (see [`crate::park`]
//! for the parker and why no wake-up is lost). Everything that can make
//! a thread runnable ends the park: [`Vp::unblock`], [`Vp::spawn`],
//! [`Vp::cancel`], [`Vp::set_priority`], a timer, a thread becoming
//! grantable to another lane, the last thread's exit — and, from outside
//! the VP, whoever completes what a scheduler hook is polling for calls
//! [`Vp::wake`] itself (Chant's endpoints do on every delivery). Timed
//! waits ([`Vp::block_until`], [`Vp::timer_arm`]) register a deadline in
//! the VP's timer queue instead of staying ready to watch a clock; due
//! timers fire at every schedule point, so a busy lane honours them too.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU32, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::affinity::{self, Allowed, NO_CPU};
use crate::attr::{Priority, SpawnAttr};
use crate::config::VpConfig;
use crate::current::{self, UltContext};
use crate::error::{JoinError, UltError};
use crate::hooks::{DispatchDecision, HookRef, PendingPoll};
use crate::park::{Parker, TimerKey, Timers};
use crate::stats::VpStats;
use crate::tcb::{Lifecycle, Outcome, Phase, Tcb, Tid, MAIN_TID};

/// How long a hook-free VP with every live thread blocked and no timer
/// armed must go without a single wake-up before it is declared
/// deadlocked. Only an OS thread outside the VP could still unblock
/// anyone by then, and it has had this long to do so.
const DEADLOCK_GRACE: Duration = Duration::from_secs(1);

/// A lane that never sleeps re-offers its placement to the kernel every
/// this many full switches (see [`Vp::follow_baton`]).
const FLOAT_EVERY: u32 = 256;

/// Panic payload used to unwind a cancelled thread (cf.
/// `pthread_chanter_cancel`). Recognized and silenced by our panic hook.
struct CancelPayload;

/// Install a process-wide panic hook that silences cancellation unwinds
/// while delegating every other panic to the previously installed hook.
fn install_cancel_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CancelPayload>() {
                return; // orderly cancellation, not an error
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
    /// I am blocked: do not requeue me; park me after handing off.
    Block,
    /// I am exiting: hand off and let my OS thread die.
    Exit,
    /// Initial dispatch from [`Vp::start`]'s calling thread (or one of
    /// its worker-lane host threads).
    Bootstrap,
}

/// What a baton holder's look at its own queued entry came to
/// ([`Vp::redispatch_queued_self`]).
enum SelfDispatch {
    /// It was runnable and has been resumed in place.
    Resumed,
    /// It is blocked, or its pending poll says "not yet": sleep on.
    NotRunnable,
    /// It is runnable but off its queue in another lane's hands for a
    /// moment (that lane cannot grant it and puts it straight back).
    InOtherHands,
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
    exit_watchers: Vec<(Tid, usize)>,
}

/// One worker lane: a run queue plus the lane's scheduling baton state.
struct Worker {
    /// This lane's ready queue, one FIFO per priority class. Owners pop
    /// from the front; thieves pop from the back (oldest entry of the
    /// highest non-empty class), keeping owner traffic cache-friendly.
    ///
    /// A plain mutexed deque, not a Chase–Lev deque: measured in PR 8's
    /// lane sweep, queue-lock hold times are tens of nanoseconds against
    /// microsecond-scale dispatch costs (permit grant + OS wakeup), so an
    /// uncontended parking_lot lock is nowhere near the bottleneck. The
    /// lock-free deque stays an upgrade path behind this same interface.
    ready: Mutex<[VecDeque<Tid>; Priority::LEVELS]>,
    /// Tid last dispatched on this lane (0 = none yet), for introspection.
    current: AtomicU32,
    /// Where this lane's baton holder sleeps when a round finds nothing.
    parker: Parker,
    /// The CPU this lane's threads are confined to, or `NO_CPU` while
    /// the lane *floats* — see [`Vp::follow_baton`].
    cpu: AtomicI32,
    /// Full switches on this lane, for the periodic float.
    grants: AtomicU32,
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
    /// The CPUs this process may run on; `None` when there is only one
    /// (or no way to tell), which switches lane confinement off.
    allowed_cpus: Option<Allowed>,
    /// Ensures exactly one lane reports a detected deadlock.
    deadlock_reported: AtomicBool,
    stats: VpStats,
    /// Trace lane + cached histogram handles; `None` when no tracer was
    /// installed at construction time.
    #[cfg(feature = "trace")]
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
        install_cancel_hook();
        #[cfg(feature = "trace")]
        let obs = crate::obs::VpObs::register(&cfg.name);
        let n = cfg.n_vps.max(1);
        let workers: Box<[Worker]> = (0..n)
            .map(|_| Worker {
                ready: Mutex::new(Default::default()),
                current: AtomicU32::new(0),
                parker: Parker::new(),
                cpu: AtomicI32::new(NO_CPU),
                grants: AtomicU32::new(0),
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
            allowed_cpus: Allowed::capture(),
            deadlock_reported: AtomicBool::new(false),
            stats: VpStats::default(),
            #[cfg(feature = "trace")]
            obs,
        })
    }

    /// The VP's trace lane, when a tracer was active at construction.
    /// Layers above (e.g. the RSR server) emit their own events here so
    /// they land on the VP's timeline track.
    #[cfg(feature = "trace")]
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
        #[cfg(feature = "trace")]
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
    fn push_home(&self, tcb: &Tcb) {
        let w = tcb.home.load(Ordering::Relaxed) % self.n;
        self.workers[w].ready.lock()[tcb.priority().index()].push_back(tcb.id);
    }

    /// Pop the frontmost thread of the highest non-empty priority class
    /// of this lane's own queue.
    fn pop_local(&self, worker: usize) -> Option<Tid> {
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

    /// Steal one dispatch from another lane: scan victims round-robin
    /// from this lane and take the *back* of the highest non-empty
    /// priority class — the entry its owner would reach last.
    fn try_steal(&self, worker: usize) -> Option<Tid> {
        for d in 1..self.n {
            let victim = (worker + d) % self.n;
            let mut q = self.workers[victim].ready.lock();
            for lane in q.iter_mut().rev() {
                if let Some(t) = lane.pop_back() {
                    return Some(t);
                }
            }
        }
        None
    }

    /// Spawn a user-level thread on this VP. May be called from outside
    /// the VP (before or after [`Vp::start`]) or from one of its threads
    /// (cf. `pthread_chanter_create` with `pe == LOCAL`).
    ///
    /// The thread does not run until the scheduler dispatches it. On a
    /// multi-lane VP its home lane is the spawn attr's affinity (modulo
    /// the lane count) or the next round-robin slot.
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
            let home = match attr.affinity {
                Some(a) => a % self.n,
                None => {
                    let p = shared.next_place % self.n;
                    shared.next_place += 1;
                    p
                }
            };
            tcb.home.store(home, Ordering::Relaxed);
            shared.tcbs.insert(tid, Arc::clone(&tcb));
            shared.live += 1;
            (tcb, attr.detached)
        };
        self.push_home(&tcb);
        self.wake();
        self.stats.spawned.incr();

        let vp = Arc::clone(self);
        let tcb_for_thread = Arc::clone(&tcb);
        let mut builder =
            std::thread::Builder::new().name(format!("{}:{}", self.cfg.name, tcb.name));
        if let Some(sz) = attr.stack_size {
            builder = builder.stack_size(sz);
        }
        builder
            .spawn(move || {
                let me = tcb_for_thread;
                current::set_current(Some(UltContext {
                    vp: Arc::clone(&vp),
                    tcb: Arc::clone(&me),
                }));
                me.os_tid.store(affinity::os_tid(), Ordering::Release);
                // Wait for the first dispatch before touching user code.
                me.permit.wait();
                me.parked.store(false, Ordering::Relaxed);
                let result = panic::catch_unwind(AssertUnwindSafe(|| f(&vp)));
                let outcome = match result {
                    Ok(v) => Outcome::Value(Box::new(v) as Box<dyn Any + Send>),
                    Err(payload) if payload.is::<CancelPayload>() => Outcome::Cancelled,
                    Err(payload) => Outcome::Panicked(payload),
                };
                vp.finish(&me, outcome);
                current::set_current(None);
            })
            .expect("failed to spawn backing OS thread for a user-level thread");

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
    /// On a multi-lane VP this additionally spawns one host OS thread per
    /// extra lane to bootstrap that lane's baton; they are joined before
    /// returning.
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
                    .spawn(move || vp.reschedule(w, None, Departure::Bootstrap))
                    .expect("failed to spawn VP worker-lane host thread"),
            );
        }
        self.reschedule(0, None, Departure::Bootstrap);
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
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Yield { thread: me.id });
        }
        me.life.lock().phase = Phase::Ready;
        self.push_home(&me);
        self.reschedule(
            me.running_on.load(Ordering::Relaxed),
            Some(&me),
            Departure::Yield,
        );
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
            #[cfg(feature = "trace")]
            if let Some(o) = &self.obs {
                me.blocked_at_ns.store(o.lane.now_ns(), Ordering::Relaxed);
            }
            life.phase = Phase::Blocked;
        }
        self.stats.blocks.incr();
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Block { thread: me.id });
        }
        self.reschedule(
            me.running_on.load(Ordering::Relaxed),
            Some(me),
            Departure::Block,
        );
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
        let life = tcb.life.lock();
        match life.phase {
            Phase::Blocked => {
                self.make_ready(&tcb, life);
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
        Ok(())
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
        let _ = self.unblock(tid);
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
                if !life.joiners.contains(&me.id) {
                    life.joiners.push(me.id);
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
                    shared.exit_watchers.retain(|(t, _)| *t != me.id);
                    return;
                }
                if !shared.exit_watchers.iter().any(|(t, _)| *t == me.id) {
                    shared.exit_watchers.push((me.id, n));
                }
            }
            self.block_inner(&me, None);
        }
    }

    // ------------------------------------------------------------------
    // The dispatcher.
    // ------------------------------------------------------------------

    /// Thread exit: record the outcome, wake joiners, hand off the baton.
    fn finish(self: &Arc<Vp>, me: &Arc<Tcb>, outcome: Outcome) {
        let worker = me.running_on.load(Ordering::Relaxed);
        let joiners: Vec<Tid> = {
            let mut life = me.life.lock();
            life.phase = Phase::Done;
            life.outcome = Some(outcome);
            std::mem::take(&mut life.joiners)
        };
        me.ext_cv_notify();
        for j in joiners {
            let _ = self.unblock(j);
        }
        let (live, watchers): (usize, Vec<Tid>) = {
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
                .map(|(t, _)| *t)
                .collect();
            (live, due)
        };
        for w in watchers {
            let _ = self.unblock(w);
        }
        if live == 0 {
            // The last exit ends every lane's run: sleeping ones must
            // wake to see it and return.
            self.wake();
        }
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::ThreadDone { thread: me.id });
        }
        self.reschedule(worker, Some(me), Departure::Exit);
    }

    /// Fetch a popped candidate's TCB, filtering garbage queue entries.
    /// `None` means "skip this tid and keep looking".
    fn candidate(&self, tid: Tid) -> Option<Arc<Tcb>> {
        let tcb = self.shared.lock().tcbs.get(&tid).cloned()?; // reaped
        if tcb.life.lock().phase == Phase::Done {
            return None; // stale queue entry for an exited thread
        }
        Some(tcb)
    }

    /// Whether it is safe for lane `worker`'s baton holder to dispatch
    /// this candidate. A thread that is not `me` and not parked is still
    /// winding down through *another* lane's scheduler (it was requeued
    /// before reaching its park point); granting it now would strand that
    /// lane's baton. Single-lane VPs never defer: the only unparked
    /// candidate possible is `me`.
    fn steal_safe(&self, tcb: &Tcb, me: Option<&Arc<Tcb>>) -> bool {
        self.n == 1
            || me.is_some_and(|m| m.id == tcb.id)
            || tcb.parked.load(Ordering::SeqCst)
    }

    /// Multi-lane only: the departing thread `me` (still this lane's
    /// baton holder) was not among the candidates this round examined.
    /// If it is ready — queued on its home lane — apply the dispatch
    /// test here and, on `Run`, pull its entry and resume it in place.
    fn redispatch_queued_self(
        self: &Arc<Vp>,
        worker: usize,
        me: &Arc<Tcb>,
        hooks: &[HookRef],
        wants_check: bool,
        dep: Departure,
    ) -> SelfDispatch {
        if me.life.lock().phase != Phase::Ready {
            return SelfDispatch::NotRunnable;
        }
        if self.dispatch_decision(hooks, wants_check, me) == DispatchDecision::Requeue {
            self.stats.partial_switches.incr();
            return SelfDispatch::NotRunnable;
        }
        let home = me.home.load(Ordering::Relaxed) % self.n;
        let mut q = self.workers[home].ready.lock();
        let Some((class, at)) = q.iter().enumerate().find_map(|(c, lane)| {
            lane.iter().position(|&t| t == me.id).map(|i| (c, i))
        }) else {
            return SelfDispatch::InOtherHands;
        };
        q[class].remove(at);
        drop(q);
        self.dispatch_to(worker, me, Some(me), dep);
        SelfDispatch::Resumed
    }

    /// Run the pre-dispatch hooks for a candidate (the PS partial-switch
    /// test). Not gate-serialized: concurrent lanes evaluate *different*
    /// candidates, each under its own TCB's `pending` lock, and every
    /// candidate must be tested no matter which lane examines it.
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

    /// Core scheduling loop for one worker lane. Runs on the departing
    /// thread's OS thread (or a bootstrap host); returns once the lane's
    /// baton has been handed off — for `Yield`/`Block` departures, only
    /// after *this* thread has been granted a baton again.
    fn reschedule(self: &Arc<Vp>, worker: usize, me: Option<&Arc<Tcb>>, dep: Departure) {
        let parker = &self.workers[worker].parker;
        #[cfg(feature = "trace")]
        let mut idle_traced = false;
        loop {
            self.stats.schedule_points.incr();
            #[cfg(feature = "trace")]
            let sched_start_ns = self.obs.as_ref().map(|o| o.lane.now_ns());
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
            // Whether this round looked at the departing thread itself.
            let mut saw_me = false;
            let mut dispatched = false;
            let mut examined = 0usize;
            while examined < round_len.max(1) {
                let Some(tid) = self.pop_local(worker) else { break };
                examined += 1;
                let Some(tcb) = self.candidate(tid) else {
                    continue;
                };
                saw_me |= me.is_some_and(|m| m.id == tcb.id);
                if !self.steal_safe(&tcb, me) {
                    // Not a partial switch: the candidate was not examined
                    // by any hook, it is merely not yet grantable.
                    deferred.push(tcb);
                    continue;
                }
                match self.dispatch_decision(&hooks, wants_check, &tcb) {
                    DispatchDecision::Requeue => {
                        self.stats.partial_switches.incr();
                        #[cfg(feature = "trace")]
                        if let Some(o) = &self.obs {
                            o.emit(chant_obs::Event::PartialSwitch { thread: tid });
                        }
                        deferred.push(tcb);
                    }
                    DispatchDecision::Run => {
                        // Requeue the partially-switched candidates before
                        // handing off, or they would be lost.
                        for t in deferred.drain(..) {
                            self.push_home(&t);
                        }
                        self.dispatch_to(worker, &tcb, me, dep);
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

            // Own queue came up dry: try to steal one dispatch from
            // another lane. Garbage entries (reaped/Done) are consumed
            // and the scan continues; a live candidate that fails its
            // gate or hook test is returned home and the attempt ends —
            // re-stealing it in a tight loop would spin on the same head.
            if !dispatched && self.n > 1 {
                while let Some(tid) = self.try_steal(worker) {
                    let Some(tcb) = self.candidate(tid) else {
                        continue;
                    };
                    saw_me |= me.is_some_and(|m| m.id == tcb.id);
                    if !self.steal_safe(&tcb, me) {
                        self.push_home(&tcb);
                        break;
                    }
                    match self.dispatch_decision(&hooks, wants_check, &tcb) {
                        DispatchDecision::Requeue => {
                            self.stats.partial_switches.incr();
                            #[cfg(feature = "trace")]
                            if let Some(o) = &self.obs {
                                o.emit(chant_obs::Event::PartialSwitch { thread: tid });
                            }
                            self.push_home(&tcb);
                        }
                        DispatchDecision::Run => {
                            if me.is_none_or(|m| m.id != tcb.id) {
                                self.stats.steals.incr();
                            }
                            self.dispatch_to(worker, &tcb, me, dep);
                            dispatched = true;
                        }
                    }
                    break;
                }
            }

            // The departing thread is this lane's baton holder until it
            // hands off, so no other lane may grant it (they put it back
            // when they pop it) — and if it is queued on a *foreign* home
            // lane, the one-candidate steal above may never reach it.
            // Before sleeping on it, give it the look only this lane can.
            if !dispatched && !saw_me && self.n > 1 {
                if let Some(m) = me.filter(|_| matches!(dep, Departure::Yield | Departure::Block)) {
                    match self.redispatch_queued_self(worker, m, &hooks, wants_check, dep) {
                        SelfDispatch::Resumed => dispatched = true,
                        SelfDispatch::NotRunnable => {}
                        SelfDispatch::InOtherHands => {
                            // Runnable, but popped by another lane this
                            // instant; it is on its way back.
                            std::hint::spin_loop();
                            continue;
                        }
                    }
                }
            }

            if dispatched {
                // Attribute the search cost only for rounds that found a
                // thread; sleeping is accounted by `idle_spins`.
                #[cfg(feature = "trace")]
                if let Some(o) = &self.obs {
                    if let Some(start) = sched_start_ns {
                        o.sched_point_ns
                            .record(o.lane.now_ns().saturating_sub(start));
                    }
                }
                return;
            }

            // Nothing runnable this round.
            if self.shared.lock().live == 0 {
                self.done_cv.notify_all();
                debug_assert!(
                    matches!(dep, Departure::Exit | Departure::Bootstrap),
                    "a live thread found the VP empty"
                );
                return;
            }
            // Sleep until something can have changed: a wake-up, or the
            // nearest deadline. A hook-free VP with no timer armed has no
            // event source but its own threads, so its park is bounded by
            // the deadlock grace period instead.
            let until_timer = self.timers.until_next();
            if until_timer.is_some_and(|d| d.is_zero()) {
                continue; // already due: the next round fires it
            }
            let unattended = hooks.is_empty() && until_timer.is_none();
            self.stats.idle_spins.incr();
            // One Idle event per idle *period*, not per park.
            #[cfg(feature = "trace")]
            if !std::mem::replace(&mut idle_traced, true) {
                if let Some(o) = &self.obs {
                    o.emit(chant_obs::Event::Idle);
                }
            }
            // Where the lane runs after this sleep is the kernel's call.
            self.float_lane(worker, me);
            let woken = parker.park(until_timer.or(unattended.then_some(DEADLOCK_GRACE)));
            if unattended && !woken && !self.timers.any_armed() {
                self.report_if_deadlocked();
            }
        }
    }

    /// Called by a lane of a hook-free VP that slept a whole
    /// [`DEADLOCK_GRACE`] with no timer armed and was never woken: if
    /// every live thread is blocked, nothing inside the VP can ever run
    /// again. Unwedge it and report. With several lanes, *this* lane
    /// sleeping through the grace only means the work lives elsewhere —
    /// hence the all-blocked check — and exactly one lane reports.
    fn report_if_deadlocked(&self) {
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
        if all_blocked
            && self
                .deadlock_reported
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // Cancel every blocked thread so they all unwind in an
            // orderly fashion, then report the deadlock by panicking the
            // detecting thread (whose joiner sees it).
            for t in &blocked {
                let _ = self.cancel(*t);
            }
            panic!(
                "ULT deadlock on VP '{}': {} thread(s) blocked with none ready, no timer \
                 armed and no scheduler hooks that could make progress (cancelled: {blocked:?})",
                self.cfg.name,
                blocked.len()
            );
        }
    }

    /// Keep the lane's threads where its baton is ([`crate::affinity`]).
    /// Called by the granter just before it wakes `next`.
    ///
    /// While the lane has a CPU, `next` is confined to it (a syscall
    /// only if `next` was last confined elsewhere). While the lane
    /// *floats* it adopts the CPU the granter is running on — the
    /// kernel's most recent placement decision for this lane. The lane
    /// floats, handing placement back to the kernel, whenever staying
    /// put has no locality to protect or may have outlived its reason:
    /// after a sleep and at a self-redispatch ([`Vp::float_lane`]), and
    /// every [`FLOAT_EVERY`]th grant — then it is `next` that is
    /// released, so that two lanes that ended up on one CPU while
    /// another stands idle part ways within that many switches.
    fn follow_baton(&self, worker: usize, next: &Tcb) {
        let Some(allowed) = &self.allowed_cpus else {
            return;
        };
        let tid = next.os_tid.load(Ordering::Acquire);
        if tid == 0 {
            return; // its OS thread has not started yet
        }
        let lane = &self.workers[worker];
        if lane.grants.fetch_add(1, Ordering::Relaxed) % FLOAT_EVERY == FLOAT_EVERY - 1 {
            affinity::release(tid, &next.cpu_pin, allowed);
            lane.cpu.store(NO_CPU, Ordering::Relaxed);
            return;
        }
        let mut cpu = lane.cpu.load(Ordering::Relaxed);
        if cpu == NO_CPU {
            cpu = affinity::current_cpu();
            lane.cpu.store(cpu, Ordering::Relaxed);
        }
        affinity::confine(tid, &next.cpu_pin, cpu);
    }

    /// Let the kernel place lane `worker` afresh: release its baton
    /// holder (the calling thread, when it is one of ours) and forget the
    /// lane's CPU; the next grant adopts wherever the holder then runs.
    fn float_lane(&self, worker: usize, holder: Option<&Arc<Tcb>>) {
        let Some(allowed) = &self.allowed_cpus else {
            return;
        };
        if let Some(h) = holder {
            affinity::release(0, &h.cpu_pin, allowed);
        }
        self.workers[worker].cpu.store(NO_CPU, Ordering::Relaxed);
    }

    /// Complete a context switch to `next` on lane `worker`.
    fn dispatch_to(self: &Arc<Vp>, worker: usize, next: &Arc<Tcb>, me: Option<&Arc<Tcb>>, dep: Departure) {
        self.workers[worker].current.store(next.id, Ordering::Relaxed);
        next.life.lock().phase = Phase::Running;
        if let Some(me) = me {
            if me.id == next.id {
                // "The scheduler simply returns without having to perform a
                // context switch" (paper §4.1).
                self.stats.self_redispatches.incr();
                #[cfg(feature = "trace")]
                if let Some(o) = &self.obs {
                    o.emit(chant_obs::Event::Dispatch {
                        thread: next.id,
                        full_switch: false,
                    });
                }
                debug_assert!(dep != Departure::Exit, "exiting thread re-dispatched");
                // The only runnable thread of its lane has nothing to
                // stay close to.
                self.float_lane(worker, Some(me));
                return;
            }
        }
        // Publish the lane before the grant: the permit's internal lock
        // makes the store visible to the woken thread, which reads it to
        // reschedule on this lane's behalf at its next departure.
        next.running_on.store(worker, Ordering::Relaxed);
        self.stats.full_switches.incr();
        self.follow_baton(worker, next);
        // Emit before granting the permit: the incoming thread may start
        // emitting the moment it wakes, and its events must follow its
        // Dispatch in the lane.
        #[cfg(feature = "trace")]
        if let Some(o) = &self.obs {
            o.emit(chant_obs::Event::Dispatch {
                thread: next.id,
                full_switch: true,
            });
        }
        next.permit.grant();
        match dep {
            Departure::Yield | Departure::Block => {
                let me = me.expect("yield/block without a current thread");
                // From here on any lane may grant us; until here only the
                // queues knew about us and `parked == false` deferred them.
                // A lane that deferred us and went to sleep must look
                // again — this is the moment a cross-lane push lands.
                me.parked.store(true, Ordering::SeqCst);
                if self.n > 1 {
                    self.workers[me.home.load(Ordering::Relaxed) % self.n]
                        .parker
                        .unpark();
                }
                me.permit.wait();
                me.parked.store(false, Ordering::Relaxed);
            }
            Departure::Exit | Departure::Bootstrap => {}
        }
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
