//! How an idle lane sleeps, and what it sleeps until.
//!
//! Two small pieces the scheduler's idle path is built from:
//!
//! * [`Parker`] — one per VP, for its lane. A lane whose round dispatched
//!   nothing parks its OS thread here; [`Parker::unpark`] ends the park.
//!   Token semantics, like `std::thread::park`: an unpark that lands
//!   *before* the park makes the park return at once, so "publish the
//!   work, then unpark" can never lose a wake-up to "scan, then park".
//!   On Linux it is an epoll set ([`crate::sys`]) holding an eventfd: a
//!   park is one `epoll_pwait2`, an unpark of a sleeping lane one
//!   eventfd write, and the same sleep waits on a [`Parker::watch`]ed
//!   fd (a transport's epoll set). Elsewhere: a mutex and a condvar.
//! * [`Timers`] — one per VP. The deadlines timed waits are waiting for,
//!   nearest first, so a parked lane knows how long it may sleep and a
//!   schedule point knows (from one atomic load) whether anything is due.
//!
//! # The lost-wake-up argument
//!
//! A lane's idle round is: [`Parker::begin_scan`] (consume the token),
//! scan for work, [`Parker::park`] (sleep unless a token arrived since).
//! A waker is: publish the work, [`Parker::unpark`]. All operations on
//! the state word are `SeqCst`, so they sit in one total order with each
//! other. Suppose the scan missed a publication. Everything the scan
//! reads is either behind a lock the publisher also takes (run queues,
//! a receive's completion state) or itself a `SeqCst` word (the nearest
//! timer deadline), so the scan's read preceding the publication puts
//! `begin_scan` before the waker's `unpark` in that order. The unpark
//! then either finds `PARKED` and signals the sleeper — an eventfd
//! write stays pending until the sleeper's `epoll_pwait2` reports it, a
//! condvar notify is made under the lock the sleeper re-checks the
//! state under — or finds `EMPTY` and leaves `NOTIFIED`, which fails
//! the lane's `EMPTY → PARKED` exchange. An unpark that returns early
//! on reading `NOTIFIED` read a token set after `begin_scan` — still
//! unconsumed, so the exchange fails just the same.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
#[cfg(not(target_os = "linux"))]
use parking_lot::Condvar;

#[cfg(target_os = "linux")]
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLET, EPOLLIN};
use crate::tcb::Tcb;

const EMPTY: u8 = 0;
const NOTIFIED: u8 = 1;
const PARKED: u8 = 2;

/// Epoll tokens: the parker's own eventfd, and the watched source.
#[cfg(target_os = "linux")]
const TOKEN_UNPARK: u64 = 0;
#[cfg(target_os = "linux")]
const TOKEN_SOURCE: u64 = 1;

/// What ended a [`Parker::park`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Woke {
    /// A token from [`Parker::unpark`] (rather than the timeout).
    pub unparked: bool,
    /// The [`Parker::watch`]ed fd is ready.
    pub source: bool,
}

/// A lane's sleep/wake cell. See the [module docs](self).
pub(crate) struct Parker {
    state: AtomicU8,
    #[cfg(target_os = "linux")]
    epoll: Epoll,
    #[cfg(target_os = "linux")]
    pub(crate) unparks: EventFd,
    #[cfg(not(target_os = "linux"))]
    lock: Mutex<()>,
    #[cfg(not(target_os = "linux"))]
    cv: Condvar,
}

impl Parker {
    /// # Panics
    /// When the process is out of file descriptors (Linux: two a lane).
    pub fn new() -> Parker {
        let p = Parker {
            state: AtomicU8::new(EMPTY),
            #[cfg(target_os = "linux")]
            epoll: Epoll::new().expect("cannot create a lane's epoll set"),
            #[cfg(target_os = "linux")]
            unparks: EventFd::new().expect("cannot create a lane's eventfd"),
            #[cfg(not(target_os = "linux"))]
            lock: Mutex::new(()),
            #[cfg(not(target_os = "linux"))]
            cv: Condvar::new(),
        };
        #[cfg(target_os = "linux")]
        // Edge-triggered: an unpark is one event, and nothing is drained.
        let (fd, bits) = (p.unparks.fd(), EPOLLIN | EPOLLET);
        p.epoll.add(fd, bits, TOKEN_UNPARK).expect("cannot watch a lane's eventfd");
        p
    }

    /// Also end a park whenever `fd` is readable (level-triggered: a
    /// park while it stays readable returns at once).
    #[cfg(target_os = "linux")]
    pub fn watch(&self, fd: std::os::unix::io::RawFd) -> std::io::Result<()> {
        self.epoll.add(fd, EPOLLIN, TOKEN_SOURCE)
    }

    /// Consume a pending token before scanning for work: what the scan
    /// is about to see is what the token was announcing. One load when
    /// there is none.
    #[inline]
    pub fn begin_scan(&self) {
        if self.state.load(Ordering::SeqCst) != EMPTY {
            self.state.swap(EMPTY, Ordering::SeqCst);
        }
    }

    /// Whether an unpark arrived since the last park or scan.
    pub fn token_pending(&self) -> bool {
        self.state.load(Ordering::SeqCst) == NOTIFIED
    }

    /// Sleep until [`Parker::unpark`], the watched fd, or `timeout`
    /// (`None` = no limit), whichever is first; never returns before
    /// the timeout for any other reason. Returns at once when a token
    /// arrived since [`Parker::begin_scan`]. Only the lane's baton
    /// holder calls this.
    pub fn park(&self, timeout: Option<Duration>) -> Woke {
        if self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            let unparked = self.state.swap(EMPTY, Ordering::SeqCst) == NOTIFIED;
            return Woke { unparked, source: false };
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        let source = self.sleep(deadline);
        let unparked = self.state.swap(EMPTY, Ordering::SeqCst) == NOTIFIED;
        Woke { unparked, source }
    }

    /// Wait until the state leaves `PARKED`, the watched fd is ready
    /// (true), or `deadline`. A stale eventfd signal — an unpark that
    /// lost its race with a timeout — is one event, and slept through.
    #[cfg(target_os = "linux")]
    fn sleep(&self, deadline: Option<Instant>) -> bool {
        let mut events = [EpollEvent::default(); 2];
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let ready = self.epoll.wait(&mut events, left);
            let source = ready.iter().any(|ev| ev.data == TOKEN_SOURCE);
            if source
                || self.state.load(Ordering::SeqCst) != PARKED
                || deadline.is_some_and(|d| Instant::now() >= d)
            {
                return source;
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn sleep(&self, deadline: Option<Instant>) -> bool {
        let mut g = self.lock.lock();
        while self.state.load(Ordering::SeqCst) == PARKED {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.cv.wait(&mut g),
                Some(left) if left.is_zero() => break,
                Some(left) => _ = self.cv.wait_for(&mut g, left),
            }
        }
        false
    }

    /// End the lane's park, or make its next one return at once. One
    /// load when a token is already pending (the lane is busy and has
    /// not scanned since the last unpark); a syscall only when the lane
    /// is really asleep.
    #[inline]
    pub fn unpark(&self) {
        if self.state.load(Ordering::SeqCst) == NOTIFIED {
            return;
        }
        if self.state.swap(NOTIFIED, Ordering::SeqCst) == PARKED {
            #[cfg(target_os = "linux")]
            self.unparks.signal();
            // Taking the lock orders this notify after the sleeper's
            // state check: it is either already waiting (and is woken)
            // or has not checked yet (and will see NOTIFIED).
            #[cfg(not(target_os = "linux"))]
            {
                drop(self.lock.lock());
                self.cv.notify_one();
            }
        }
    }
}

/// Identifies one armed timer; hand it back to [`crate::Vp::timer_disarm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerKey {
    deadline: Instant,
    seq: u64,
}

/// "No timer armed" in [`Timers::next_ns`].
const NO_TIMER: u64 = u64::MAX;

/// The VP's armed deadlines, nearest first.
pub(crate) struct Timers {
    /// `(deadline, arm sequence) → the thread to make ready`. The
    /// sequence number keeps equal deadlines distinct and in arm order.
    armed: Mutex<BTreeMap<(Instant, u64), Arc<Tcb>>>,
    seq: AtomicU64,
    /// The nearest deadline, in ns since `epoch` ([`NO_TIMER`] = none),
    /// so a schedule point with nothing due pays one load and — only
    /// while a timer is armed — one clock read.
    next_ns: AtomicU64,
    epoch: Instant,
}

impl Timers {
    pub fn new() -> Timers {
        Timers {
            armed: Mutex::new(BTreeMap::new()),
            seq: AtomicU64::new(0),
            next_ns: AtomicU64::new(NO_TIMER),
            epoch: Instant::now(),
        }
    }

    /// Now, on the clock [`Timers::until_next`] reads (ns since the
    /// VP was built).
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(NO_TIMER - 1)
    }

    fn publish_next(&self, armed: &BTreeMap<(Instant, u64), Arc<Tcb>>) {
        let next = armed.keys().next().map_or(NO_TIMER, |(d, _)| self.ns(*d));
        self.next_ns.store(next, Ordering::SeqCst);
    }

    /// Arm a timer for `tcb`. Returns the key and whether it became the
    /// nearest deadline (a sleeping lane must then re-plan its park).
    pub fn arm(&self, deadline: Instant, tcb: Arc<Tcb>) -> (TimerKey, bool) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut armed = self.armed.lock();
        armed.insert((deadline, seq), tcb);
        let nearest = armed.keys().next() == Some(&(deadline, seq));
        if nearest {
            self.publish_next(&armed);
        }
        (TimerKey { deadline, seq }, nearest)
    }

    /// Disarm a timer. Idempotent; a no-op once it has fired. Because
    /// firing happens under the same lock, a fire for this key is never
    /// still in flight when this returns.
    pub fn disarm(&self, key: TimerKey) {
        let mut armed = self.armed.lock();
        let was_nearest = armed.keys().next() == Some(&(key.deadline, key.seq));
        if armed.remove(&(key.deadline, key.seq)).is_some() && was_nearest {
            self.publish_next(&armed);
        }
    }

    /// How long a lane may sleep before the nearest deadline: `None`
    /// when no timer is armed, zero when one is already due.
    pub fn until_next(&self) -> Option<Duration> {
        let next = self.next_ns.load(Ordering::SeqCst);
        (next != NO_TIMER)
            .then(|| Duration::from_nanos(next.saturating_sub(self.ns(Instant::now()))))
    }

    /// Whether any timer is armed.
    pub fn any_armed(&self) -> bool {
        self.next_ns.load(Ordering::SeqCst) != NO_TIMER
    }

    /// Fire every due timer, calling `fire` for each thread (under the
    /// timer lock — see [`Timers::disarm`]). Returns how many fired.
    pub fn expire(&self, mut fire: impl FnMut(&Arc<Tcb>)) -> usize {
        let next = self.next_ns.load(Ordering::Relaxed);
        if next == NO_TIMER {
            return 0;
        }
        let now = Instant::now();
        if self.ns(now) < next {
            return 0;
        }
        let mut armed = self.armed.lock();
        let mut fired = 0;
        while let Some(entry) = armed.first_entry() {
            if entry.key().0 > now {
                break;
            }
            fire(&entry.remove());
            fired += 1;
        }
        if fired > 0 {
            self.publish_next(&armed);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Priority;

    #[test]
    fn unpark_before_park_returns_at_once() {
        let p = Parker::new();
        p.begin_scan();
        p.unpark();
        let t0 = Instant::now();
        assert!(p.park(Some(Duration::from_secs(5))).unparked);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn begin_scan_consumes_the_token() {
        let p = Parker::new();
        p.unpark();
        p.begin_scan();
        let woke = p.park(Some(Duration::from_millis(5)));
        assert_eq!(woke, Woke::default(), "token was consumed");
    }

    #[test]
    fn park_times_out_and_unpark_ends_it() {
        let p = Arc::new(Parker::new());
        let t0 = Instant::now();
        assert!(!p.park(Some(Duration::from_millis(20))).unparked);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        let p2 = Arc::clone(&p);
        let h = std::thread::spawn(move || p2.park(None));
        std::thread::sleep(Duration::from_millis(10));
        p.unpark();
        assert!(h.join().unwrap().unparked);
    }

    #[test]
    fn timers_fire_nearest_first_and_disarm_is_idempotent() {
        let t = Timers::new();
        let tcb = |id| Tcb::new(id, "t".into(), Priority::NORMAL, false);
        let now = Instant::now();
        assert!(t.until_next().is_none());
        let (late, nearest) = t.arm(now + Duration::from_millis(40), tcb(1));
        assert!(nearest);
        let (soon, nearest) = t.arm(now + Duration::from_millis(5), tcb(2));
        assert!(nearest);
        let (_mid, nearest) = t.arm(now + Duration::from_millis(20), tcb(3));
        assert!(!nearest);
        assert!(t.until_next().unwrap() <= Duration::from_millis(5));
        assert_eq!(t.expire(|_| panic!("nothing is due yet")), 0);
        std::thread::sleep(Duration::from_millis(25));
        let mut order = Vec::new();
        assert_eq!(t.expire(|tcb| order.push(tcb.id)), 2);
        assert_eq!(order, vec![2, 3]);
        t.disarm(soon); // already fired: no-op
        t.disarm(late);
        t.disarm(late);
        assert!(!t.any_armed());
    }
}
